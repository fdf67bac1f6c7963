// Decision provenance: the ExplainRecorder's recording protocol, its
// retention filters, and the tentpole guarantee — attaching provenance
// never changes a decision. The byte-identity test runs every policy over
// many seeds twice, with and without the recorder, and holds the .lrt
// decision traces (and the per-job outcomes) exactly equal.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/counterfactual.hpp"
#include "exp/scenario.hpp"
#include "obs/explain.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace librisk {
namespace {

exp::Scenario small_scenario(core::Policy policy, std::uint64_t seed) {
  exp::Scenario s;
  s.workload.trace.job_count = 200;
  s.nodes = 32;
  s.policy = policy;
  s.seed = seed;
  return s;
}

/// .lrt bytes of one run, optionally with an ExplainRecorder attached.
std::string record_lrt(core::Policy policy, std::uint64_t seed,
                       obs::ExplainRecorder* explain) {
  exp::Scenario s = small_scenario(policy, seed);
  std::ostringstream os;
  trace::BinarySink sink(os, {std::string(core::to_string(policy)), seed});
  trace::Recorder recorder(sink);
  s.options.hooks.trace = &recorder;
  s.options.hooks.explain = explain;
  (void)exp::run_scenario(s);
  sink.close();
  return os.str();
}

// ---- recording protocol ----

TEST(ExplainRecorder, RecordsAcceptAndRejectWithNodes) {
  obs::ExplainRecorder rec;
  rec.begin(10.0, 1, 2, 100.0, 50.0);
  rec.node({0, true, trace::RejectionReason::None, 0.0, 0.4, 0.6});
  rec.node({1, false, trace::RejectionReason::RiskSigma, 3.0, 0.9, -3.0});
  rec.node({2, true, trace::RejectionReason::None, 0.0, 0.5, 0.5});
  rec.finish_accept(0, 0.6, 2);

  rec.begin(20.0, 2, 1, 10.0, 50.0);
  rec.node({0, false, trace::RejectionReason::RiskSigma, 2.0, 0.8, -2.0});
  rec.finish_reject(trace::RejectionReason::RiskSigma, 0, -2.0);

  ASSERT_EQ(rec.decisions().size(), 2u);
  const obs::DecisionExplain& accept = rec.decisions()[0];
  EXPECT_TRUE(accept.accepted);
  EXPECT_EQ(accept.job_id, 1);
  EXPECT_EQ(accept.chosen_node, 0);
  EXPECT_EQ(accept.suitable, 2);
  EXPECT_EQ(accept.margin, 0.6);
  ASSERT_EQ(accept.nodes.size(), 3u);
  EXPECT_EQ(accept.nodes[1].test, trace::RejectionReason::RiskSigma);
  EXPECT_EQ(obs::required_improvement(accept), 0.0);

  const obs::DecisionExplain& reject = rec.decisions()[1];
  EXPECT_FALSE(reject.accepted);
  EXPECT_EQ(reject.reason, trace::RejectionReason::RiskSigma);
  EXPECT_EQ(reject.margin, -2.0);
  EXPECT_EQ(obs::required_improvement(reject), 2.0);

  EXPECT_EQ(rec.find(2), &reject);
  EXPECT_EQ(rec.find(99), nullptr);
  EXPECT_EQ(rec.recorded(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);

  // Sigma extremes fold every evaluation, suitable or not.
  EXPECT_EQ(rec.sigma_extremes().passes, 2u);
  EXPECT_EQ(rec.sigma_extremes().fails, 2u);
  EXPECT_EQ(rec.sigma_extremes().pass_max, 0.0);
  EXPECT_EQ(rec.sigma_extremes().fail_min, 2.0);

  const std::string accept_text = obs::describe(accept);
  EXPECT_NE(accept_text.find("ACCEPTED"), std::string::npos);
  const std::string reject_text = obs::describe(reject);
  EXPECT_NE(reject_text.find("REJECTED"), std::string::npos);
  EXPECT_NE(reject_text.find("risk_sigma"), std::string::npos);

  rec.clear();
  EXPECT_TRUE(rec.decisions().empty());
  EXPECT_EQ(rec.sigma_extremes().passes, 0u);
}

TEST(ExplainRecorder, CapacityRingDropsOldest) {
  obs::ExplainRecorder rec(obs::ExplainConfig{.capacity = 2});
  for (std::int64_t id = 1; id <= 5; ++id) {
    rec.begin(static_cast<double>(id), id, 1, 1.0, 1.0);
    rec.finish_reject(trace::RejectionReason::NoSuitableNode, 0, 0.0);
  }
  ASSERT_EQ(rec.decisions().size(), 2u);
  EXPECT_EQ(rec.decisions()[0].job_id, 4);
  EXPECT_EQ(rec.decisions()[1].job_id, 5);
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 3u);
}

TEST(ExplainRecorder, FiltersRetainButExtremesSeeEverything) {
  obs::ExplainConfig config;
  config.only_job = 2;
  config.only_rejections = true;
  obs::ExplainRecorder rec(config);

  rec.begin(1.0, 1, 1, 1.0, 1.0);  // wrong job
  rec.node({0, false, trace::RejectionReason::RiskSigma, 5.0, 0.5, -5.0});
  rec.finish_reject(trace::RejectionReason::RiskSigma, 0, -5.0);
  rec.begin(2.0, 2, 1, 1.0, 1.0);  // right job, accepted -> filtered
  rec.node({0, true, trace::RejectionReason::None, 0.25, 0.5, 0.75});
  rec.finish_accept(0, 0.75, 1);
  rec.begin(3.0, 2, 1, 1.0, 1.0);  // right job, rejected -> retained
  rec.finish_reject(trace::RejectionReason::RiskSigma, 0, -1.0);

  ASSERT_EQ(rec.decisions().size(), 1u);
  EXPECT_EQ(rec.decisions()[0].job_id, 2);
  EXPECT_FALSE(rec.decisions()[0].accepted);
  // The filters drop retention only — the extremes saw both sigmas.
  EXPECT_EQ(rec.sigma_extremes().fail_min, 5.0);
  EXPECT_EQ(rec.sigma_extremes().pass_max, 0.25);
}

TEST(ExplainRecorder, KeepNodesOffDropsNodeVectors) {
  obs::ExplainRecorder rec(obs::ExplainConfig{.keep_nodes = false});
  rec.begin(1.0, 1, 1, 1.0, 1.0);
  rec.node({0, true, trace::RejectionReason::None, 0.0, 0.5, 0.5});
  rec.finish_accept(0, 0.5, 1);
  ASSERT_EQ(rec.decisions().size(), 1u);
  EXPECT_TRUE(rec.decisions()[0].nodes.empty());
  EXPECT_EQ(rec.sigma_extremes().passes, 1u);  // still folded
}

// ---- the tentpole guarantee: provenance never changes a decision ----

TEST(ExplainProvenance, TracesByteIdenticalAcrossPoliciesAndSeeds) {
  for (const core::Policy policy : core::all_policies()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const std::string plain = record_lrt(policy, seed, nullptr);
      obs::ExplainRecorder rec;
      const std::string explained = record_lrt(policy, seed, &rec);
      ASSERT_EQ(plain, explained)
          << core::to_string(policy) << " seed " << seed;
      ASSERT_FALSE(plain.empty()) << core::to_string(policy);
    }
  }
}

TEST(ExplainProvenance, OutcomesAndSummaryUnchanged) {
  for (const core::Policy policy : core::all_policies()) {
    const exp::ScenarioResult plain =
        exp::run_scenario(small_scenario(policy, 3));
    obs::ExplainRecorder rec;
    const exp::ScenarioResult explained =
        exp::run_with_margins(small_scenario(policy, 3), rec);

    EXPECT_EQ(plain.summary.accepted, explained.summary.accepted);
    EXPECT_EQ(plain.summary.fulfilled_pct, explained.summary.fulfilled_pct);
    EXPECT_EQ(plain.summary.avg_slowdown_fulfilled,
              explained.summary.avg_slowdown_fulfilled);
    ASSERT_EQ(plain.outcomes.size(), explained.outcomes.size());
    for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
      ASSERT_EQ(plain.outcomes[i].fate, explained.outcomes[i].fate);
      ASSERT_EQ(plain.outcomes[i].delay, explained.outcomes[i].delay);
    }
    EXPECT_GT(rec.recorded(), 0u) << core::to_string(policy);
    // The space-shared policies accept implicitly by starting a job, so
    // they explain exactly their rejections.
    if (policy != core::Policy::Libra && policy != core::Policy::LibraRisk) {
      EXPECT_EQ(rec.recorded(), explained.summary.rejected_at_submit +
                                    explained.summary.rejected_at_dispatch)
          << core::to_string(policy);
    }
  }
}

TEST(ExplainProvenance, RecordedDecisionsMatchOutcomes) {
  exp::Scenario s = small_scenario(core::Policy::LibraRisk, 7);
  obs::ExplainRecorder rec(obs::ExplainConfig{.capacity = 100000});
  const exp::ScenarioResult r = exp::run_with_margins(s, rec);

  ASSERT_EQ(rec.decisions().size(), r.outcomes.size());
  for (const obs::DecisionExplain& d : rec.decisions()) {
    const exp::JobOutcome* outcome = nullptr;
    for (const exp::JobOutcome& o : r.outcomes)
      if (o.id == d.job_id) outcome = &o;
    ASSERT_NE(outcome, nullptr) << "job " << d.job_id;
    const bool outcome_rejected =
        outcome->fate == metrics::JobFate::RejectedAtSubmit ||
        outcome->fate == metrics::JobFate::RejectedAtDispatch;
    EXPECT_EQ(d.accepted, !outcome_rejected) << "job " << d.job_id;
    if (!d.accepted) {
      EXPECT_EQ(d.reason, outcome->reason) << "job " << d.job_id;
      EXPECT_LE(d.margin, 0.0) << "job " << d.job_id;
    } else {
      EXPECT_EQ(d.chosen_node, outcome->node) << "job " << d.job_id;
      EXPECT_EQ(d.margin, outcome->margin) << "job " << d.job_id;
    }
  }
}

// ---- near-miss counters ----

TEST(ExplainNearMiss, CountersAreConsistent) {
  for (const core::Policy policy :
       {core::Policy::LibraRisk, core::Policy::Libra, core::Policy::Edf}) {
    const exp::ScenarioResult r =
        exp::run_scenario(small_scenario(policy, 11));
    const core::AdmissionStats& adm = r.admission;
    // 10% includes 5% by construction.
    EXPECT_GE(adm.near_miss_share_10, adm.near_miss_share_5);
    EXPECT_GE(adm.near_miss_sigma_10, adm.near_miss_sigma_5);
    EXPECT_GE(adm.near_miss_deadline_10, adm.near_miss_deadline_5);
    // Near-misses are rejections, so they cannot exceed the rejection count.
    EXPECT_LE(adm.near_miss_10(), adm.rejections) << core::to_string(policy);
  }
}

TEST(ExplainNearMiss, ExactWhenMarginsObserved) {
  // With explain attached the batch spread bound is disabled, so the sigma
  // near-miss counters are exact; detached they may undercount, never over.
  exp::Scenario s = small_scenario(core::Policy::LibraRisk, 11);
  const exp::ScenarioResult detached = exp::run_scenario(s);
  obs::ExplainRecorder rec(obs::ExplainConfig{.capacity = 0});
  const exp::ScenarioResult attached = exp::run_with_margins(s, rec);

  EXPECT_LE(detached.admission.near_miss_sigma_5,
            attached.admission.near_miss_sigma_5);
  EXPECT_LE(detached.admission.near_miss_sigma_10,
            attached.admission.near_miss_sigma_10);
  // Decisions are identical either way, so the rejection totals agree.
  EXPECT_EQ(detached.admission.rejections, attached.admission.rejections);
}

}  // namespace
}  // namespace librisk
