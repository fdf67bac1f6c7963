// Decision provenance: the ExplainRecorder's fold over the trace event
// stream, its retention filters, and the guarantees — attaching provenance
// never changes a decision, and replaying a recorded trace builds the same
// records the live run did. The byte-identity test runs every policy over
// many seeds with and without the recorder teed onto the trace, holds the
// .lrt bytes exactly equal, and replays the file into a fresh recorder.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "exp/counterfactual.hpp"
#include "exp/scenario.hpp"
#include "obs/explain.hpp"
#include "support/check.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace librisk {
namespace {

using trace::RejectionReason;

exp::Scenario small_scenario(core::Policy policy, std::uint64_t seed) {
  exp::Scenario s;
  s.workload.trace.job_count = 200;
  s.nodes = 32;
  s.policy = policy;
  s.seed = seed;
  return s;
}

/// Writes every event to two sinks. The library has no tee: no caller
/// records a trace and explains it in the same run; this test does both.
class TeeSink final : public trace::Sink {
 public:
  TeeSink(trace::Sink& first, trace::Sink& second)
      : first_(first), second_(second) {}
  void write(const trace::Event& event) override {
    first_.write(event);
    second_.write(event);
  }

 private:
  trace::Sink& first_;
  trace::Sink& second_;
};

/// Margins-bearing .lrt bytes of one run, optionally with an
/// ExplainRecorder teed onto the same recorder.
std::string record_lrt(core::Policy policy, std::uint64_t seed,
                       obs::ExplainRecorder* explain) {
  exp::Scenario s = small_scenario(policy, seed);
  std::ostringstream os;
  trace::BinarySink sink(os, {std::string(core::to_string(policy)), seed},
                         {.margins = true});
  std::optional<TeeSink> tee;
  if (explain != nullptr) tee.emplace(sink, *explain);
  trace::Recorder recorder(tee ? static_cast<trace::Sink&>(*tee) : sink);
  s.options.hooks.trace = &recorder;
  (void)exp::run_scenario(s);
  sink.close();
  return os.str();
}

// ---- the fold over the event stream ----

TEST(ExplainRecorder, RecordsAcceptAndRejectWithNodes) {
  obs::ExplainRecorder rec;
  trace::Recorder t(rec);
  t.job_submitted(10.0, 1, 2, 100.0, 50.0);
  t.node_evaluated(10.0, 1, 0, RejectionReason::None, 0.0, 0.4, 0.6);
  t.node_evaluated(10.0, 1, 1, RejectionReason::RiskSigma, 3.0, 0.9, -3.0);
  t.node_evaluated(10.0, 1, 2, RejectionReason::None, 0.0, 0.5, 0.5);
  t.job_admitted(10.0, 1, /*first_node=*/0, /*suitable=*/2, /*fit=*/0.4,
                 /*margin=*/0.6);
  t.job_started(10.0, 1, 0, 2, 50.0);  // lifecycle past the decision

  t.job_submitted(20.0, 2, 1, 10.0, 50.0);
  t.node_evaluated(20.0, 2, 0, RejectionReason::RiskSigma, 2.0, 0.8, -2.0);
  t.job_rejected(20.0, 2, RejectionReason::RiskSigma, 0, 1, -2.0);

  ASSERT_EQ(rec.decisions().size(), 2u);
  const obs::DecisionExplain& accept = rec.decisions()[0];
  EXPECT_TRUE(accept.accepted());
  EXPECT_EQ(accept.job_id, 1);
  EXPECT_EQ(accept.node, 0);
  EXPECT_EQ(accept.sigma, 0.0);  // the chosen node's scan sigma
  EXPECT_EQ(accept.suitable, 2);
  EXPECT_EQ(accept.margin, 0.6);
  ASSERT_EQ(accept.nodes.size(), 3u);
  EXPECT_EQ(accept.nodes[1].test, RejectionReason::RiskSigma);
  EXPECT_EQ(obs::required_improvement(accept), 0.0);

  const obs::DecisionExplain& reject = rec.decisions()[1];
  EXPECT_FALSE(reject.accepted());
  EXPECT_EQ(reject.reason, RejectionReason::RiskSigma);
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
  trace::Recorder t(rec);
  for (std::int64_t id = 1; id <= 5; ++id) {
    t.job_submitted(static_cast<double>(id), id, 1, 1.0, 1.0);
    t.job_rejected(static_cast<double>(id), id, RejectionReason::NoSuitableNode,
                   0, 1);
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
  trace::Recorder t(rec);

  t.job_submitted(1.0, 1, 1, 1.0, 1.0);  // wrong job
  t.node_evaluated(1.0, 1, 0, RejectionReason::RiskSigma, 5.0, 0.5, -5.0);
  t.job_rejected(1.0, 1, RejectionReason::RiskSigma, 0, 1, -5.0);
  t.job_submitted(2.0, 2, 1, 1.0, 1.0);  // right job, accepted -> filtered
  t.node_evaluated(2.0, 2, 0, RejectionReason::None, 0.25, 0.5, 0.75);
  t.job_admitted(2.0, 2, 0, 1, 0.5, 0.75);
  t.job_submitted(3.0, 2, 1, 1.0, 1.0);  // right job, rejected -> retained
  t.job_rejected(3.0, 2, RejectionReason::RiskSigma, 0, 1, -1.0);

  ASSERT_EQ(rec.decisions().size(), 1u);
  EXPECT_EQ(rec.decisions()[0].job_id, 2);
  EXPECT_FALSE(rec.decisions()[0].accepted());
  // The filters drop retention only — the extremes saw both sigmas.
  EXPECT_EQ(rec.sigma_extremes().fail_min, 5.0);
  EXPECT_EQ(rec.sigma_extremes().pass_max, 0.25);
}

TEST(ExplainRecorder, KeepNodesOffDropsNodeVectors) {
  obs::ExplainRecorder rec(obs::ExplainConfig{.keep_nodes = false});
  trace::Recorder t(rec);
  t.job_submitted(1.0, 1, 1, 1.0, 1.0);
  t.node_evaluated(1.0, 1, 0, RejectionReason::None, 0.0, 0.5, 0.5);
  t.job_admitted(1.0, 1, 0, 1, 0.5, 0.5);
  ASSERT_EQ(rec.decisions().size(), 1u);
  EXPECT_TRUE(rec.decisions()[0].nodes.empty());
  EXPECT_EQ(rec.sigma_extremes().passes, 1u);  // still folded
}

TEST(ExplainRecorder, DecisionTimeIsTheDecisionInstant) {
  // The space-shared shape: a queued job is rejected at dispatch, after its
  // submission, and an admission is a start with no decision event.
  obs::ExplainRecorder rec;
  trace::Recorder t(rec);
  t.job_submitted(1.0, 7, 2, 10.0, 4.0);
  t.job_submitted(2.0, 8, 1, 10.0, 4.0);
  t.job_started(3.0, 8, 0, 1, 4.0);
  t.job_rejected(5.0, 7, RejectionReason::DeadlineInfeasible, 0, 2, -3.0);

  ASSERT_EQ(rec.decisions().size(), 1u);
  const obs::DecisionExplain& d = rec.decisions()[0];
  EXPECT_EQ(d.job_id, 7);
  EXPECT_EQ(d.time, 5.0);
  EXPECT_EQ(d.num_procs, 2);
  EXPECT_EQ(d.margin, -3.0);
  EXPECT_EQ(rec.recorded(), 1u);
}

// ---- the tentpole guarantee: provenance never changes a decision ----

TEST(ExplainProvenance, TracesByteIdenticalAcrossPoliciesAndSeeds) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const core::Policy policy : core::all_policies()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const std::string plain = record_lrt(policy, seed, nullptr);
      obs::ExplainRecorder live(obs::ExplainConfig{.capacity = 100000});
      const std::string explained = record_lrt(policy, seed, &live);
      ASSERT_EQ(plain, explained)
          << core::to_string(policy) << " seed " << seed;
      ASSERT_FALSE(plain.empty()) << core::to_string(policy);

      // One fold serves both paths: the recorded file replays into the
      // live run's records.
      std::istringstream in(explained);
      const trace::TraceData data = trace::read_lrt(in);
      obs::ExplainRecorder replayed(obs::ExplainConfig{.capacity = 100000});
      for (const trace::Event& e : data.events) replayed.write(e);
      ASSERT_EQ(replayed.recorded(), live.recorded())
          << core::to_string(policy) << " seed " << seed;
      ASSERT_EQ(replayed.decisions().size(), live.decisions().size());
      for (std::size_t i = 0; i < live.decisions().size(); ++i) {
        const obs::DecisionExplain& a = live.decisions()[i];
        const obs::DecisionExplain& b = replayed.decisions()[i];
        ASSERT_EQ(obs::describe(a), obs::describe(b))
            << core::to_string(policy) << " seed " << seed;
        ASSERT_EQ(bits(a.sigma), bits(b.sigma))
            << core::to_string(policy) << " seed " << seed << " job "
            << a.job_id;
      }
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
    EXPECT_EQ(d.accepted(), !outcome_rejected) << "job " << d.job_id;
    EXPECT_EQ(d.sigma, outcome->sigma) << "job " << d.job_id;
    if (!d.accepted()) {
      EXPECT_EQ(d.reason, outcome->reason) << "job " << d.job_id;
      EXPECT_LE(d.margin, 0.0) << "job " << d.job_id;
    } else {
      EXPECT_EQ(d.node, outcome->node) << "job " << d.job_id;
      EXPECT_EQ(d.margin, outcome->margin) << "job " << d.job_id;
    }
  }
}

TEST(ExplainProvenance, RunWithMarginsRefusesAnAttachedTrace) {
  exp::Scenario s = small_scenario(core::Policy::LibraRisk, 1);
  trace::NullSink sink;
  trace::Recorder recorder(sink);
  s.options.hooks.trace = &recorder;
  obs::ExplainRecorder rec;
  EXPECT_THROW((void)exp::run_with_margins(s, rec), CheckError);
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
