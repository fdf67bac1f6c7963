// The overload modes (core/overload.hpp) and their load-bearing
// guarantees:
//
//   (1) HardReject is byte-identical — with the overload config set (any
//       knob values) the .lrt decision trace of every policy over many
//       seeds equals a default run's exactly.
//   (2) DowngradeQoS bends only EDF and EDF-BF: every other policy's .lrt
//       under it equals its HardReject trace, past the knee.
//   (3) Every mode is deterministic and replayable: same-seed runs produce
//       trace-diff-identical .lrt files even while the governor is flipping
//       and the bend is firing.
//
// Plus the exact per-reason accounting invariants across all policies x
// both modes (scheduler counters and gateway certificate sheds both sum to
// their totals), the certificates each gateway policy keeps, and
// conservation through the federation spill lane.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/engine.hpp"
#include "core/gateway.hpp"
#include "core/overload.hpp"
#include "exp/scenario.hpp"
#include "federation/federation.hpp"
#include "federation/router.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "workload/job.hpp"
#include "workload/synthetic.hpp"

namespace librisk {
namespace {

using core::DegradedMode;

// ---------------------------------------------------------------------------
// Mode names, config validation and the governor

TEST(OverloadCatalog, WireNamesRoundTrip) {
  for (const DegradedMode mode : core::all_degraded_modes())
    EXPECT_EQ(core::parse_degraded_mode(core::to_string(mode)), mode);
  EXPECT_THROW((void)core::parse_degraded_mode("graceful"),
               std::invalid_argument);
  // Wire names are exact: no case folding, no aliases.
  EXPECT_THROW((void)core::parse_degraded_mode("HardReject"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_degraded_mode(""), std::invalid_argument);
  // The deleted modes are unknown names now, and the error says what is
  // accepted.
  for (const char* removed : {"shed-tail", "relax-sigma", "defer-to-salvage"}) {
    try {
      (void)core::parse_degraded_mode(removed);
      ADD_FAILURE() << removed << " still parses";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("unknown degraded mode: ") + removed +
                    " (expected hard-reject | downgrade-qos)");
    }
  }
  // DowngradeQoS keeps its wire value: ModeTransition events carry it.
  EXPECT_EQ(static_cast<int>(DegradedMode::DowngradeQoS), 4);
}

TEST(OverloadConfig, ValidateAcceptsDefaultsRejectsBadKnobs) {
  const core::OverloadConfig ok;
  EXPECT_NO_THROW(ok.validate());

  core::OverloadConfig bad = ok;
  bad.activation_load = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.downgrade_factor = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // The wire values of the deleted modes are not modes any more.
  for (const int stale : {1, 2, 3, 5}) {
    bad = ok;
    bad.mode = static_cast<DegradedMode>(stale);
    EXPECT_THROW(bad.validate(), std::invalid_argument) << stale;
  }
}

TEST(OverloadGovernor, HardRejectNeverEngages) {
  core::OverloadGovernor governor{core::OverloadConfig{}};
  EXPECT_FALSE(governor.enabled());
  EXPECT_FALSE(governor.evaluate(0.0, core::LoadSignal{128.0, 128.0}));
  EXPECT_FALSE(governor.engaged());
  EXPECT_EQ(governor.activations(), 0u);
}

TEST(OverloadGovernor, EngagesAtActivationLoadAndCountsFlips) {
  core::OverloadConfig config;
  config.mode = DegradedMode::DowngradeQoS;
  config.activation_load = 0.5;
  core::OverloadGovernor governor{config};
  EXPECT_TRUE(governor.enabled());
  EXPECT_FALSE(governor.evaluate(1.0, core::LoadSignal{15.0, 32.0}));
  EXPECT_TRUE(governor.evaluate(2.0, core::LoadSignal{16.0, 32.0}));
  EXPECT_TRUE(governor.evaluate(3.0, core::LoadSignal{30.0, 32.0}));
  EXPECT_FALSE(governor.evaluate(4.0, core::LoadSignal{2.0, 32.0}));
  EXPECT_TRUE(governor.evaluate(5.0, core::LoadSignal{32.0, 32.0}));
  EXPECT_EQ(governor.activations(), 2u);  // engaged twice, not per-evaluate
}

// ---------------------------------------------------------------------------
// Trace identity. record_lrt mirrors the provenance tests: one scenario,
// one BinarySink, byte-compare the .lrt streams.

std::string record_lrt(core::Policy policy, std::uint64_t seed,
                       const core::OverloadConfig& overload,
                       double load_scale = 1.0) {
  exp::Scenario s;
  s.workload.trace.job_count = 200;
  s.nodes = 32;
  s.policy = policy;
  s.seed = seed;
  s.options.overload = overload;
  std::vector<workload::Job> jobs =
      workload::make_paper_workload(s.workload, seed);
  if (load_scale != 1.0) workload::scale_interarrivals(jobs, load_scale);
  std::ostringstream os;
  trace::BinarySink sink(os, {std::string(core::to_string(policy)), seed});
  trace::Recorder recorder(sink);
  s.options.hooks.trace = &recorder;
  (void)exp::run_jobs(s, jobs);
  sink.close();
  return os.str();
}

TEST(OverloadIdentity, HardRejectByteIdenticalAcrossPoliciesAndSeeds) {
  // The acceptance bar for the refactor: under HardReject every consult
  // site must reduce to a no-op before touching state, so a run with the
  // overload config set — even with every knob off-default — leaves the
  // .lrt decision trace byte-identical to a default run.
  core::OverloadConfig noisy;  // mode stays HardReject
  noisy.activation_load = 0.25;
  noisy.downgrade_factor = 3.0;
  for (const core::Policy policy : core::all_policies()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      EXPECT_EQ(record_lrt(policy, seed, core::OverloadConfig{}),
                record_lrt(policy, seed, noisy))
          << "policy " << core::to_string(policy) << ", seed " << seed;
    }
  }
}

/// Hot configuration for the degraded-mode tests: arrivals compressed past
/// the knee so the governor actually flips and the bends fire.
core::OverloadConfig hot(DegradedMode mode) {
  core::OverloadConfig config;
  config.mode = mode;
  return config;
}
constexpr double kHotScale = 0.35;

TEST(OverloadIdentity, DowngradeQoSIsHardRejectWithoutDeadlineTest) {
  // Only EDF and EDF-BF have a dispatch-time deadline test to bend. Every
  // other policy must decide under DowngradeQoS exactly as under
  // HardReject — past the knee, where the governor would engage — down to
  // the last trace byte (no ModeTransition events either).
  const core::Policy policies[] = {
      core::Policy::Libra, core::Policy::LibraRisk, core::Policy::EdfNoAC,
      core::Policy::Fcfs,  core::Policy::Easy,      core::Policy::Qops};
  for (const core::Policy policy : policies) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      // EXPECT_TRUE, not EXPECT_EQ: a mismatch would dump two whole traces.
      EXPECT_TRUE(record_lrt(policy, seed, hot(DegradedMode::HardReject),
                             kHotScale) ==
                  record_lrt(policy, seed, hot(DegradedMode::DowngradeQoS),
                             kHotScale))
          << "policy " << core::to_string(policy) << ", seed " << seed;
    }
  }
}

TEST(OverloadDeterminism, SameSeedTraceIdenticalPerMode) {
  // Determinism/replayability: two same-seed runs of each mode are
  // trace-diff identical, for the bendable policies and controls that
  // reduce to HardReject.
  const core::Policy policies[] = {core::Policy::LibraRisk,
                                   core::Policy::Libra, core::Policy::Edf,
                                   core::Policy::EdfBackfill,
                                   core::Policy::Fcfs};
  for (const DegradedMode mode : core::all_degraded_modes()) {
    for (const core::Policy policy : policies) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string first = record_lrt(policy, seed, hot(mode), kHotScale);
        const std::string second =
            record_lrt(policy, seed, hot(mode), kHotScale);
        EXPECT_EQ(first, second)
            << "mode " << core::to_string(mode) << ", policy "
            << core::to_string(policy) << ", seed " << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Accounting invariants (the property test): per-reason rejection counters
// sum exactly to the totals for every policy under both modes.

std::vector<workload::Job> hot_jobs(int count, std::uint64_t seed) {
  workload::PaperWorkloadConfig w;
  w.trace.job_count = static_cast<std::size_t>(count);
  std::vector<workload::Job> jobs = workload::make_paper_workload(w, seed);
  workload::scale_interarrivals(jobs, kHotScale);
  return jobs;
}

core::AdmissionStats run_engine(core::Policy policy, DegradedMode mode,
                                const std::vector<workload::Job>& jobs) {
  core::EngineConfig config;
  config.cluster = cluster::Cluster::homogeneous(32, 168.0);
  config.policy = policy;
  config.options.overload = hot(mode);
  const std::unique_ptr<core::AdmissionEngine> engine =
      core::make_engine(std::move(config));
  for (const workload::Job& job : jobs) engine->submit(job);
  engine->finish();
  return engine->admission_stats();
}

TEST(OverloadAccounting, PerReasonRejectionsSumExactly) {
  const std::vector<workload::Job> jobs = hot_jobs(400, 3);
  for (const core::Policy policy : core::all_policies()) {
    for (const DegradedMode mode : core::all_degraded_modes()) {
      const std::string_view name = core::to_string(mode);
      const core::AdmissionStats adm = run_engine(policy, mode, jobs);
      // Every policy counts, so the sums below cannot hold vacuously.
      EXPECT_EQ(adm.submissions, jobs.size())
          << "policy " << core::to_string(policy) << ", mode " << name;
      EXPECT_EQ(adm.rejections,
                adm.rejected_share_overflow + adm.rejected_risk_sigma +
                    adm.rejected_no_suitable_node +
                    adm.rejected_deadline_infeasible)
          << "policy " << core::to_string(policy) << ", mode " << name;
      // Every offered job resolves to exactly one of accepted/rejected by
      // the end of the run.
      EXPECT_EQ(adm.submissions, adm.accepted + adm.rejections)
          << "policy " << core::to_string(policy) << ", mode " << name;
      // Degraded outcomes attribute, they do not add.
      EXPECT_LE(adm.degraded_admits, adm.accepted);
      if (mode == DegradedMode::HardReject) {
        EXPECT_EQ(adm.degraded_admits, 0u);
        EXPECT_EQ(adm.overload_activations, 0u);
      }
    }
  }
}

TEST(OverloadAccounting, EachModesMachineryActuallyFires) {
  // Guard against DowngradeQoS decaying into silent HardReject: past the
  // knee, the governor must engage and the bend must admit jobs under both
  // policies that carry it.
  for (const core::Policy policy :
       {core::Policy::Edf, core::Policy::EdfBackfill}) {
    std::uint64_t downgraded = 0, activations = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const core::AdmissionStats adm =
          run_engine(policy, DegradedMode::DowngradeQoS, hot_jobs(400, seed));
      downgraded += adm.degraded_admits;
      activations += adm.overload_activations;
    }
    EXPECT_GT(downgraded, 0u) << core::to_string(policy);
    EXPECT_GT(activations, 0u) << core::to_string(policy);
  }
}

TEST(OverloadAccounting, GatewayCertificateShedsSumToFastRejected) {
  const std::vector<workload::Job> jobs = hot_jobs(300, 3);
  for (const core::Policy policy : core::all_policies()) {
    for (const DegradedMode mode : core::all_degraded_modes()) {
      const std::string_view name = core::to_string(mode);
      core::GatewayConfig config;
      config.engine.cluster = cluster::Cluster::homogeneous(32, 168.0);
      config.engine.policy = policy;
      config.engine.options.overload = hot(mode);
      core::AdmissionGateway gateway(std::move(config));
      for (const workload::Job& job : jobs) gateway.submit(job);
      gateway.close();
      const core::GatewayStats gs = gateway.stats();
      EXPECT_EQ(gs.fast_rejected, gs.shed_no_suitable_node + gs.shed_share +
                                      gs.shed_deadline + gs.shed_aggregate)
          << "policy " << core::to_string(policy) << ", mode " << name;
      // EDF and EDF-BF drop C2-deadline under DowngradeQoS; shedding must
      // stay conservative either way — the audit replays every shed.
      EXPECT_EQ(gs.audit_violations, 0u)
          << "policy " << core::to_string(policy) << ", mode " << name;
      EXPECT_EQ(gs.decided, jobs.size());
      // Occupancy counters attribute engine decisions, they never add.
      const core::AdmissionStats adm = gateway.engine().admission_stats();
      EXPECT_LE(gs.degraded_admits, adm.degraded_admits);
      if (mode == DegradedMode::HardReject) {
        EXPECT_EQ(gs.degraded_admits, 0u);
      }
    }
  }
}

core::GatewayStats run_gateway(core::Policy policy, DegradedMode mode,
                               const std::vector<workload::Job>& jobs) {
  core::GatewayConfig config;
  config.engine.cluster = cluster::Cluster::homogeneous(32, 168.0);
  config.engine.policy = policy;
  config.engine.options.overload = hot(mode);
  core::AdmissionGateway gateway(std::move(config));
  for (const workload::Job& job : jobs) gateway.submit(job);
  gateway.close();
  return gateway.stats();
}

TEST(OverloadGateway, PoliciesThatCannotBendKeepTheirCertificates) {
  // Libra and QoPS decide under DowngradeQoS exactly as under HardReject,
  // so their C2 certificates stay sound and must keep shedding the same
  // jobs; only EDF and EDF-BF, whose deadline test bends, give theirs up.
  const std::vector<workload::Job> jobs = hot_jobs(300, 3);
  const core::GatewayStats libra_hard =
      run_gateway(core::Policy::Libra, DegradedMode::HardReject, jobs);
  const core::GatewayStats libra_bent =
      run_gateway(core::Policy::Libra, DegradedMode::DowngradeQoS, jobs);
  EXPECT_GT(libra_hard.shed_share, 0u) << "C2-share never fired; vacuous";
  EXPECT_EQ(libra_bent.shed_share, libra_hard.shed_share);
  EXPECT_EQ(libra_bent.audit_violations, 0u);

  const core::GatewayStats qops_hard =
      run_gateway(core::Policy::Qops, DegradedMode::HardReject, jobs);
  const core::GatewayStats qops_bent =
      run_gateway(core::Policy::Qops, DegradedMode::DowngradeQoS, jobs);
  EXPECT_EQ(qops_bent.shed_deadline, qops_hard.shed_deadline);
  EXPECT_EQ(qops_bent.audit_violations, 0u);

  EXPECT_EQ(run_gateway(core::Policy::Edf, DegradedMode::DowngradeQoS, jobs)
                .shed_deadline,
            0u);
}

// ---------------------------------------------------------------------------
// Federation spill lane: conservation and the HardReject off-switch.

federation::FederationConfig spill_config(DegradedMode mode,
                                          double activation_load) {
  federation::FederationConfig config;
  for (int k = 0; k < 4; ++k) {
    federation::ShardConfig sc;
    sc.engine.cluster = cluster::Cluster::homogeneous(8, 168.0);
    sc.engine.policy = core::Policy::LibraRisk;
    config.shards.push_back(std::move(sc));
  }
  // RoundRobin ignores load entirely, so under compressed arrivals the
  // routed shard regularly sits above the activation line while a sibling
  // sits below it — exactly the spill lane's trigger.
  config.route = federation::RoutePolicy::RoundRobin;
  config.overload.mode = mode;
  config.overload.activation_load = activation_load;
  return config;
}

TEST(OverloadFederation, SpillLaneConservesJobsAndCounters) {
  const std::vector<workload::Job> jobs = hot_jobs(400, 3);
  federation::Federation fed(
      spill_config(DegradedMode::DowngradeQoS, /*activation_load=*/0.3));
  std::uint64_t spilled_results = 0;
  for (const workload::Job& job : jobs) {
    const federation::RouteResult r = fed.submit(job);
    if (r.spilled) {
      ++spilled_results;
      EXPECT_NE(r.shard, r.routed_shard);
    } else {
      EXPECT_EQ(r.shard, r.routed_shard);
    }
  }
  fed.finish();
  const federation::FederationSummary fs = fed.summary();
  EXPECT_GT(fs.spilled, 0u) << "spill lane never fired; test is vacuous";
  EXPECT_EQ(fs.spilled, spilled_results);
  std::uint64_t in = 0, out = 0, routed = 0;
  for (const federation::ShardSummary& ss : fs.shards) {
    in += ss.spilled_in;
    out += ss.spilled_out;
    routed += ss.routed;
  }
  EXPECT_EQ(fs.spilled, in);   // every spill landed somewhere
  EXPECT_EQ(fs.spilled, out);  // ... and left somewhere
  EXPECT_EQ(routed, jobs.size());  // spilled_in attributes within routed
}

TEST(OverloadFederation, SpillLaneOffUnderHardReject) {
  const std::vector<workload::Job> jobs = hot_jobs(200, 3);
  federation::Federation fed(
      spill_config(DegradedMode::HardReject, /*activation_load=*/0.3));
  for (const workload::Job& job : jobs) {
    const federation::RouteResult r = fed.submit(job);
    EXPECT_FALSE(r.spilled);
    EXPECT_EQ(r.shard, r.routed_shard);
  }
  fed.finish();
  const federation::FederationSummary fs = fed.summary();
  EXPECT_EQ(fs.spilled, 0u);
  for (const federation::ShardSummary& ss : fs.shards) {
    EXPECT_EQ(ss.spilled_in, 0u);
    EXPECT_EQ(ss.spilled_out, 0u);
  }
}

TEST(OverloadFederation, SpillAssignmentsAreDeterministic) {
  const std::vector<workload::Job> jobs = hot_jobs(200, 2);
  std::vector<int> first, second;
  for (std::vector<int>* run : {&first, &second}) {
    federation::Federation fed(
        spill_config(DegradedMode::DowngradeQoS, /*activation_load=*/0.3));
    for (const workload::Job& job : jobs)
      run->push_back(fed.submit(job).shard);
    fed.finish();
  }
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace librisk
