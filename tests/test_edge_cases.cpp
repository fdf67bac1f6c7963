// Edge-case sweep across modules: inputs real deployments produce that the
// per-module suites do not otherwise reach.
#include <gtest/gtest.h>

#include <sstream>

#include "core/factory.hpp"
#include "core/libra.hpp"
#include "core/risk.hpp"
#include "core/spaceshared.hpp"
#include "cluster/timeshared.hpp"
#include "cluster/spaceshared.hpp"
#include "exp/scenario.hpp"
#include "helpers.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/predictor.hpp"
#include "workload/swf.hpp"
#include "workload/workload_stats.hpp"

namespace librisk {
namespace {

using librisk::testing::JobBuilder;
using librisk::testing::make_job;

// ---------------------------------------------------------------------------
// SWF parser robustness: garbage lines must throw ParseError, never crash or
// silently misparse.
// ---------------------------------------------------------------------------

TEST(SwfRobustness, RandomGarbageNeverCrashes) {
  rng::Stream stream(91);
  const std::string alphabet = "0123456789 -.;ab\tXY\"\\";
  for (int trial = 0; trial < 300; ++trial) {
    std::string line;
    const int len = static_cast<int>(stream.uniform_int(0, 80));
    for (int i = 0; i < len; ++i)
      line.push_back(alphabet[stream.uniform_int(0, alphabet.size() - 1)]);
    line.push_back('\n');
    std::istringstream in(line);
    try {
      const auto jobs = workload::swf::read(in);
      for (const auto& j : jobs) j.validate();  // anything parsed is valid
    } catch (const workload::swf::ParseError&) {
      // fine: rejected with a diagnostic
    }
  }
}

TEST(SwfRobustness, DeadlineNoteForUnknownJobIgnored) {
  std::istringstream in(
      ";librisk-deadline: 999 1234 high\n"
      "1 0 0 60 1 -1 -1 1 60 -1 1 0 0 -1 0 -1 -1 -1\n");
  const auto jobs = workload::swf::read(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].deadline, 0.0);  // note referenced a missing job
}

TEST(SwfRobustness, MalformedDeadlineNoteIgnored) {
  std::istringstream in(
      ";librisk-deadline: not-a-number\n"
      "1 0 0 60 1 -1 -1 1 60 -1 1 0 0 -1 0 -1 -1 -1\n");
  EXPECT_EQ(workload::swf::read(in).size(), 1u);
}

TEST(SwfRobustness, UsedProcsFallbackWhenRequestMissing) {
  // Requested processors -1, used processors 8: the parser falls back.
  std::istringstream in("1 0 0 60 8 -1 -1 -1 60 -1 1 0 0 -1 0 -1 -1 -1\n");
  const auto jobs = workload::swf::read(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].num_procs, 8);
}

// ---------------------------------------------------------------------------
// Job validation rejects NaN smuggled through arithmetic.
// ---------------------------------------------------------------------------

TEST(JobValidation, NanFieldsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  workload::Job j = make_job(1, 0.0, 10.0, 20.0);
  j.submit_time = nan;
  EXPECT_THROW(j.validate(), CheckError);
  j = make_job(1, 0.0, 10.0, 20.0);
  j.deadline = nan;
  EXPECT_THROW(j.validate(), CheckError);
  j = make_job(1, 0.0, 10.0, 20.0);
  j.actual_runtime = nan;
  EXPECT_THROW(j.validate(), CheckError);
}

// ---------------------------------------------------------------------------
// Factory plumbing not covered elsewhere.
// ---------------------------------------------------------------------------

TEST(FactoryEdge, QopsSlackFactorPlumbs) {
  sim::Simulator simulator;
  const auto cluster = cluster::Cluster::homogeneous(2, 1.0);
  metrics::Collector collector;
  core::PolicyOptions options;
  options.qops_slack_factor = 1.75;
  const auto stack =
      core::make_scheduler(core::Policy::Qops, simulator, cluster, collector, options);
  const auto& scheduler =
      dynamic_cast<core::SpaceSharedScheduler&>(stack->scheduler());
  EXPECT_EQ(scheduler.config().qops_slack, 1.75);
}

TEST(FactoryEdge, EdfBackfillNameRoundTrips) {
  EXPECT_EQ(core::parse_policy("EDF-BF"), core::Policy::EdfBackfill);
  EXPECT_EQ(core::to_string(core::Policy::EdfBackfill), "EDF-BF");
}

// ---------------------------------------------------------------------------
// Scheduler corner cases.
// ---------------------------------------------------------------------------

TEST(SchedulerEdge, SingleNodeClusterWorksForEveryPolicy) {
  for (const core::Policy policy : core::all_policies()) {
    exp::Scenario s;
    s.workload.trace.job_count = 60;
    s.nodes = 1;
    s.policy = policy;
    // Single-proc jobs only: force max_procs to 1 so nothing is oversized.
    s.workload.trace.max_procs = 1;
    s.workload.trace.power_weights = {1.0};
    const exp::ScenarioResult r = exp::run_scenario(s);
    EXPECT_EQ(r.summary.submitted, 60u) << core::to_string(policy);
  }
}

TEST(SchedulerEdge, SimultaneousArrivalsResolveDeterministically) {
  // 20 jobs all submitted at t=0: arrival order falls back to schedule
  // order, which run_trace fixes as trace order.
  std::vector<workload::Job> jobs;
  for (int i = 0; i < 20; ++i)
    jobs.push_back(JobBuilder(i + 1).submit(0.0).set_runtime(30.0).deadline(5000.0).build());
  for (const core::Policy policy : {core::Policy::Edf, core::Policy::Libra}) {
    sim::Simulator simulator;
    const auto cluster = cluster::Cluster::homogeneous(4, 1.0);
    metrics::Collector collector;
    const auto stack = core::make_scheduler(policy, simulator, cluster, collector);
    core::run_trace(simulator, stack->scheduler(), collector, jobs);
    EXPECT_TRUE(collector.all_resolved()) << core::to_string(policy);
  }
}

TEST(SchedulerEdge, ZeroLoadAndFullAcceptance) {
  // One tiny job on a big cluster: everything fulfils, utilization tiny.
  exp::Scenario s;
  s.workload.trace.job_count = 1;
  s.nodes = 128;
  s.policy = core::Policy::LibraRisk;
  const exp::ScenarioResult r = exp::run_scenario(s);
  EXPECT_EQ(r.summary.fulfilled, 1u);
  EXPECT_DOUBLE_EQ(r.summary.fulfilled_pct, 100.0);
}

// ---------------------------------------------------------------------------
// Risk-rule and estimate-kind interactions not covered elsewhere.
// ---------------------------------------------------------------------------

TEST(RiskRuleEdge, SigmaThresholdAdmitsMildDispersion) {
  core::RiskConfig config;
  const std::vector<core::RiskJobInput> jobs{
      {200.0, 100.0, 0.5},                   // late resident: dd = 4
      {50.0, 100.0, 0.5},                    // on time: dd = 1
  };
  const auto a = core::assess_node(jobs, config, 1.0, 0.0);
  ASSERT_DOUBLE_EQ(a.sigma, 1.5);
  EXPECT_FALSE(a.zero_risk(config));  // strict rule
  config.sigma_threshold = 2.0;
  EXPECT_TRUE(a.zero_risk(config));   // relaxed rule admits sigma 1.5
  config.sigma_threshold = 1.0;
  EXPECT_FALSE(a.zero_risk(config));
}

TEST(EdfEdge, FeasibilityUsesFastestNodeOnMixedClusters) {
  // est 150 / deadline 100 is infeasible at speed 1 but feasible at 2.
  std::vector<cluster::NodeSpec> specs{{0, 168.0}, {1, 336.0}};
  const cluster::Cluster mixed(std::move(specs), 168.0);
  sim::Simulator simulator;
  metrics::Collector collector;
  cluster::SpaceSharedExecutor executor(simulator, mixed);
  core::SpaceSharedScheduler scheduler(simulator, executor, collector, {}, "EDF");
  const workload::Job job =
      JobBuilder(1).estimate(150.0).set_runtime(150.0).deadline(100.0).build();
  collector.record_submitted(job, 0.0);
  scheduler.on_job_submitted(job);
  // EDF's admission is optimistic (fastest node), so the job is accepted;
  // whether it lands on the fast node is up to take_free_nodes.
  EXPECT_TRUE(executor.is_running(1));
}

TEST(CollectorEdge, WindowedSummaryCountsKilledJobs) {
  const workload::Job early = make_job(1, 10.0, 50.0, 500.0);
  const workload::Job inside = make_job(2, 100.0, 50.0, 500.0);
  metrics::Collector c;
  for (const auto* j : {&early, &inside}) c.record_submitted(*j, j->submit_time);
  c.record_started(early, 10.0, 50.0);
  c.record_killed(early, 40.0);
  c.record_started(inside, 100.0, 50.0);
  c.record_killed(inside, 130.0);
  const auto windowed =
      c.summarize(metrics::Collector::MeasurementWindow{.begin = 50.0, .end = 1e9});
  EXPECT_EQ(windowed.submitted, 1u);
  EXPECT_EQ(windowed.killed, 1u);
}

TEST(PredictorEdge, ObservationRatioClamped) {
  // A pathological 100x overrun must not poison the EMA beyond the clamp.
  workload::PredictorConfig config;
  config.safety_margin = 1.0;
  config.min_user_history = 1;
  workload::OnlinePredictor p(config);
  workload::Job j = make_job(1, 0.0, 1000.0, 10000.0);
  j.user_id = 1;
  j.user_estimate = 10.0;  // ratio actual/estimate = 100, clamped to 4
  p.observe(j);
  workload::Job next = make_job(2, 0.0, 1000.0, 10000.0);
  next.user_id = 1;
  // Clamped ratio 4 then clamped correction factor at 1.0 (never inflate).
  EXPECT_DOUBLE_EQ(p.correction_factor(next), 1.0);
}

TEST(SimulatorEdge, ControlPriorityRunsLast) {
  sim::Simulator simulator;
  std::vector<int> order;
  (void)simulator.at(1.0, sim::EventPriority::Control, [&] { order.push_back(3); });
  (void)simulator.at(1.0, sim::EventPriority::Arrival, [&] { order.push_back(2); });
  (void)simulator.at(1.0, sim::EventPriority::Completion, [&] { order.push_back(1); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Workload stats degenerate input.
// ---------------------------------------------------------------------------

TEST(WorkloadStatsEdge, SingleJobHasNoInterarrival) {
  const std::vector<workload::Job> jobs{make_job(1, 5.0, 10.0, 20.0)};
  const auto stats = workload::compute_stats(jobs);
  EXPECT_EQ(stats.interarrival.count, 0u);
  EXPECT_DOUBLE_EQ(stats.span, 0.0);
  EXPECT_DOUBLE_EQ(stats.offered_utilization(16), 0.0);  // zero span
}

}  // namespace
}  // namespace librisk
