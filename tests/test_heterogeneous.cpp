// End-to-end behaviour on heterogeneous clusters (mixed SPEC ratings) —
// the paper's share formula explicitly translates estimates "to the
// equivalent value across heterogeneous nodes", so every policy must stay
// correct when node speeds differ.
#include <gtest/gtest.h>

#include "cluster/spaceshared.hpp"
#include "cluster/timeshared.hpp"
#include "core/factory.hpp"
#include "core/libra.hpp"
#include "core/risk.hpp"
#include "core/scheduler.hpp"
#include "core/spaceshared.hpp"
#include "helpers.hpp"
#include "support/rng.hpp"

namespace librisk {
namespace {

using librisk::testing::JobBuilder;
using workload::Job;

// Half the nodes run at the reference rating, half at double speed.
cluster::Cluster mixed_cluster(int nodes) {
  std::vector<cluster::NodeSpec> specs;
  for (int i = 0; i < nodes; ++i)
    specs.push_back({i, i % 2 == 0 ? 168.0 : 336.0});
  return cluster::Cluster(std::move(specs), 168.0);
}

std::vector<Job> random_trace(std::uint64_t seed, int count) {
  rng::Stream stream(seed);
  std::vector<Job> jobs;
  jobs.reserve(count);
  for (int i = 0; i < count; ++i) {
    const double runtime = stream.uniform(20.0, 400.0);
    jobs.push_back(JobBuilder(i + 1)
                       .submit(static_cast<double>(i) * stream.uniform(5.0, 60.0))
                       .estimate(runtime * stream.uniform(0.8, 3.0))
                       .set_runtime(runtime)
                       .deadline(runtime * stream.uniform(1.5, 8.0))
                       .procs(static_cast<int>(stream.uniform_int(1, 3)))
                       .build());
  }
  workload::sort_by_submit(jobs);
  // Re-key ids to match sorted order expectations of helpers.
  return jobs;
}

class HeterogeneousCluster : public ::testing::TestWithParam<core::Policy> {};

TEST_P(HeterogeneousCluster, EveryPolicyRunsCleanly) {
  const cluster::Cluster cluster = mixed_cluster(6);
  const auto jobs = random_trace(5, 60);
  sim::Simulator simulator;
  metrics::Collector collector;
  const auto stack =
      core::make_scheduler(GetParam(), simulator, cluster, collector);
  core::run_trace(simulator, stack->scheduler(), collector, jobs);
  EXPECT_TRUE(collector.all_resolved());
  const auto summary = collector.summarize();
  EXPECT_EQ(summary.submitted, jobs.size());
  if (summary.fulfilled > 0) {
    EXPECT_GE(summary.avg_slowdown_fulfilled, 1.0 - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, HeterogeneousCluster,
                         ::testing::ValuesIn(core::all_policies()),
                         [](const ::testing::TestParamInfo<core::Policy>& param_info) {
                           std::string name(core::to_string(param_info.param));
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(HeterogeneousClusterDetail, FastNodesFinishJobsSooner) {
  // A dedicated job on a double-speed node halves its runtime; the
  // collector's min_runtime must account for it, keeping slowdown >= 1.
  const cluster::Cluster cluster = mixed_cluster(2);
  sim::Simulator simulator;
  metrics::Collector collector;
  cluster::SpaceSharedExecutor executor(simulator, cluster);
  core::SpaceSharedScheduler scheduler(simulator, executor, collector, {}, "EDF");

  // Two identical jobs; EDF assigns node 0 (rating 168) then node 1 (336).
  const Job a = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  const Job b = JobBuilder(2).set_runtime(100.0).deadline(400.0).build();
  std::vector<Job> jobs{a, b};
  core::run_trace(simulator, scheduler, collector, jobs);
  EXPECT_NEAR(collector.record(1).finish_time, 100.0, 1e-9);
  EXPECT_NEAR(collector.record(2).finish_time, 50.0, 1e-9);
  EXPECT_NEAR(collector.record(2).slowdown(), 1.0, 1e-9);
}

TEST(HeterogeneousClusterDetail, LibraSharesScaleWithNodeSpeed) {
  // A job needing 60% of a reference node needs only 30% of a double-speed
  // node, so two such jobs fit together there but not on the slow node.
  const cluster::Cluster cluster = mixed_cluster(2);
  sim::Simulator simulator;
  metrics::Collector collector;
  cluster::TimeSharedExecutor executor(simulator, cluster);
  core::LibraScheduler scheduler(simulator, executor, collector,
                                 core::LibraConfig::libra(), "Libra");

  const Job big1 = JobBuilder(1).set_runtime(60.0).deadline(100.0).build();
  const Job big2 = JobBuilder(2).set_runtime(60.0).deadline(100.0).build();
  const Job big3 = JobBuilder(3).set_runtime(60.0).deadline(100.0).build();
  for (const Job* j : {&big1, &big2, &big3}) {
    collector.record_submitted(*j, 0.0);
    scheduler.on_job_submitted(*j);
  }
  // Node 1 (share 0.3 each) accommodates two; node 0 (share 0.6) only one.
  EXPECT_EQ(executor.node_jobs(1).size(), 2u);
  EXPECT_EQ(executor.node_jobs(0).size(), 1u);
  simulator.run();
  EXPECT_EQ(collector.summarize().fulfilled, 3u);
}

TEST(HeterogeneousClusterDetail, RiskAssessmentUsesNodeSpeed) {
  // The same job set is zero-risk on a fast node and risky on a slow one.
  core::RiskConfig config;
  const std::vector<core::RiskJobInput> inputs{
      {150.0, 100.0, core::RiskJobInput::kNewJob}};  // share 1.5 at speed 1
  const auto slow = core::assess_node(inputs, config, 1.0, 1.0);
  const auto fast = core::assess_node(inputs, config, 2.0, 1.0);
  EXPECT_GT(slow.predicted_delay[0], 0.0);
  EXPECT_DOUBLE_EQ(fast.predicted_delay[0], 0.0);  // 150 work in 75 s < 100 s
}

}  // namespace
}  // namespace librisk
