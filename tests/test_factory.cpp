#include "core/factory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/scheduler.hpp"
#include "helpers.hpp"
#include "support/rng.hpp"

namespace librisk::core {
namespace {

TEST(PolicyNames, RoundTrip) {
  for (const Policy p : all_policies()) {
    EXPECT_EQ(parse_policy(to_string(p)), p);
  }
  EXPECT_THROW((void)parse_policy("NotAPolicy"), std::invalid_argument);
}

TEST(PolicyNames, PaperPoliciesInPaperOrder) {
  const auto papers = paper_policies();
  ASSERT_EQ(papers.size(), 3u);
  EXPECT_EQ(papers[0], Policy::Edf);
  EXPECT_EQ(papers[1], Policy::Libra);
  EXPECT_EQ(papers[2], Policy::LibraRisk);
}

TEST(MakeScheduler, BuildsEveryPolicy) {
  for (const Policy p : all_policies()) {
    sim::Simulator simulator;
    const auto cluster = cluster::Cluster::homogeneous(4, 1.0);
    metrics::Collector collector;
    const auto stack = make_scheduler(p, simulator, cluster, collector);
    ASSERT_NE(stack, nullptr);
    EXPECT_EQ(stack->scheduler().name(), to_string(p));
    EXPECT_DOUBLE_EQ(stack->busy_node_seconds(0.0), 0.0);
  }
}

TEST(MakeScheduler, EveryPolicyRunsASmallTrace) {
  rng::Stream stream(31);
  std::vector<workload::Job> jobs;
  jobs.reserve(30);
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(librisk::testing::JobBuilder(i + 1)
                       .submit(static_cast<double>(i) * 30.0)
                       .set_runtime(stream.uniform(10.0, 200.0))
                       .deadline(stream.uniform(400.0, 2000.0))
                       .procs(static_cast<int>(stream.uniform_int(1, 3)))
                       .build());
  }
  for (const Policy p : all_policies()) {
    sim::Simulator simulator;
    const auto cluster = cluster::Cluster::homogeneous(4, 1.0);
    metrics::Collector collector;
    const auto stack = make_scheduler(p, simulator, cluster, collector);
    run_trace(simulator, stack->scheduler(), collector, jobs);
    EXPECT_TRUE(collector.all_resolved()) << to_string(p);
    EXPECT_GT(stack->busy_node_seconds(simulator.now()), 0.0) << to_string(p);
  }
}

TEST(MakeScheduler, SelectionOverrideApplies) {
  sim::Simulator simulator;
  const auto cluster = cluster::Cluster::homogeneous(2, 1.0);
  metrics::Collector collector;
  PolicyOptions options;
  options.selection_override = LibraConfig::Selection::WorstFit;
  const auto stack =
      make_scheduler(Policy::Libra, simulator, cluster, collector, options);
  auto& scheduler = dynamic_cast<LibraScheduler&>(stack->scheduler());
  EXPECT_EQ(scheduler.config().selection, LibraConfig::Selection::WorstFit);
  // Policy-defining fields are not overridable through options.
  EXPECT_EQ(scheduler.config().admission, LibraConfig::Admission::TotalShare);
}

TEST(MakeScheduler, RiskKnobsPropagate) {
  sim::Simulator simulator;
  const auto cluster = cluster::Cluster::homogeneous(2, 1.0);
  metrics::Collector collector;
  PolicyOptions options;
  options.share_model.deadline_clamp = 5.0;
  options.risk.prediction = RiskConfig::Prediction::ProcessorSharing;
  const auto stack =
      make_scheduler(Policy::LibraRisk, simulator, cluster, collector, options);
  const auto& scheduler = dynamic_cast<LibraScheduler&>(stack->scheduler());
  EXPECT_DOUBLE_EQ(scheduler.config().risk.deadline_clamp, 5.0);
  EXPECT_EQ(scheduler.config().risk.prediction,
            RiskConfig::Prediction::ProcessorSharing);
}

}  // namespace
}  // namespace librisk::core
