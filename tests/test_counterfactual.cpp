// Counterfactual sigma-threshold sweeps: every probed point must match an
// independent full rerun *exactly* — the stability-interval certification
// is a proof, not a heuristic, and this is the test that keeps it honest.
#include <gtest/gtest.h>

#include <vector>

#include "exp/counterfactual.hpp"
#include "support/check.hpp"

namespace librisk {
namespace {

exp::Scenario base_scenario(std::uint64_t seed = 7) {
  exp::Scenario s;
  s.workload.trace.job_count = 200;
  s.workload.inaccuracy_pct = 100.0;
  s.nodes = 32;
  s.policy = core::Policy::LibraRisk;
  s.seed = seed;
  return s;
}

void expect_same_summary(const metrics::RunSummary& a,
                         const metrics::RunSummary& b, double threshold) {
  EXPECT_EQ(a.accepted, b.accepted) << "threshold " << threshold;
  EXPECT_EQ(a.rejected_at_submit, b.rejected_at_submit) << "threshold " << threshold;
  EXPECT_EQ(a.fulfilled, b.fulfilled) << "threshold " << threshold;
  EXPECT_EQ(a.completed_late, b.completed_late) << "threshold " << threshold;
  EXPECT_EQ(a.fulfilled_pct, b.fulfilled_pct) << "threshold " << threshold;
  EXPECT_EQ(a.avg_slowdown_fulfilled, b.avg_slowdown_fulfilled)
      << "threshold " << threshold;
  EXPECT_EQ(a.makespan, b.makespan) << "threshold " << threshold;
}

TEST(Counterfactual, SweepMatchesIndependentRerunsExactly) {
  const exp::Scenario base = base_scenario();
  const std::vector<double> thresholds{0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0};
  const exp::CounterfactualSweep sweep =
      exp::sweep_sigma_thresholds(base, thresholds);

  ASSERT_EQ(sweep.points.size(), thresholds.size());
  ASSERT_GE(sweep.replays, 1u);
  ASSERT_LE(sweep.replays, thresholds.size());
  for (const exp::CounterfactualPoint& point : sweep.points) {
    exp::Scenario oracle = base;
    oracle.options.risk.sigma_threshold = point.threshold;
    const metrics::RunSummary truth = exp::run_scenario(oracle).summary;
    expect_same_summary(point.summary, truth, point.threshold);
  }
}

TEST(Counterfactual, CoveredProbesReuseWithoutReplay) {
  const exp::Scenario base = base_scenario();
  // Far above every sigma the workload can produce: the first run's
  // extremes certify the whole upper tail, so the later probes are free.
  const std::vector<double> thresholds{1e6, 2e6, 3e6};
  const exp::CounterfactualSweep sweep =
      exp::sweep_sigma_thresholds(base, thresholds);
  EXPECT_EQ(sweep.replays, 1u);
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_TRUE(sweep.points[0].replayed);
  EXPECT_FALSE(sweep.points[1].replayed);
  EXPECT_FALSE(sweep.points[2].replayed);
  expect_same_summary(sweep.points[1].summary, sweep.points[0].summary, 2e6);

  // A repeated probe is always covered by its own first run.
  const exp::CounterfactualSweep repeat =
      exp::sweep_sigma_thresholds(base, {0.0, 0.0});
  EXPECT_EQ(repeat.replays, 1u);
  EXPECT_FALSE(repeat.points[1].replayed);
}

TEST(Counterfactual, ReplayedFlagIsHonest) {
  // Certified reuses really were certified: the reused point's threshold
  // lies in the covering extremes' interval.
  const exp::Scenario base = base_scenario();
  const std::vector<double> thresholds{0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0};
  const exp::CounterfactualSweep sweep =
      exp::sweep_sigma_thresholds(base, thresholds);
  constexpr double tolerance = core::RiskConfig::kTolerance;
  for (const exp::CounterfactualPoint& point : sweep.points)
    EXPECT_TRUE(point.extremes.covers(point.threshold, tolerance))
        << "threshold " << point.threshold;
}

TEST(Counterfactual, RefusesOutOfScopePolicies) {
  exp::Scenario wrong_policy = base_scenario();
  wrong_policy.policy = core::Policy::Libra;
  EXPECT_THROW((void)exp::sweep_sigma_thresholds(wrong_policy, {0.0}),
               CheckError);
}

TEST(Counterfactual, SigmaExtremesCoverLogic) {
  obs::SigmaExtremes e;
  EXPECT_TRUE(e.covers(0.0, 1e-9));  // nothing recorded covers everything
  e.pass_max = 0.5;
  e.passes = 10;
  e.fail_min = 2.0;
  e.fails = 3;
  EXPECT_TRUE(e.covers(0.5, 1e-9));
  EXPECT_TRUE(e.covers(1.9, 1e-9));
  EXPECT_FALSE(e.covers(0.4, 1e-9));  // a pass would flip
  EXPECT_FALSE(e.covers(2.0, 1e-9));  // a fail would flip
}

}  // namespace
}  // namespace librisk
