#include "exp/counterfactual.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "trace/recorder.hpp"

namespace librisk::exp {

ScenarioResult run_with_margins(Scenario scenario,
                                obs::ExplainRecorder& recorder) {
  LIBRISK_CHECK(scenario.options.hooks.trace == nullptr,
                "run_with_margins attaches its own trace recorder; the "
                "scenario already sets hooks.trace");
  trace::Recorder tracer(recorder);
  scenario.options.hooks.trace = &tracer;
  return run_scenario(scenario);
}

CounterfactualSweep sweep_sigma_thresholds(
    const Scenario& base, const std::vector<double>& thresholds) {
  LIBRISK_CHECK(base.policy == core::Policy::LibraRisk,
                "the counterfactual sigma sweep needs LibraRisk (the policy "
                "whose admission test the threshold parameterises)");
  constexpr double tolerance = core::RiskConfig::kTolerance;

  // One cached entry per simulation actually run: the extremes certify the
  // threshold interval on which its decisions — hence its summary — are
  // provably those of a fresh run.
  struct Segment {
    obs::SigmaExtremes extremes;
    metrics::RunSummary summary;
  };
  std::vector<Segment> segments;

  CounterfactualSweep sweep;
  sweep.points.reserve(thresholds.size());
  for (const double threshold : thresholds) {
    CounterfactualPoint point;
    point.threshold = threshold;
    const auto covering =
        std::find_if(segments.begin(), segments.end(),
                     [&](const Segment& s) {
                       return s.extremes.covers(threshold, tolerance);
                     });
    if (covering != segments.end()) {
      point.replayed = false;
      point.summary = covering->summary;
      point.extremes = covering->extremes;
    } else {
      Scenario probe = base;
      probe.options.risk.sigma_threshold = threshold;
      // Extremes-only recording: capacity 0 retains no decision bodies, so
      // the sweep's memory cost is O(1) per segment.
      obs::ExplainRecorder recorder(
          obs::ExplainConfig{.capacity = 0, .keep_nodes = false});
      const ScenarioResult result = run_with_margins(probe, recorder);
      point.replayed = true;
      point.summary = result.summary;
      point.extremes = recorder.sigma_extremes();
      segments.push_back(Segment{point.extremes, point.summary});
      ++sweep.replays;
    }
    sweep.points.push_back(point);
  }
  return sweep;
}

}  // namespace librisk::exp
