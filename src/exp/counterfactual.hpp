// Counterfactual sigma-threshold sweeps from recorded admission margins
// (docs/OBSERVABILITY.md "Counterfactual sweeps", EXPERIMENTS.md).
//
// The paper's risk knob (Fig. 6) is the sigma threshold of the zero-risk
// test. Sweeping it naively costs one full simulation per probed value.
// But the zero-risk test `sigma <= threshold + tolerance` (tolerance =
// RiskConfig::kTolerance) is monotone in sigma, and a run whose trace feeds an obs::ExplainRecorder knows the
// extremes of every sigma it tested (SigmaExtremes): the largest sigma that
// passed and the smallest that failed. For any probe threshold T' where
//
//   pass_max <= T' + tolerance   and   !(fail_min <= T' + tolerance)
//
// — evaluated with the engine's own floating-point expressions — every
// per-node verdict is provably unchanged, hence the whole deterministic
// decision trajectory and every summary metric are *identical*. Probes
// inside a certified interval reuse the recorded run's summary; probes
// outside it trigger one fresh run, whose own extremes certify a new
// interval. The sweep therefore costs one simulation per decision-regime
// segment rather than one per probe, and the reuse is exact, not
// approximate — tests/test_counterfactual.cpp checks every point against an
// independent rerun.
//
// Scope: the certification argument is specific to LibraRisk, whose test
// σ alone decides. Other policies have threshold-independent failure modes
// the extremes cannot see; sweep_sigma_thresholds() refuses them.
#pragma once

#include <vector>

#include "exp/scenario.hpp"
#include "obs/explain.hpp"

namespace librisk::exp {

/// One probed threshold. `replayed` says whether this point cost a fresh
/// simulation or was certified identical to an earlier one.
struct CounterfactualPoint {
  double threshold = 0.0;
  bool replayed = false;
  metrics::RunSummary summary;
  /// The sigma extremes of the run that produced `summary` (its certified
  /// stability evidence).
  obs::SigmaExtremes extremes;
};

struct CounterfactualSweep {
  /// One per probe, in the caller's order.
  std::vector<CounterfactualPoint> points;
  /// Simulations actually run (1 <= replays <= points.size()).
  std::uint64_t replays = 0;
};

/// Runs the scenario with `recorder` attached as the sink of a
/// trace::Recorder in Hooks::trace (on a copy — the caller's scenario is
/// untouched, and must not set hooks.trace itself: CheckError). The
/// recorder's extremes are complete for the run; its retained decisions
/// follow its own config.
[[nodiscard]] ScenarioResult run_with_margins(Scenario scenario,
                                              obs::ExplainRecorder& recorder);

/// Fulfilled/summary vs sigma threshold, reusing certified-identical runs
/// (see header comment). Requires policy == LibraRisk; throws otherwise.
[[nodiscard]] CounterfactualSweep sweep_sigma_thresholds(
    const Scenario& base, const std::vector<double>& thresholds);

}  // namespace librisk::exp
