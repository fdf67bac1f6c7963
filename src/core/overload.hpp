// Overload modes (docs/OVERLOAD.md).
//
// The paper's admission controls answer pressure by rejecting, and that
// stays the default. One bend measurably beats it: DowngradeQoS at the
// dispatch-time deadline test of EDF and EDF-BF, which re-tests a shortfall
// against deadline x downgrade_factor while the cluster is loaded past
// `activation_load` (EXPERIMENTS.md "Saturation and graceful degradation").
// The federation's spill lane arms under the same mode. Every other policy
// decides under DowngradeQoS exactly as under HardReject.
//
// Determinism lemma (docs/OVERLOAD.md): the load signal is derived only
// from simulator-visible state and `overload_action` is pure, so a degraded
// run is a deterministic function of (workload, seed, config) exactly like
// a HardReject run, and mode transitions are trace events. Under HardReject
// the consult sites reduce to `false` before touching any state, so the
// overload knobs cannot change a default run's trace
// (tests/test_overload.cpp pins both properties).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/types.hpp"
#include "trace/recorder.hpp"

namespace librisk::core {

/// The degraded modes. Values are stable: ModeTransition trace events carry
/// them, so DowngradeQoS keeps 4 and 1-3 stay unused.
enum class DegradedMode : std::uint8_t {
  HardReject = 0,    ///< every overload is a rejection; the paper's behavior
  DowngradeQoS = 4,  ///< under load, re-test shortfalls with a relaxed deadline
};

[[nodiscard]] std::string_view to_string(DegradedMode mode) noexcept;
/// Inverse of to_string; throws std::invalid_argument on unknown names,
/// listing the accepted ones.
[[nodiscard]] DegradedMode parse_degraded_mode(std::string_view name);
[[nodiscard]] std::array<DegradedMode, 2> all_degraded_modes();

/// Tuning knobs: the mode decides WHETHER to degrade (with activation_load),
/// downgrade_factor decides HOW FAR.
struct OverloadConfig {
  DegradedMode mode = DegradedMode::HardReject;
  /// Utilization fraction (LoadSignal::utilization) at or above which the
  /// degraded mode engages. Below it every mode behaves like HardReject.
  double activation_load = 0.85;
  /// DowngradeQoS: deadline multiplier (> 1) for the degraded re-test.
  double downgrade_factor = 1.5;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;
};

/// The load signal the consult site feeds the governor: admitted-but-
/// unfinished demand against total capacity, both in the same units (busy
/// and total processors for EDF). Derived exclusively from
/// simulator-visible state — that is what keeps degraded runs
/// deterministic.
struct LoadSignal {
  double inflight = 0.0;  ///< admitted-but-unfinished demand
  double capacity = 0.0;  ///< total capacity in the same units

  [[nodiscard]] double utilization() const noexcept {
    return capacity > 0.0 ? inflight / capacity : 0.0;
  }
};

/// What the governor tells a consult site to do with the next shortfall.
enum class OverloadAction : std::uint8_t {
  Proceed,  ///< behave exactly like HardReject
  Degrade,  ///< the configured mode is engaged; apply its bend
};

/// The pure activation function: Degrade iff a non-HardReject mode is
/// configured AND the load signal is at/above the activation threshold.
/// No state, no clock, no RNG — the determinism lemma hangs off this.
[[nodiscard]] constexpr OverloadAction overload_action(
    const OverloadConfig& config, const LoadSignal& load) noexcept {
  return (config.mode != DegradedMode::HardReject &&
          load.utilization() >= config.activation_load)
             ? OverloadAction::Degrade
             : OverloadAction::Proceed;
}

/// Stateful wrapper a scheduler owns: evaluates the pure function, counts
/// engagements, and emits ModeTransition trace events on every flip so
/// degraded runs stay replayable. Under HardReject it never engages and
/// never emits — the byte-identity guarantee.
class OverloadGovernor {
 public:
  OverloadGovernor() = default;
  explicit OverloadGovernor(OverloadConfig config);

  /// Borrow the scheduler's recorder (null = no trace; emissions skipped).
  void attach(trace::Recorder* recorder) noexcept { trace_ = recorder; }

  /// Evaluates the mode against `load`, records the transition if the
  /// engaged state flipped, and returns true when the degraded mode is
  /// engaged for this decision.
  bool evaluate(sim::SimTime now, const LoadSignal& load);

  [[nodiscard]] const OverloadConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool engaged() const noexcept { return engaged_; }
  /// Times the governor flipped from normal to degraded.
  [[nodiscard]] std::uint64_t activations() const noexcept {
    return activations_;
  }
  /// Shorthand: true when a non-HardReject mode is configured at all (the
  /// consult sites gate their extra bookkeeping on this so HardReject runs
  /// touch no new state).
  [[nodiscard]] bool enabled() const noexcept {
    return config_.mode != DegradedMode::HardReject;
  }

 private:
  OverloadConfig config_;
  trace::Recorder* trace_ = nullptr;
  bool engaged_ = false;
  std::uint64_t activations_ = 0;
};

}  // namespace librisk::core
