#include "core/overload.hpp"

#include <stdexcept>
#include <string>

namespace librisk::core {

std::string_view to_string(DegradedMode mode) noexcept {
  switch (mode) {
    case DegradedMode::HardReject: return "hard-reject";
    case DegradedMode::DowngradeQoS: return "downgrade-qos";
  }
  return "?";
}

DegradedMode parse_degraded_mode(std::string_view name) {
  for (const DegradedMode mode : all_degraded_modes())
    if (to_string(mode) == name) return mode;
  throw std::invalid_argument("unknown degraded mode: " + std::string(name) +
                              " (expected hard-reject | downgrade-qos)");
}

std::array<DegradedMode, 2> all_degraded_modes() {
  return {DegradedMode::HardReject, DegradedMode::DowngradeQoS};
}

void OverloadConfig::validate() const {
  if (mode != DegradedMode::HardReject && mode != DegradedMode::DowngradeQoS)
    throw std::invalid_argument("OverloadConfig: unknown mode");
  if (!(activation_load >= 0.0))
    throw std::invalid_argument(
        "OverloadConfig: activation_load must be >= 0");
  if (!(downgrade_factor > 1.0))
    throw std::invalid_argument(
        "OverloadConfig: downgrade_factor must be > 1");
}

OverloadGovernor::OverloadGovernor(OverloadConfig config)
    : config_(config) {
  config_.validate();
}

bool OverloadGovernor::evaluate(sim::SimTime now, const LoadSignal& load) {
  const bool degrade =
      overload_action(config_, load) == OverloadAction::Degrade;
  if (degrade != engaged_) {
    engaged_ = degrade;
    if (degrade) ++activations_;
    // Never reached under HardReject (overload_action returns Proceed), so
    // a HardReject run emits nothing — the byte-identity guarantee.
    if (trace_ != nullptr)
      trace_->mode_transition(now, static_cast<int>(config_.mode), engaged_,
                              load.utilization());
  }
  return engaged_;
}

}  // namespace librisk::core
