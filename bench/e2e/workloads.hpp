// The four workloads, one entry point per family.
#pragma once

#include <string>

#include "common.hpp"

namespace librisk::e2e {

/// Every workload, in --all order.
inline constexpr const char* kWorkloads[] = {"paper-128", "libra-1024",
                                             "risk-heavy-1024", "gateway-open"};

/// Untraced repetitions a run makes at least, whatever the time budget.
inline constexpr int kMinReps = 3;

[[nodiscard]] bool is_replay_workload(const std::string& name);
/// paper-128, libra-1024, risk-heavy-1024 (replay.cpp).
[[nodiscard]] RunResult run_replay_workload(const Options& opts);
/// gateway-open (gateway_open.cpp).
[[nodiscard]] RunResult run_gateway_open(const Options& opts);

}  // namespace librisk::e2e
