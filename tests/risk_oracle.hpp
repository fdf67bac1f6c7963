// Test-only scalar risk oracle: the seed implementation of Algorithm 1's
// per-node assessment, kept out of the library like the brute-force
// integrator in test_reference_executor.cpp. It computes Eq. 1-6 the
// straightforward way — one allocating pass per quantity, finish times from
// a separate prediction pass, mean and σ through support/stats — so the
// randomized differentials in test_risk and test_risk_batch can hold the
// fused scalar and batched kernels to it bit for bit.
#pragma once

#include <span>

#include "core/risk.hpp"

namespace librisk::core {

[[nodiscard]] RiskAssessment assess_node_reference(
    std::span<const RiskJobInput> jobs, const RiskConfig& config,
    double speed_factor = 1.0, double available_capacity = 1.0);

}  // namespace librisk::core
