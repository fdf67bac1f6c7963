#include "risk_oracle.hpp"

#include <algorithm>
#include <vector>

#include "cluster/share_model.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace librisk::core {
namespace {

// Predicted time-from-now to completion for every job, under the configured
// node execution model.
std::vector<double> predict_finish_offsets(std::span<const RiskJobInput> jobs,
                                           const RiskConfig& config,
                                           double speed_factor,
                                           double available_capacity,
                                           std::span<const double> shares,
                                           double total_share) {
  if (config.prediction == RiskConfig::Prediction::ProcessorSharing) {
    std::vector<double> works;
    works.reserve(jobs.size());
    for (const RiskJobInput& j : jobs) works.push_back(j.remaining_work);
    return processor_sharing_finish_times(works, speed_factor);
  }

  std::vector<double> finish(jobs.size(), 0.0);
  if (config.prediction == RiskConfig::Prediction::CurrentRate) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const RiskJobInput& j = jobs[i];
      if (j.remaining_work <= 0.0) continue;
      double rate;
      if (j.current_rate == RiskJobInput::kNewJob) {
        // Admission candidate: it can claim at most the node's spare
        // capacity, and never needs more than its required share.
        const double alloc =
            std::min(shares[i], std::max(available_capacity, 0.0));
        rate = std::min(alloc, 1.0) * speed_factor;
      } else {
        rate = j.current_rate;
      }
      finish[i] = rate > 0.0 ? j.remaining_work / rate : kStarvedFinish;
      finish[i] = std::min(finish[i], kStarvedFinish);
    }
    return finish;
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].remaining_work <= 0.0) continue;
    const double alloc = cluster::allocate_one(shares[i], total_share - shares[i],
                                               /*work_conserving=*/false);
    // alloc > 0 because remaining_work > 0 forces shares[i] > 0.
    finish[i] = jobs[i].remaining_work / (alloc * speed_factor);
  }
  return finish;
}

}  // namespace

RiskAssessment assess_node_reference(std::span<const RiskJobInput> jobs,
                                     const RiskConfig& config,
                                     double speed_factor,
                                     double available_capacity) {
  LIBRISK_CHECK(speed_factor > 0.0, "speed factor must be positive");
  RiskAssessment out;
  if (jobs.empty()) {
    out.max_deadline_delay = 1.0;  // empty node: ideal by definition
    return out;
  }

  // Eq. 1-2: per-job required shares and the node total.
  std::vector<double> shares;
  shares.reserve(jobs.size());
  for (const RiskJobInput& j : jobs) {
    LIBRISK_CHECK(j.remaining_work >= 0.0, "negative remaining work");
    shares.push_back(cluster::required_share(j.remaining_work, j.remaining_deadline,
                                             config.deadline_clamp, speed_factor));
  }
  out.total_share = cluster::total_share(shares);

  // Algorithm 1, line 4: the delay each job would incur on this node.
  const std::vector<double> finish_offsets = predict_finish_offsets(
      jobs, config, speed_factor, available_capacity, shares, out.total_share);
  out.predicted_delay.reserve(jobs.size());
  out.deadline_delay.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double delay = delay_from_finish_offset(
        jobs[i].remaining_work, jobs[i].remaining_deadline, finish_offsets[i]);
    out.predicted_delay.push_back(delay);
    out.deadline_delay.push_back(deadline_delay_metric(
        delay, jobs[i].remaining_deadline, config.deadline_clamp));
  }

  // Eq. 5-6.
  out.mu = stats::mean(out.deadline_delay);
  out.sigma = stats::stddev_population_eq6(out.deadline_delay);
  out.max_deadline_delay =
      *std::max_element(out.deadline_delay.begin(), out.deadline_delay.end());
  return out;
}

}  // namespace librisk::core
