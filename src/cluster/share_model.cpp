#include "cluster/share_model.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace librisk::cluster {

void ShareModelConfig::validate() const {
  LIBRISK_CHECK(deadline_clamp > 0.0, "deadline_clamp must be positive");
  LIBRISK_CHECK(overrun_bump_fraction > 0.0 && overrun_bump_fraction <= 1.0,
                "overrun_bump_fraction must be in (0, 1]");
}

double required_share(double remaining_work, double remaining_deadline,
                      double deadline_clamp, double speed) noexcept {
  if (remaining_work <= 0.0) return 0.0;
  const double horizon = std::max(remaining_deadline, deadline_clamp);
  return remaining_work / (horizon * speed);
}

double total_share(std::span<const double> shares) noexcept {
  double sum = 0.0;
  for (const double s : shares) sum += s;
  return sum;
}

std::vector<double> allocate_capacity(std::span<const double> demands,
                                      bool work_conserving) noexcept {
  std::vector<double> out(demands.size(), 0.0);
  const double sum = total_share(demands);
  if (sum <= 0.0) return out;
  const double denom = work_conserving ? sum : std::max(sum, 1.0);
  for (std::size_t i = 0; i < demands.size(); ++i) out[i] = demands[i] / denom;
  return out;
}

double allocate_one(double demand, double other_total, bool work_conserving) noexcept {
  if (demand <= 0.0) return 0.0;
  return demand / allocation_divisor(demand, other_total, work_conserving);
}

}  // namespace librisk::cluster
