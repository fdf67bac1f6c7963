// Policy registry: builds a scheduler + executor pair by name, owning both.
// This is the top of the core API — examples and the experiment harness go
// through here.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/share_model.hpp"
#include "core/libra.hpp"
#include "core/overload.hpp"
#include "core/scheduler.hpp"

namespace librisk::core {

/// The admission-control policies this library ships.
enum class Policy {
  Edf,        ///< space-shared EDF with relaxed admission control (paper)
  EdfNoAC,    ///< EDF without admission control (paper Section 4 remark)
  Libra,      ///< proportional share + total-share test + best fit (paper)
  LibraRisk,  ///< proportional share + zero-risk test (paper contribution)
  Fcfs,       ///< FCFS without backfilling (extra baseline)
  Easy,       ///< FCFS with EASY backfilling (extra baseline)
  Qops,       ///< QoPS-style feasibility test at submission (related work [6])
  EdfBackfill,///< EDF + EASY-style backfilling (extension baseline)
};

[[nodiscard]] std::string_view to_string(Policy policy) noexcept;
[[nodiscard]] Policy parse_policy(std::string_view name);
/// The three policies the paper's figures compare, in the paper's order.
[[nodiscard]] std::vector<Policy> paper_policies();
[[nodiscard]] std::vector<Policy> all_policies();

/// Knobs that cut across policies.
struct PolicyOptions {
  /// Execution/share model for the time-shared executor (Libra family).
  cluster::ShareModelConfig share_model;
  /// Libra-family overrides; admission/selection/estimate fields are
  /// ignored (set from the policy), the rest apply.
  RiskConfig risk;
  /// Overrides the Libra-family node-selection strategy when set.
  std::optional<LibraConfig::Selection> selection_override;
  /// QoPS slack factor (>= 1; 1 = hard deadlines at admission).
  double qops_slack_factor = 1.0;
  /// Overload mode (core/overload.hpp). The default (HardReject) is the
  /// paper's behavior; DowngradeQoS bends only the dispatch-time deadline
  /// test of EDF and EDF-BF while the configured load threshold is
  /// exceeded. Every other policy decides under it exactly as under
  /// HardReject (docs/OVERLOAD.md, decision table).
  OverloadConfig overload;
  /// Optional observation hooks (decision-audit recorder + live telemetry),
  /// attached as one value to both the scheduler and its executor — the
  /// single wiring point, so a stack can never end up with a recorder on
  /// one component and not the other. Borrowed; must outlive the stack.
  /// Null members (the default) emit nothing and perturb nothing.
  Hooks hooks;
};

/// A ready-to-run scheduling stack: the scheduler plus whichever executor
/// it drives, with lifetimes tied together.
class SchedulerStack {
 public:
  virtual ~SchedulerStack() = default;
  [[nodiscard]] virtual Scheduler& scheduler() noexcept = 0;
  /// Delivered busy node-seconds so far (for utilization accounting).
  [[nodiscard]] virtual double busy_node_seconds(sim::SimTime now) const = 0;
  /// Admission counters (AdmissionStats). Every policy counts submissions,
  /// outcomes and rejection reasons; the node-scan counters stay 0 for the
  /// space-shared family, which has no per-node admission scan.
  [[nodiscard]] virtual AdmissionStats admission_stats() const = 0;
  /// Execution-kernel effort counters; all-zero for policies that do not
  /// drive the time-shared executor (the space-shared family).
  [[nodiscard]] virtual cluster::KernelStats kernel_stats() const { return {}; }
};

[[nodiscard]] std::unique_ptr<SchedulerStack> make_scheduler(
    Policy policy, sim::Simulator& simulator, const cluster::Cluster& cluster,
    Collector& collector, const PolicyOptions& options = {});

}  // namespace librisk::core
