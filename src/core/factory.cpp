#include "core/factory.hpp"

#include <stdexcept>

#include "cluster/spaceshared.hpp"
#include "cluster/timeshared.hpp"
#include "core/edf.hpp"
#include "core/fcfs.hpp"
#include "core/qops.hpp"

namespace librisk::core {

std::string_view to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::Edf: return "EDF";
    case Policy::EdfNoAC: return "EDF-NoAC";
    case Policy::Libra: return "Libra";
    case Policy::LibraRisk: return "LibraRisk";
    case Policy::Fcfs: return "FCFS";
    case Policy::Easy: return "EASY";
    case Policy::Qops: return "QoPS";
    case Policy::EdfBackfill: return "EDF-BF";
  }
  return "?";
}

Policy parse_policy(std::string_view name) {
  for (const Policy p : all_policies())
    if (name == to_string(p)) return p;
  throw std::invalid_argument("unknown policy: " + std::string(name));
}

std::vector<Policy> paper_policies() {
  return {Policy::Edf, Policy::Libra, Policy::LibraRisk};
}

std::vector<Policy> all_policies() {
  return {Policy::Edf,  Policy::EdfNoAC,     Policy::Libra, Policy::LibraRisk,
          Policy::Fcfs, Policy::Easy,        Policy::Qops,
          Policy::EdfBackfill};
}

namespace {

class TimeSharedStack final : public SchedulerStack {
 public:
  TimeSharedStack(sim::Simulator& simulator, const cluster::Cluster& cluster,
                  Collector& collector, LibraConfig config, std::string name,
                  cluster::ShareModelConfig share_model, const Hooks& hooks)
      : executor_(simulator, cluster, share_model),
        scheduler_(simulator, executor_, collector, config, std::move(name)) {
    if (hooks.any()) {
      executor_.attach(hooks);
      scheduler_.attach(hooks);
    }
  }

  Scheduler& scheduler() noexcept override { return scheduler_; }
  double busy_node_seconds(sim::SimTime) const override {
    return executor_.delivered_node_seconds();
  }
  AdmissionStats admission_stats() const override {
    return scheduler_.admission_stats();
  }
  cluster::KernelStats kernel_stats() const override {
    return executor_.kernel_stats();
  }

 private:
  cluster::TimeSharedExecutor executor_;
  LibraScheduler scheduler_;
};

template <typename SchedulerT, typename ConfigT>
class SpaceSharedStack final : public SchedulerStack {
 public:
  SpaceSharedStack(sim::Simulator& simulator, const cluster::Cluster& cluster,
                   Collector& collector, ConfigT config, std::string name,
                   cluster::SpaceSharedConfig executor_config, const Hooks& hooks)
      : executor_(simulator, cluster, executor_config),
        scheduler_(simulator, executor_, collector, config, std::move(name)) {
    if (hooks.any()) {
      executor_.attach(hooks);
      scheduler_.attach(hooks);
    }
  }

  Scheduler& scheduler() noexcept override { return scheduler_; }
  double busy_node_seconds(sim::SimTime now) const override {
    return executor_.busy_node_seconds(now);
  }
  AdmissionStats admission_stats() const override {
    // Schedulers that track the shared stats shape (EDF's dispatch-time
    // admission control) surface it; the rest keep the all-zero default.
    if constexpr (requires { scheduler_.admission_stats(); })
      return scheduler_.admission_stats();
    else
      return {};
  }

 private:
  cluster::SpaceSharedExecutor executor_;
  SchedulerT scheduler_;
};

LibraConfig libra_family_config(Policy policy, const PolicyOptions& options) {
  LibraConfig config = policy == Policy::LibraRisk ? LibraConfig::libra_risk()
                                                   : LibraConfig::libra();
  // Carry over cross-cutting risk knobs without letting callers silently
  // flip the policy-defining fields.
  config.risk.deadline_clamp = options.share_model.deadline_clamp;
  config.risk.prediction = options.risk.prediction;
  config.risk.work_conserving_prediction = options.risk.work_conserving_prediction;
  config.risk.tolerance = options.risk.tolerance;
  config.risk.sigma_threshold = options.risk.sigma_threshold;
  config.risk.rule = options.risk.rule;
  if (options.selection_override) config.selection = *options.selection_override;
  config.overload = options.overload;
  return config;
}

}  // namespace

std::unique_ptr<SchedulerStack> make_scheduler(Policy policy,
                                               sim::Simulator& simulator,
                                               const cluster::Cluster& cluster,
                                               Collector& collector,
                                               const PolicyOptions& options) {
  const std::string name(to_string(policy));
  // The catalog self-audit runs once per stack: a malformed catalog (or a
  // nonsensical config) fails construction instead of misbehaving mid-run.
  audit_catalog();
  options.overload.validate();
  const cluster::SpaceSharedConfig space_config{
      .kill_at_estimate = options.share_model.kill_at_estimate};
  switch (policy) {
    case Policy::Libra:
    case Policy::LibraRisk:
      return std::make_unique<TimeSharedStack>(
          simulator, cluster, collector, libra_family_config(policy, options),
          name, options.share_model, options.hooks);
    case Policy::Edf:
      return std::make_unique<SpaceSharedStack<EdfScheduler, EdfConfig>>(
          simulator, cluster, collector,
          EdfConfig{.admission_control = true, .overload = options.overload},
          name, space_config, options.hooks);
    case Policy::EdfNoAC:
      // No admission control means no rejection site for any mode to bend.
      return std::make_unique<SpaceSharedStack<EdfScheduler, EdfConfig>>(
          simulator, cluster, collector, EdfConfig{.admission_control = false, .overload = {}},
          name, space_config, options.hooks);
    case Policy::EdfBackfill:
      return std::make_unique<SpaceSharedStack<EdfScheduler, EdfConfig>>(
          simulator, cluster, collector,
          EdfConfig{.admission_control = true, .backfilling = true,
                    .overload = options.overload},
          name, space_config, options.hooks);
    case Policy::Fcfs:
      return std::make_unique<SpaceSharedStack<FcfsScheduler, FcfsConfig>>(
          simulator, cluster, collector,
          FcfsConfig{.backfilling = false, .deadline_admission = false}, name,
          space_config, options.hooks);
    case Policy::Easy:
      return std::make_unique<SpaceSharedStack<FcfsScheduler, FcfsConfig>>(
          simulator, cluster, collector,
          FcfsConfig{.backfilling = true, .deadline_admission = false}, name,
          space_config, options.hooks);
    case Policy::Qops:
      return std::make_unique<SpaceSharedStack<QopsScheduler, QopsConfig>>(
          simulator, cluster, collector,
          QopsConfig{.slack_factor = options.qops_slack_factor}, name,
          space_config, options.hooks);
  }
  throw std::invalid_argument("unhandled policy");
}

}  // namespace librisk::core
