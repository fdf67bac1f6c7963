#include "core/factory.hpp"

#include <stdexcept>

#include "cluster/timeshared.hpp"
#include "core/spaceshared.hpp"

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

class SpaceSharedStack final : public SchedulerStack {
 public:
  SpaceSharedStack(sim::Simulator& simulator, const cluster::Cluster& cluster,
                   Collector& collector, DispatchConfig config, std::string name,
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
    return scheduler_.admission_stats();
  }

 private:
  cluster::SpaceSharedExecutor executor_;
  SpaceSharedScheduler scheduler_;
};

LibraConfig libra_family_config(Policy policy, const PolicyOptions& options) {
  LibraConfig config = policy == Policy::LibraRisk ? LibraConfig::libra_risk()
                                                   : LibraConfig::libra();
  // Carry over the cross-cutting risk knobs without letting callers
  // silently flip the policy-defining fields. The scheduler replaces the
  // deadline clamp with its executor's (options.share_model's).
  config.risk = options.risk;
  if (options.selection_override) config.selection = *options.selection_override;
  return config;
}

/// The dispatch dials per space-shared policy (the table in
/// core/spaceshared.hpp).
DispatchConfig dispatch_config(Policy policy, const PolicyOptions& options) {
  DispatchConfig config;
  if (policy == Policy::Fcfs || policy == Policy::Easy)
    config.order = QueueOrder::Arrival;
  config.deadline_test = policy == Policy::Edf || policy == Policy::EdfBackfill;
  config.backfilling = policy == Policy::EdfBackfill || policy == Policy::Easy;
  if (policy == Policy::Qops) config.qops_slack = options.qops_slack_factor;
  config.overload = options.overload;  // acts only with the deadline test
  return config;
}

}  // namespace

std::unique_ptr<SchedulerStack> make_scheduler(Policy policy,
                                               sim::Simulator& simulator,
                                               const cluster::Cluster& cluster,
                                               Collector& collector,
                                               const PolicyOptions& options) {
  const std::string name(to_string(policy));
  // A nonsensical overload config fails construction for every policy, not
  // just the two that consult it.
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
    case Policy::EdfNoAC:
    case Policy::EdfBackfill:
    case Policy::Fcfs:
    case Policy::Easy:
    case Policy::Qops:
      return std::make_unique<SpaceSharedStack>(
          simulator, cluster, collector, dispatch_config(policy, options), name,
          space_config, options.hooks);
  }
  throw std::invalid_argument("unhandled policy");
}

}  // namespace librisk::core
