#include <fstream>
#include <ostream>

#include "cluster/timeshared.hpp"
#include "core/overload.hpp"
#include "core/scheduler.hpp"
#include "metrics/car.hpp"
#include "metrics/report.hpp"
#include "obs/render.hpp"
#include "obs/telemetry.hpp"
#include "support/table.hpp"
#include "tools/common.hpp"

namespace librisk::tool {

int cmd_run(const std::vector<std::string>& args, std::ostream& out) {
  cli::Parser parser("librisk-sim run", "Run one policy on one workload");
  ScenarioFlags f = add_scenario_flags(parser);
  auto& policy_opt = parser.add<std::string>("policy", "scheduling policy", "LibraRisk");
  auto& gantt_opt = parser.add<bool>("gantt", "print an ASCII Gantt chart", false);
  auto& gantt_width = parser.add<int>("gantt-width", "Gantt chart width", 100);
  auto& car_opt = parser.add<bool>("car", "print Computation-at-Risk tails", false);
  auto& tel_out = parser.add<std::string>(
      "telemetry-out",
      "write telemetry exports (per-series CSV/JSONL, OpenMetrics, profile) "
      "under this directory",
      "");
  auto& tel_period = parser.add<double>(
      "telemetry-period", "sim-seconds between sampler ticks", 600.0);
  auto& profile_opt =
      parser.add<bool>("profile", "print the wall-clock phase profile", false);
  parser.parse(args);

  const json::Value cfg = load_config(f);
  exp::Scenario scenario = scenario_from_flags(f, cfg);
  scenario.policy = core::parse_policy(
      policy_opt.set ? policy_opt.value : cfg.string_or("policy", policy_opt.value));
  const auto jobs = workload_from_flags(f, cfg, scenario);

  // One telemetry hub backs the stats rendering below and the optional
  // exports; periodic sampling only runs when exports were requested (the
  // registry's pull metrics and the profiler cost nothing sim-side).
  obs::TelemetryConfig tel_config;
  if (!tel_out.value.empty()) tel_config.sample_period = tel_period.value;
  obs::Telemetry telemetry(tel_config);
  scenario.options.hooks.telemetry = &telemetry;

  const auto cluster = cluster::Cluster::homogeneous(scenario.nodes, scenario.rating);
  sim::Simulator simulator;
  metrics::Collector collector;
  cluster::TimelineRecorder timeline;
  const auto stack = core::make_scheduler(scenario.policy, simulator, cluster,
                                          collector, scenario.options);
  core::run_trace(simulator, stack->scheduler(), collector, jobs,
                  scenario.options.hooks);

  metrics::RunSummary summary = collector.summarize();
  if (summary.makespan > 0.0) {
    summary.utilization = stack->busy_node_seconds(simulator.now()) /
                          (static_cast<double>(scenario.nodes) * summary.makespan);
  }
  metrics::print_summary(out, std::string(core::to_string(scenario.policy)), summary);

  // Counters render from the telemetry registry — the same source the
  // `metrics` subcommand and the --telemetry-out exports read.
  out << "\nMetrics:\n" << obs::metrics_table(telemetry.registry()).str();
  const core::AdmissionStats adm = stack->admission_stats();
  if (adm.submissions > 0) {
    out << "admission: " << table::num(adm.scans_per_submission())
        << " scans/job, " << table::pct(100.0 * adm.accept_rate())
        << "% accepted\n";
    if (adm.batched_assessments > 0 || adm.nodes_batch_skipped > 0)
      out << "batched risk: " << adm.batched_assessments << " assessments, "
          << adm.nodes_batch_skipped << " bound skips\n";
    if (adm.near_miss_10() > 0) {
      out << "near-miss rejections: " << adm.near_miss_5() << " within 5%, "
          << adm.near_miss_10() << " within 10% of flipping (share "
          << adm.near_miss_share_10 << ", sigma " << adm.near_miss_sigma_10
          << ", deadline " << adm.near_miss_deadline_10 << ")\n";
    }
    if (adm.overload_activations > 0 || adm.degraded_admits > 0)
      out << "overload ("
          << core::to_string(scenario.options.overload.mode) << "): "
          << adm.overload_activations << " activations, "
          << adm.degraded_admits << " degraded admits\n";
  }
  const cluster::KernelStats kern = stack->kernel_stats();
  if (kern.settles > 0)
    out << "kernel: " << table::num(kern.recomputes_per_settle())
        << " recomputes/settle, " << table::num(kern.skip_pct(), 1)
        << "% of resident tasks skipped, " << kern.view_rebuilds
        << " node-view rebuilds\n";

  if (car_opt.value) {
    table::Table t({"measure", "CaR(95%)", "tail mean", "mean", "max"});
    for (const auto measure :
         {metrics::CarMeasure::ResponseTime, metrics::CarMeasure::Slowdown}) {
      const auto report = metrics::computation_at_risk(collector, measure, 95.0);
      const int dec = measure == metrics::CarMeasure::Slowdown ? 2 : 0;
      t.add_row({metrics::to_string(measure), table::num(report.at_risk, dec),
                 table::num(report.tail_mean, dec), table::num(report.mean, dec),
                 table::num(report.max, dec)});
    }
    out << "\nComputation-at-Risk over completed jobs:\n" << t.str();
  }
  if (gantt_opt.value) {
    // Re-run with the recorder attached (recording needs executor access,
    // which the factory hides; the Libra family is the interesting case).
    sim::Simulator sim2;
    metrics::Collector collector2;
    cluster::TimeSharedExecutor executor(sim2, cluster,
                                         scenario.options.share_model);
    executor.set_timeline_recorder(&timeline);
    const bool risk = scenario.policy == core::Policy::LibraRisk;
    core::LibraScheduler scheduler(
        sim2, executor, collector2,
        risk ? core::LibraConfig::libra_risk() : core::LibraConfig::libra(),
        std::string(core::to_string(scenario.policy)));
    core::run_trace(sim2, scheduler, collector2, jobs);
    out << "\n" << timeline.render_gantt(scenario.nodes, gantt_width.value);
  }
  if (profile_opt.value)
    out << "\nPhase profile (wall-clock):\n"
        << telemetry.profiler().report().str();
  if (!tel_out.value.empty()) {
    telemetry.write_dir(tel_out.value);
    out << "telemetry written to " << tel_out.value << " ("
        << telemetry.samples() << " samples)\n";
  }
  return 0;
}

}  // namespace librisk::tool
