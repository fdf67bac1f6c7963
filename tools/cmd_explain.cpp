#include <ostream>

#include "obs/explain.hpp"
#include "support/table.hpp"
#include "tools/common.hpp"
#include "trace/recorder.hpp"

namespace librisk::tool {

/// `librisk-sim explain`: run a scenario with an obs::ExplainRecorder as its
/// trace sink and print the margin record of every retained decision — which
/// nodes the scan touched, the signed headroom of each admission test, and
/// for rejections the smallest improvement that would have flipped the
/// verdict. Attaching the recorder never changes a decision (it forces
/// exact sigmas, like tracing), so what prints here is what the plain run
/// decided.
int cmd_explain(const std::vector<std::string>& args, std::ostream& out) {
  cli::Parser parser("librisk-sim explain",
                     "Run a scenario, explain its admission decisions");
  ScenarioFlags f = add_scenario_flags(parser);
  auto& policy_opt = parser.add<std::string>("policy", "scheduling policy", "LibraRisk");
  auto& job_opt = parser.add<int>(
      "job", "explain only this job id (-1 = every retained decision)", -1);
  auto& last_opt = parser.add<int>(
      "last", "retain the last N decisions (ring capacity)", 16);
  auto& rejections_opt = parser.add<bool>(
      "rejections-only", "retain only rejected decisions", false);
  auto& no_nodes_opt = parser.add<bool>(
      "no-nodes", "omit the per-node margin tables (summary lines only)", false);
  parser.parse(args);
  if (last_opt.value < 0) throw cli::ParseError("--last must be >= 0");

  const json::Value cfg = load_config(f);
  exp::Scenario scenario = scenario_from_flags(f, cfg);
  scenario.policy = core::parse_policy(
      policy_opt.set ? policy_opt.value : cfg.string_or("policy", policy_opt.value));
  const auto jobs = workload_from_flags(f, cfg, scenario);

  obs::ExplainConfig explain_config;
  explain_config.capacity = static_cast<std::size_t>(last_opt.value);
  explain_config.only_job = job_opt.value;
  explain_config.only_rejections = rejections_opt.value;
  explain_config.keep_nodes = !no_nodes_opt.value;
  obs::ExplainRecorder recorder(explain_config);
  trace::Recorder tracer(recorder);
  scenario.options.hooks.trace = &tracer;

  const exp::ScenarioResult r = exp::run_jobs(scenario, jobs);

  if (recorder.decisions().empty()) {
    out << "no decisions retained";
    if (job_opt.value >= 0) out << " for job " << job_opt.value;
    if (rejections_opt.value) out << " (rejections only)";
    out << " — " << recorder.recorded() << " offered\n";
  }
  for (const obs::DecisionExplain& d : recorder.decisions())
    out << obs::describe(d) << '\n';

  const obs::SigmaExtremes& ext = recorder.sigma_extremes();
  out << "retained " << recorder.decisions().size() << " of "
      << recorder.recorded() << " decisions (" << recorder.dropped()
      << " dropped by capacity/filters); run: " << r.summary.accepted
      << " accepted, "
      << r.summary.rejected_at_submit + r.summary.rejected_at_dispatch
      << " rejected\n";
  if (ext.passes + ext.fails > 0) {
    out << "sigma extremes: " << ext.passes << " passes (max sigma "
        << table::num(ext.pass_max, 4) << "), " << ext.fails
        << " fails (min sigma ";
    if (ext.fails > 0)
      out << table::num(ext.fail_min, 4);
    else
      out << "n/a";
    out << ") — certifies the threshold interval on which every verdict "
           "is invariant\n";
  }
  return 0;
}

}  // namespace librisk::tool
