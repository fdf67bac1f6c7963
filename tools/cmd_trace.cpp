#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "obs/explain.hpp"
#include "tools/common.hpp"
#include "trace/diff.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "trace/summary.hpp"

namespace librisk::tool {

namespace {

int cmd_trace_record(const std::vector<std::string>& args, std::ostream& out) {
  cli::Parser parser("librisk-sim trace record",
                     "Run a scenario, writing a decision-audit trace");
  ScenarioFlags f = add_scenario_flags(parser);
  auto& policy_opt = parser.add<std::string>("policy", "scheduling policy", "LibraRisk");
  auto& out_opt = parser.add<std::string>("out", "trace output path", "trace.lrt");
  auto& format_opt = parser.add<std::string>("format", "trace format: lrt | jsonl", "lrt");
  auto& margins_opt = parser.add<bool>(
      "margins",
      "serialise per-decision admission margins (format v2 payload; forces "
      "exact sigmas, decisions unchanged)",
      false);
  parser.parse(args);

  const json::Value cfg = load_config(f);
  exp::Scenario scenario = scenario_from_flags(f, cfg);
  scenario.policy = core::parse_policy(
      policy_opt.set ? policy_opt.value : cfg.string_or("policy", policy_opt.value));
  const auto jobs = workload_from_flags(f, cfg, scenario);

  std::ofstream file(out_opt.value, std::ios::binary);
  if (!file)
    throw cli::ParseError("cannot open trace output file: " + out_opt.value);
  const trace::TraceMeta meta{std::string(core::to_string(scenario.policy)),
                              scenario.seed};
  const trace::SinkOptions sink_options{.margins = margins_opt.value};
  std::unique_ptr<trace::Sink> sink;
  if (format_opt.value == "lrt")
    sink = std::make_unique<trace::BinarySink>(file, meta, sink_options);
  else if (format_opt.value == "jsonl")
    sink = std::make_unique<trace::JsonlSink>(file, meta, sink_options);
  else
    throw cli::ParseError("--format must be 'lrt' or 'jsonl', got '" +
                          format_opt.value + "'");

  trace::Recorder recorder(*sink);
  scenario.options.hooks.trace = &recorder;
  const exp::ScenarioResult r = exp::run_jobs(scenario, jobs);
  sink->close();

  out << "wrote " << format_opt.value << " trace to " << out_opt.value << " ("
      << meta.policy << ", seed " << meta.seed << ", " << jobs.size()
      << " jobs, " << r.summary.accepted << " accepted)\n";
  return 0;
}

int cmd_trace_summary(const std::vector<std::string>& args, std::ostream& out) {
  cli::Parser parser("librisk-sim trace summary",
                     "Event counts + rejection-reason histogram of trace file(s)");
  auto& in_opt =
      parser.add<std::string>("in", "trace file(s), comma-separated", "");
  parser.parse(args);
  if (in_opt.value.empty())
    throw cli::ParseError("trace summary requires --in <file>[,<file>...]");

  std::vector<std::string> paths;
  std::stringstream ss(in_opt.value);
  for (std::string part; std::getline(ss, part, ',');)
    if (!part.empty()) paths.push_back(part);

  std::vector<std::pair<trace::TraceMeta, trace::TraceSummary>> rows;
  rows.reserve(paths.size());
  for (const std::string& path : paths) {
    const trace::TraceData data = trace::read_trace_file(path);
    rows.emplace_back(data.meta, trace::summarize(data.events));
  }
  if (rows.size() == 1) {
    trace::print_summary(out, rows.front().first, rows.front().second);
  } else {
    trace::print_breakdown(out, rows);
  }
  return 0;
}

int cmd_trace_diff(const std::vector<std::string>& args, std::ostream& out) {
  cli::Parser parser("librisk-sim trace diff",
                     "First divergent event between two traces (determinism oracle)");
  auto& a_opt = parser.add<std::string>("a", "first trace file", "");
  auto& b_opt = parser.add<std::string>("b", "second trace file", "");
  parser.parse(args);
  if (a_opt.value.empty() || b_opt.value.empty())
    throw cli::ParseError("trace diff requires --a <file> --b <file>");

  const trace::TraceData a = trace::read_trace_file(a_opt.value);
  const trace::TraceData b = trace::read_trace_file(b_opt.value);
  const trace::Divergence d = trace::first_divergence(a, b);
  out << trace::describe(d, a, b);
  return d.identical() ? 0 : 1;
}

/// Rebuilds one job's DecisionExplain by writing the file's events into an
/// obs::ExplainRecorder — the same fold `librisk-sim explain` runs live, so
/// both print the same record.
int cmd_trace_explain(const std::vector<std::string>& args, std::ostream& out) {
  cli::Parser parser("librisk-sim trace explain",
                     "Reconstruct one job's admission decision from a trace");
  auto& in_opt = parser.add<std::string>("in", "trace file", "");
  auto& job_opt = parser.add<int>("job", "job id to explain", -1);
  parser.parse(args);
  if (in_opt.value.empty())
    throw cli::ParseError("trace explain requires --in <file>");
  if (job_opt.value < 0)
    throw cli::ParseError("trace explain requires --job <id>");
  const auto job_id = static_cast<std::int64_t>(job_opt.value);

  const trace::TraceData data = trace::read_trace_file(in_opt.value);
  obs::ExplainRecorder recorder(
      obs::ExplainConfig{.capacity = 1, .only_job = job_id});
  bool submitted = false;
  for (const trace::Event& e : data.events) {
    submitted |= e.job == job_id && e.kind == trace::EventKind::JobSubmitted;
    recorder.write(e);
  }
  const obs::DecisionExplain* d = recorder.find(job_id);
  if (d == nullptr && !submitted)
    throw cli::ParseError("job " + std::to_string(job_id) +
                          " does not appear in " + in_opt.value);
  if (d == nullptr)
    throw cli::ParseError("job " + std::to_string(job_id) +
                          " was submitted but never decided in " +
                          in_opt.value);
  if (!data.has_margins)
    out << "note: trace was recorded without margins (record with --margins); "
           "margins below are 0\n";
  out << obs::describe(*d);
  return 0;
}

}  // namespace

/// Dispatches `librisk-sim trace <record|summary|diff|explain>`. Exit code 1
/// from `diff` means "traces diverge", not an error.
int cmd_trace(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty())
    throw cli::ParseError(
        "trace requires a subcommand: record | summary | diff | explain");
  const std::string sub = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (sub == "record") return cmd_trace_record(rest, out);
  if (sub == "summary") return cmd_trace_summary(rest, out);
  if (sub == "diff") return cmd_trace_diff(rest, out);
  if (sub == "explain") return cmd_trace_explain(rest, out);
  throw cli::ParseError("unknown trace subcommand '" + sub +
                        "' (expected record | summary | diff | explain)");
}

}  // namespace librisk::tool
