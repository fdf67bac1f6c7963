#include "tools/common.hpp"

#include <stdexcept>

#include "core/overload.hpp"
#include "workload/lublin.hpp"
#include "workload/predictor.hpp"

namespace librisk::tool {

ScenarioFlags add_scenario_flags(cli::Parser& parser) {
  ScenarioFlags f;
  f.config = &parser.add<std::string>(
      "config", "JSON experiment file; explicit flags override its fields", "");
  f.jobs = &parser.add<int>("jobs", "number of jobs", 3000);
  f.nodes = &parser.add<int>("nodes", "cluster size", 128);
  f.rating = &parser.add<double>("rating", "node SPEC rating", 168.0);
  f.inaccuracy =
      &parser.add<double>("inaccuracy", "estimate inaccuracy % (0-100)", 100.0);
  f.delay_factor = &parser.add<double>("delay-factor", "arrival delay factor", 1.0);
  f.high_urgency = &parser.add<double>("high-urgency", "high-urgency fraction", 0.20);
  f.ratio = &parser.add<double>("ratio", "deadline high:low ratio", 4.0);
  f.seed = &parser.add<std::uint64_t>("seed", "workload seed", 1);
  f.model = &parser.add<std::string>("model", "workload model: sdsc | lublin", "sdsc");
  f.predictor = &parser.add<bool>(
      "predictor", "correct estimates with the online per-user predictor", false);
  f.kill = &parser.add<bool>(
      "kill-at-estimate", "terminate jobs when their estimate elapses", false);
  f.load_scale = &parser.add<double>(
      "load-scale",
      "scale inter-arrival gaps by this factor (< 1 compresses the trace and "
      "raises offered load; applied after workload generation)",
      1.0);
  f.overload_mode = &parser.add<std::string>(
      "overload-mode",
      "overload mode past the load knee: hard-reject | downgrade-qos "
      "(docs/OVERLOAD.md)",
      "hard-reject");
  f.activation_load = &parser.add<double>(
      "activation-load",
      "load-signal utilization at which the overload mode engages", 0.85);
  return f;
}

json::Value load_config(const ScenarioFlags& f) {
  if (f.config->value.empty()) return json::Value(json::Object{});
  return json::parse_file(f.config->value);
}

exp::Scenario scenario_from_flags(const ScenarioFlags& f, const json::Value& cfg) {
  // Precedence: built-in default < config file < explicitly set flag.
  const auto pick_double = [&](const cli::Option<double>* opt, const char* key) {
    return opt->set ? opt->value : cfg.number_or(key, opt->value);
  };
  const auto pick_int = [&](const cli::Option<int>* opt, const char* key) {
    return opt->set ? opt->value : cfg.int_or(key, opt->value);
  };
  exp::Scenario s;
  s.workload.trace.job_count = static_cast<std::size_t>(pick_int(f.jobs, "jobs"));
  s.workload.trace.arrival_delay_factor = pick_double(f.delay_factor, "delay_factor");
  s.workload.inaccuracy_pct = pick_double(f.inaccuracy, "inaccuracy");
  s.workload.deadlines.high_urgency_fraction =
      pick_double(f.high_urgency, "high_urgency");
  s.workload.deadlines.high_low_ratio = pick_double(f.ratio, "ratio");
  s.nodes = pick_int(f.nodes, "nodes");
  s.rating = pick_double(f.rating, "rating");
  s.seed = f.seed->set ? f.seed->value
                       : static_cast<std::uint64_t>(
                             cfg.int_or("seed", static_cast<int>(f.seed->value)));
  s.options.share_model.kill_at_estimate =
      f.kill->set ? f.kill->value : cfg.bool_or("kill_at_estimate", f.kill->value);
  const std::string mode = f.overload_mode->set
                               ? f.overload_mode->value
                               : cfg.string_or("overload_mode",
                                               f.overload_mode->value);
  try {
    s.options.overload.mode = core::parse_degraded_mode(mode);
  } catch (const std::invalid_argument& e) {
    throw cli::ParseError(e.what());
  }
  s.options.overload.activation_load =
      pick_double(f.activation_load, "activation_load");
  s.warmup_fraction = cfg.number_or("warmup_fraction", 0.0);
  s.cooldown_fraction = cfg.number_or("cooldown_fraction", 0.0);
  return s;
}

std::vector<workload::Job> workload_from_flags(const ScenarioFlags& f,
                                               const json::Value& cfg,
                                               const exp::Scenario& s) {
  const std::string model = f.effective_model(cfg);
  std::vector<workload::Job> jobs;
  if (model == "lublin") {
    workload::LublinConfig trace;
    trace.job_count = s.workload.trace.job_count;
    trace.arrival_delay_factor = s.workload.trace.arrival_delay_factor;
    trace.max_procs = s.nodes;
    rng::Stream trace_stream("lublin-trace", s.seed);
    jobs = workload::generate_lublin_trace(trace, trace_stream);
    rng::Stream est_stream("estimates", s.seed);
    workload::assign_user_estimates(jobs, s.workload.estimates, est_stream);
    rng::Stream dl_stream("deadlines", s.seed);
    workload::assign_deadlines(jobs, s.workload.deadlines, dl_stream);
    workload::apply_inaccuracy(jobs, s.workload.inaccuracy_pct);
  } else if (model == "sdsc") {
    jobs = workload::make_paper_workload(s.workload, s.seed);
  } else {
    throw cli::ParseError("--model must be 'sdsc' or 'lublin', got '" + model +
                          "'");
  }
  if (f.effective_predictor(cfg)) (void)workload::apply_predictor_causally(jobs);
  const double load_scale = f.load_scale->set
                                ? f.load_scale->value
                                : cfg.number_or("load_scale", f.load_scale->value);
  if (load_scale != 1.0) workload::scale_interarrivals(jobs, load_scale);
  return jobs;
}

}  // namespace librisk::tool
