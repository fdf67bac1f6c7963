// Shared scaffolding for the librisk-sim subcommands: the scenario/workload
// flag block every experiment-shaped command reuses, plus the per-command
// entry points (one translation unit each, registered in the CommandSpec
// table in commands.cpp). Internal to the tool — not installed.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/overload.hpp"
#include "exp/scenario.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace librisk::tool {

/// Common workload/scenario flags shared by run/compare/sweep/workload/
/// trace-record/metrics.
struct ScenarioFlags {
  cli::Option<std::string>* config;
  cli::Option<int>* jobs;
  cli::Option<int>* nodes;
  cli::Option<double>* rating;
  cli::Option<double>* inaccuracy;
  cli::Option<double>* delay_factor;
  cli::Option<double>* high_urgency;
  cli::Option<double>* ratio;
  cli::Option<std::uint64_t>* seed;
  cli::Option<std::string>* model;
  cli::Option<bool>* predictor;
  cli::Option<bool>* kill;
  cli::Option<double>* load_scale;
  cli::Option<std::string>* overload_mode;
  cli::Option<double>* activation_load;

  /// Effective workload-model name (config, overridden by --model).
  [[nodiscard]] std::string effective_model(const json::Value& cfg) const {
    return model->set ? model->value : cfg.string_or("model", model->value);
  }
  /// Effective predictor switch.
  [[nodiscard]] bool effective_predictor(const json::Value& cfg) const {
    return predictor->set ? predictor->value
                          : cfg.bool_or("predictor", predictor->value);
  }
};

ScenarioFlags add_scenario_flags(cli::Parser& parser);

/// Parses the --config file (an empty Object when none given).
json::Value load_config(const ScenarioFlags& f);

exp::Scenario scenario_from_flags(const ScenarioFlags& f, const json::Value& cfg);

std::vector<workload::Job> workload_from_flags(const ScenarioFlags& f,
                                               const json::Value& cfg,
                                               const exp::Scenario& s);

/// The notes under a run's summary: the near-miss line, and with `overload`
/// the overload line; each prints only when its counters are non-zero.
void print_admission_notes(std::ostream& out, const core::AdmissionStats& adm,
                           std::optional<core::DegradedMode> overload);

// ---- per-command entry points ----

int cmd_run(const std::vector<std::string>& args, std::ostream& out);
int cmd_compare(const std::vector<std::string>& args, std::ostream& out);
int cmd_sweep(const std::vector<std::string>& args, std::ostream& out);
int cmd_workload(const std::vector<std::string>& args, std::ostream& out);
int cmd_replay(const std::vector<std::string>& args, std::ostream& out);
int cmd_trace(const std::vector<std::string>& args, std::ostream& out);
int cmd_metrics(const std::vector<std::string>& args, std::ostream& out);
int cmd_explain(const std::vector<std::string>& args, std::ostream& out);

}  // namespace librisk::tool
