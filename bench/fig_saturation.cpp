// Saturation figure: what DowngradeQoS buys EDF and EDF-BF across the load
// knee.
//
// The λ-sweep compresses the paper workload's inter-arrival gaps
// (workload::scale_interarrivals — the same transform behind the CLI's
// --load-scale) so offered load climbs from the paper's operating point
// into saturation. At each point it runs EDF and EDF-BF under hard-reject
// and under downgrade-qos over the same seeds, and reports the paired
// fulfilled% difference with its t statistic (stats::compare_paired).
// These are the only two policies with a bend (docs/OVERLOAD.md); the
// decisive sweep that retired the other modes is in EXPERIMENTS.md
// "Saturation and graceful degradation". The federation spill lane is
// measured by fig_federation, which already builds the 84/252 federation.
//
// Results go to BENCH_overload.json (--out overrides). --quick shrinks the
// sweep for the bench-smoke ctest label and the CI figure-smoke job.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/overload.hpp"
#include "metrics/car.hpp"
#include "support/cli.hpp"
#include "support/significance.hpp"
#include "support/table.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace librisk;

constexpr int kNodes = 128;
constexpr double kRating = 168.0;

struct Row {
  std::string policy;
  double load_scale = 1.0;
  std::string mode;
  double fulfilled_pct = 0.0;
  double rejected_pct = 0.0;
  double degraded_pct = 0.0;   ///< degraded admits / submissions
  double activations = 0.0;    ///< governor disengaged->engaged flips
  double car95_slowdown = 0.0; ///< CaR(95%) over completed-job slowdown
  double utilization = 0.0;
  double seconds = 0.0;        ///< wall time per run, averaged over seeds
  /// Per-seed fulfilled%, the paired comparison's input.
  std::vector<double> fulfilled_by_seed;
  /// Paired against the hard-reject row of the same policy and scale (0
  /// on the hard-reject row itself).
  stats::PairedComparison vs_hard_reject;
};

Row run_cell(core::Policy policy, double load_scale, core::DegradedMode mode,
             int job_count, const std::vector<std::uint64_t>& seeds) {
  Row row;
  row.policy = std::string(core::to_string(policy));
  row.load_scale = load_scale;
  row.mode = std::string(core::to_string(mode));
  for (const std::uint64_t seed : seeds) {
    workload::PaperWorkloadConfig w;
    w.trace.job_count = static_cast<std::size_t>(job_count);
    std::vector<workload::Job> jobs = workload::make_paper_workload(w, seed);
    workload::scale_interarrivals(jobs, load_scale);

    const auto start = std::chrono::steady_clock::now();
    core::EngineConfig config;
    config.cluster = cluster::Cluster::homogeneous(kNodes, kRating);
    config.policy = policy;
    config.options.overload.mode = mode;
    const std::unique_ptr<core::AdmissionEngine> engine =
        core::make_engine(std::move(config));
    for (const workload::Job& job : jobs) engine->submit(job);
    engine->finish();
    const auto stop = std::chrono::steady_clock::now();

    const metrics::RunSummary s = engine->summary();
    const core::AdmissionStats adm = engine->admission_stats();
    const double submitted = static_cast<double>(s.submitted);
    row.fulfilled_by_seed.push_back(s.fulfilled_pct);
    row.fulfilled_pct += s.fulfilled_pct;
    row.rejected_pct += 100.0 *
                        static_cast<double>(s.rejected_at_submit +
                                            s.rejected_at_dispatch) /
                        submitted;
    row.degraded_pct += 100.0 * static_cast<double>(adm.degraded_admits) / submitted;
    row.activations += static_cast<double>(adm.overload_activations);
    row.car95_slowdown +=
        metrics::computation_at_risk(engine->collector(),
                                     metrics::CarMeasure::Slowdown, 95.0)
            .at_risk;
    if (engine->now() > 0.0)
      row.utilization += engine->busy_node_seconds() /
                         (static_cast<double>(kNodes) * engine->now());
    row.seconds += std::chrono::duration<double>(stop - start).count();
  }
  const double n = static_cast<double>(seeds.size());
  row.fulfilled_pct /= n;
  row.rejected_pct /= n;
  row.degraded_pct /= n;
  row.activations /= n;
  row.car95_slowdown /= n;
  row.utilization /= n;
  row.seconds /= n;
  return row;
}

/// Row name for scripts/bench_diff.py matching: "EDF/scale0.50/downgrade-qos".
std::string row_name(const Row& r) {
  return r.policy + "/scale" + table::num(r.load_scale, 2) + "/" + r.mode;
}

void write_json(const std::string& path, int job_count,
                const std::vector<std::uint64_t>& seeds,
                const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n"
     << " \"note\": \"Regenerated by build/bench/fig_saturation; see "
        "EXPERIMENTS.md 'Saturation and graceful degradation' for the "
        "narrative. Paper workload with inter-arrival gaps scaled by "
        "load_scale (< 1 = hotter), 128 nodes at SPEC 168, EDF and EDF-BF "
        "under hard-reject and downgrade-qos; means over the listed seeds, "
        "delta_fulfilled_pp and t paired against the hard-reject row "
        "(stats::compare_paired).\",\n"
     << " \"context\": {\n"
     << "  \"nodes\": " << kNodes << ",\n"
     << "  \"jobs\": " << job_count << ",\n"
     << "  \"seeds\": [";
  for (std::size_t i = 0; i < seeds.size(); ++i)
    os << seeds[i] << (i + 1 < seeds.size() ? ", " : "");
  os << "]\n"
     << " },\n"
     << " \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "  {\"name\": \"" << row_name(r) << "\", \"policy\": \"" << r.policy
       << "\", \"load_scale\": " << r.load_scale << ", \"mode\": \"" << r.mode
       << "\", \"fulfilled_pct\": " << r.fulfilled_pct
       << ", \"rejected_pct\": " << r.rejected_pct
       << ", \"degraded_pct\": " << r.degraded_pct
       << ", \"activations\": " << r.activations
       << ", \"car95_slowdown\": " << r.car95_slowdown
       << ", \"utilization\": " << r.utilization
       << ", \"delta_fulfilled_pp\": " << r.vs_hard_reject.mean_difference
       << ", \"t\": " << r.vs_hard_reject.t_statistic
       << ", \"seconds\": " << r.seconds << "}"
       << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  os << " ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  cli::Parser parser("fig_saturation",
                     "DowngradeQoS vs hard-reject across the load knee");
  auto& quick_opt = parser.add<bool>(
      "quick", "smoke mode: small trace, three seeds, two load scales", false);
  auto& out_opt = parser.add<std::string>("out", "JSON output path",
                                          "BENCH_overload.json");
  parser.parse(argc, argv);

  const int job_count = quick_opt.value ? 400 : 2000;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t k = 1; k <= (quick_opt.value ? 3u : 20u); ++k)
    seeds.push_back(k);
  const std::vector<double> load_scales =
      quick_opt.value ? std::vector<double>{1.0, 0.5}
                      : std::vector<double>{1.0, 0.9, 0.8, 0.7, 0.6, 0.5};

  table::Table table({"policy", "scale", "mode", "fulfilled%", "rejected%",
                      "degraded%", "activations", "CaR95(slow)", "util",
                      "dful(pp)", "t", "sec/run"});
  std::vector<Row> rows;
  const auto add_row = [&table](const Row& row, bool paired) {
    table.add_row({row.policy, table::num(row.load_scale, 2), row.mode,
                   table::pct(row.fulfilled_pct), table::pct(row.rejected_pct),
                   table::pct(row.degraded_pct), table::num(row.activations, 1),
                   table::num(row.car95_slowdown, 2),
                   table::num(row.utilization, 3),
                   paired ? table::num(row.vs_hard_reject.mean_difference, 2)
                          : std::string("-"),
                   paired ? table::num(row.vs_hard_reject.t_statistic, 1)
                          : std::string("-"),
                   table::num(row.seconds, 3)});
  };
  for (const core::Policy policy :
       {core::Policy::Edf, core::Policy::EdfBackfill}) {
    for (const double scale : load_scales) {
      Row base = run_cell(policy, scale, core::DegradedMode::HardReject,
                          job_count, seeds);
      Row bent = run_cell(policy, scale, core::DegradedMode::DowngradeQoS,
                          job_count, seeds);
      bent.vs_hard_reject = stats::compare_paired(bent.fulfilled_by_seed,
                                                  base.fulfilled_by_seed);
      add_row(base, false);
      add_row(bent, true);
      rows.push_back(std::move(base));
      rows.push_back(std::move(bent));
    }
    table.add_rule();
  }
  std::cout << table.str() << '\n';
  write_json(out_opt.value, job_count, seeds, rows);
  std::cout << "written to " << out_opt.value << '\n';
  return 0;
}
