// Federated scale-out figure: fulfilled% and slowdown for every routing
// policy over K ∈ {1, 2, 4, 8} cluster shards sharing 128 nodes.
//
// The shards are deliberately heterogeneous (SPEC ratings alternate 84 and
// 252 against the 168 reference, prices proportional to rating), so a
// load-blind router pays for every job it lands on a half-speed machine.
// That is the economic question the meta-scheduler exists to answer: with
// K = 1 every policy degenerates to the same single-cluster run (the rows
// are identical — tests/test_federation.cpp asserts byte-identity), and as
// K grows the spread between load-aware routing (LeastRisk,
// RandomTwoChoice) and the RoundRobin baseline is the figure.
//
// A second table measures the overload spill lane (docs/OVERLOAD.md) at
// K = 4 for RoundRobin and LeastRisk: the same seeds with the lane off
// (hard-reject) and on (downgrade-qos, which arms it), over compressed
// inter-arrival gaps, with the paired fulfilled% difference and its t
// statistic (stats::compare_paired).
//
// Results go to BENCH_federation.json (--out overrides); EXPERIMENTS.md
// "Federated multi-cluster scale-out" carries the narrative. --quick
// shrinks the trace and seed count for the bench-smoke ctest label.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "federation/federation.hpp"
#include "support/cli.hpp"
#include "support/significance.hpp"
#include "support/table.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace librisk;

constexpr double kReferenceRating = 168.0;
constexpr int kTotalNodes = 128;

struct Row {
  int clusters = 0;
  std::string policy;
  std::size_t jobs = 0;
  double fulfilled_pct = 0.0;
  double avg_slowdown_fulfilled = 0.0;
  double rejected_pct = 0.0;
  double utilization = 0.0;
  double seconds = 0.0;  ///< wall time per run, averaged over seeds
};

/// K shards over kTotalNodes: even node split (remainder to the low
/// indices), ratings alternating 84 / 252 against the shared 168 reference
/// (K = 1 is the homogeneous paper machine), price proportional to rating.
federation::FederationConfig make_config(int clusters,
                                         federation::RoutePolicy policy) {
  federation::FederationConfig config;
  for (int k = 0; k < clusters; ++k) {
    const int nodes = kTotalNodes / clusters +
                      (k < kTotalNodes % clusters ? 1 : 0);
    const double rating =
        clusters == 1 ? kReferenceRating : (k % 2 == 0 ? 84.0 : 252.0);
    std::vector<cluster::NodeSpec> specs;
    specs.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) specs.push_back({.id = n, .rating = rating});
    federation::ShardConfig shard;
    shard.engine.cluster = cluster::Cluster(std::move(specs), kReferenceRating);
    shard.engine.policy = core::Policy::LibraRisk;
    shard.price = rating / kReferenceRating;
    config.shards.push_back(std::move(shard));
  }
  config.route = policy;
  return config;
}

Row run_cell(int clusters, federation::RoutePolicy policy, int job_count,
             const std::vector<std::uint64_t>& seeds) {
  Row row;
  row.clusters = clusters;
  row.policy = federation::to_string(policy);
  for (const std::uint64_t seed : seeds) {
    workload::PaperWorkloadConfig w;
    w.trace.job_count = job_count;
    const std::vector<workload::Job> jobs =
        workload::make_paper_workload(w, seed);

    const auto start = std::chrono::steady_clock::now();
    federation::FederationConfig config = make_config(clusters, policy);
    config.route_seed = seed;
    federation::Federation fed(std::move(config));
    for (const workload::Job& job : jobs) fed.submit(job);
    fed.finish();
    const auto stop = std::chrono::steady_clock::now();

    const federation::FederationSummary s = fed.summary();
    row.jobs = s.total.submitted;
    row.fulfilled_pct += s.total.fulfilled_pct;
    row.avg_slowdown_fulfilled += s.total.avg_slowdown_fulfilled;
    row.rejected_pct +=
        100.0 *
        static_cast<double>(s.total.rejected_at_submit +
                            s.total.rejected_at_dispatch) /
        static_cast<double>(s.total.submitted);
    row.utilization += s.total.utilization;
    row.seconds += std::chrono::duration<double>(stop - start).count();
  }
  const double n = static_cast<double>(seeds.size());
  row.fulfilled_pct /= n;
  row.avg_slowdown_fulfilled /= n;
  row.rejected_pct /= n;
  row.utilization /= n;
  row.seconds /= n;
  return row;
}

/// One spill-lane comparison: K = 4, one route policy, one load scale.
struct SpillRow {
  std::string route;
  double load_scale = 1.0;
  double off_fulfilled_pct = 0.0;  ///< hard-reject: no spill lane
  double on_fulfilled_pct = 0.0;   ///< downgrade-qos: spill lane armed
  double spilled_pct = 0.0;        ///< jobs moved by the lane / submitted
  stats::PairedComparison on_vs_off;
};

constexpr int kSpillClusters = 4;

/// Paired spill-lane comparison: per seed, the K = 4 federation with the
/// lane off (hard-reject) and on (downgrade-qos) over the same jobs.
SpillRow run_spill(federation::RoutePolicy policy, double load_scale,
                   int job_count, const std::vector<std::uint64_t>& seeds) {
  SpillRow row;
  row.route = federation::to_string(policy);
  row.load_scale = load_scale;
  std::vector<double> off, on;
  for (const std::uint64_t seed : seeds) {
    workload::PaperWorkloadConfig w;
    w.trace.job_count = job_count;
    std::vector<workload::Job> jobs = workload::make_paper_workload(w, seed);
    workload::scale_interarrivals(jobs, load_scale);
    for (const core::DegradedMode mode :
         {core::DegradedMode::HardReject, core::DegradedMode::DowngradeQoS}) {
      federation::FederationConfig config =
          make_config(kSpillClusters, policy);
      config.route_seed = seed;
      config.overload.mode = mode;
      federation::Federation fed(std::move(config));
      for (const workload::Job& job : jobs) fed.submit(job);
      fed.finish();
      const federation::FederationSummary s = fed.summary();
      if (mode == core::DegradedMode::HardReject) {
        off.push_back(s.total.fulfilled_pct);
      } else {
        on.push_back(s.total.fulfilled_pct);
        row.spilled_pct += 100.0 * static_cast<double>(s.spilled) /
                           static_cast<double>(s.total.submitted);
      }
    }
  }
  const double n = static_cast<double>(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    row.off_fulfilled_pct += off[i] / n;
    row.on_fulfilled_pct += on[i] / n;
  }
  row.spilled_pct /= n;
  row.on_vs_off = stats::compare_paired(on, off);
  return row;
}

void write_json(const std::string& path, int job_count,
                const std::vector<std::uint64_t>& seeds,
                const std::vector<Row>& rows,
                const std::vector<std::uint64_t>& spill_seeds,
                const std::vector<SpillRow>& spill_rows) {
  std::ofstream os(path);
  os << "{\n"
     << " \"note\": \"Regenerated by build/bench/fig_federation; see "
        "EXPERIMENTS.md 'Federated multi-cluster scale-out' for the "
        "narrative. 128 nodes split over K shards, SPEC ratings alternating "
        "84/252 vs the 168 reference (K=1 homogeneous), price proportional "
        "to rating, LibraRisk admission per shard; means over the listed "
        "seeds.\",\n"
     << " \"context\": {\n"
     << "  \"total_nodes\": " << kTotalNodes << ",\n"
     << "  \"jobs\": " << job_count << ",\n"
     << "  \"seeds\": [";
  for (std::size_t i = 0; i < seeds.size(); ++i)
    os << seeds[i] << (i + 1 < seeds.size() ? ", " : "");
  os << "],\n"
     << "  \"admission_policy\": \"LibraRisk\"\n"
     << " },\n"
     << " \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "  {\"clusters\": " << r.clusters << ", \"route\": \"" << r.policy
       << "\", \"fulfilled_pct\": " << r.fulfilled_pct
       << ", \"avg_slowdown_fulfilled\": " << r.avg_slowdown_fulfilled
       << ", \"rejected_pct\": " << r.rejected_pct
       << ", \"utilization\": " << r.utilization
       << ", \"seconds\": " << r.seconds << "}"
       << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  os << " ],\n"
     << " \"spill_lane\": {\n"
     << "  \"clusters\": " << kSpillClusters << ",\n"
     << "  \"seeds\": [";
  for (std::size_t i = 0; i < spill_seeds.size(); ++i)
    os << spill_seeds[i] << (i + 1 < spill_seeds.size() ? ", " : "");
  os << "],\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < spill_rows.size(); ++i) {
    const SpillRow& r = spill_rows[i];
    os << "   {\"route\": \"" << r.route << "\", \"load_scale\": "
       << r.load_scale << ", \"off_fulfilled_pct\": " << r.off_fulfilled_pct
       << ", \"on_fulfilled_pct\": " << r.on_fulfilled_pct
       << ", \"delta_fulfilled_pp\": " << r.on_vs_off.mean_difference
       << ", \"t\": " << r.on_vs_off.t_statistic
       << ", \"spilled_pct\": " << r.spilled_pct << "}"
       << (i + 1 < spill_rows.size() ? "," : "") << '\n';
  }
  os << "  ]\n }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  cli::Parser parser("fig_federation",
                     "routing-policy quality over K heterogeneous shards");
  auto& quick_opt =
      parser.add<bool>("quick", "smoke mode: small trace, one seed", false);
  auto& out_opt = parser.add<std::string>("out", "JSON output path",
                                          "BENCH_federation.json");
  parser.parse(argc, argv);

  const int job_count = quick_opt.value ? 400 : 2000;
  const std::vector<std::uint64_t> seeds =
      quick_opt.value ? std::vector<std::uint64_t>{3}
                      : std::vector<std::uint64_t>{1, 2, 3};
  const std::vector<int> cluster_counts =
      quick_opt.value ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  table::Table table({"clusters", "route", "fulfilled%", "slowdown",
                      "rejected%", "util", "sec/run"});
  std::vector<Row> rows;
  for (const int clusters : cluster_counts) {
    for (const federation::RoutePolicy policy :
         federation::all_route_policies()) {
      Row row = run_cell(clusters, policy, job_count, seeds);
      table.add_row({std::to_string(row.clusters), row.policy,
                     table::pct(row.fulfilled_pct),
                     table::num(row.avg_slowdown_fulfilled),
                     table::pct(row.rejected_pct),
                     table::num(row.utilization, 3), table::num(row.seconds, 3)});
      rows.push_back(std::move(row));
    }
    table.add_rule();
  }
  std::cout << table.str() << '\n';

  std::vector<std::uint64_t> spill_seeds;
  for (std::uint64_t k = 1; k <= (quick_opt.value ? 3u : 20u); ++k)
    spill_seeds.push_back(k);
  const std::vector<double> spill_scales =
      quick_opt.value ? std::vector<double>{1.0}
                      : std::vector<double>{1.0, 0.9, 0.8, 0.7, 0.6, 0.5};
  table::Table spill_table({"route (K=4)", "scale", "spill off%", "spill on%",
                            "dful(pp)", "t", "spilled%"});
  std::vector<SpillRow> spill_rows;
  for (const federation::RoutePolicy policy :
       {federation::RoutePolicy::RoundRobin, federation::RoutePolicy::LeastRisk}) {
    for (const double scale : spill_scales) {
      SpillRow row = run_spill(policy, scale, job_count, spill_seeds);
      spill_table.add_row({row.route, table::num(row.load_scale, 2),
                           table::pct(row.off_fulfilled_pct),
                           table::pct(row.on_fulfilled_pct),
                           table::num(row.on_vs_off.mean_difference, 2),
                           table::num(row.on_vs_off.t_statistic, 1),
                           table::pct(row.spilled_pct)});
      spill_rows.push_back(std::move(row));
    }
  }
  std::cout << spill_table.str() << '\n';
  write_json(out_opt.value, job_count, seeds, rows, spill_seeds, spill_rows);
  std::cout << "written to " << out_opt.value << '\n';
  return 0;
}
