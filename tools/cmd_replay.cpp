#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>

#include <filesystem>
#include <fstream>

#include <stdexcept>

#include "core/engine.hpp"
#include "core/gateway.hpp"
#include "core/overload.hpp"
#include "federation/federation.hpp"
#include "metrics/report.hpp"
#include "obs/render.hpp"
#include "obs/telemetry.hpp"
#include "tools/common.hpp"
#include "workload/deadlines.hpp"
#include "workload/estimates.hpp"
#include "workload/swf.hpp"
#include "workload/workload_stats.hpp"

namespace librisk::tool {

namespace {

struct ReplayFlags {
  std::string trace;
  int nodes = 128;
  double rating = 168.0;
  std::uint64_t seed = 1;
  double inaccuracy = 100.0;
  double high_urgency = 0.20;
  double ratio = 4.0;
  int threads = 0;  ///< 0 = direct engine; >= 1 = gateway with N producers
  int shards = 1;   ///< > 1 = federated replay over this many clusters
  federation::RoutePolicy route = federation::RoutePolicy::RoundRobin;
  std::vector<double> shard_ratings;  ///< cycled across shards; empty = rating
  double load_scale = 1.0;            ///< inter-arrival gap factor (< 1 = hotter)
  core::OverloadConfig overload;      ///< degradation mode for every engine
};

/// Concurrent streaming replay: N producer threads feed the
/// core::AdmissionGateway. The SWF stream and the deadline-synthesis RNG
/// are shared under one mutex so per-job synthesis stays identical to the
/// single-threaded path; the gateway's drive thread makes every decision.
/// With one producer the decision trace is byte-identical to the direct
/// engine path; with several, only the queue interleaving differs.
int run_gateway(const ReplayFlags& f, core::Policy policy,
                const std::string& telemetry_out, double telemetry_period,
                std::ostream& out) {
  obs::TelemetryConfig tel_config;
  if (!telemetry_out.empty()) tel_config.sample_period = telemetry_period;
  obs::Telemetry telemetry(tel_config);

  core::GatewayConfig config;
  config.engine.cluster = cluster::Cluster::homogeneous(f.nodes, f.rating);
  config.engine.policy = policy;
  config.engine.options.hooks.telemetry = &telemetry;
  config.engine.options.overload = f.overload;
  core::AdmissionGateway gateway(std::move(config));

  workload::swf::SwfStream stream(f.trace);
  workload::DeadlineConfig dl_config;
  dl_config.high_urgency_fraction = f.high_urgency;
  dl_config.high_low_ratio = f.ratio;
  rng::Stream dl_stream("deadlines", f.seed);
  workload::InterarrivalScaler scaler(f.load_scale);
  std::mutex source_mutex;

  const auto produce = [&] {
    std::vector<workload::Job> one(1);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(source_mutex);
        if (!stream.next(one[0])) return;
        if (one[0].deadline <= 0.0)
          workload::assign_deadlines(one, dl_config, dl_stream);
        workload::apply_inaccuracy(one, f.inaccuracy);
        scaler.apply(one[0]);  // under the lock: arrival-order anchoring
      }
      if (gateway.submit(one[0]) == core::SubmitStatus::Closed) return;
    }
  };
  std::vector<std::thread> producers;
  producers.reserve(f.threads);
  for (int i = 0; i < f.threads; ++i) producers.emplace_back(produce);
  for (std::thread& t : producers) t.join();
  gateway.close();

  if (gateway.engine().jobs_submitted() == 0)
    throw cli::ParseError("trace contains no usable jobs");
  metrics::print_summary(out, std::string(core::to_string(policy)),
                         gateway.engine().summary());
  const core::GatewayStats gs = gateway.stats();
  out << "\ngateway: " << f.threads << " producer(s), " << gs.submitted
      << " submitted, " << gs.fast_rejected << " fast-rejected, "
      << gs.decided << " decided, queue high-water " << gs.queue_high_water
      << ", audit violations " << gs.audit_violations << '\n';
  if (gs.degraded_admits > 0)
    out << "overload (" << core::to_string(f.overload.mode)
        << "): " << gs.degraded_admits << " degraded admits\n";
  if (gs.fast_rejected > 0) {
    const auto shed_pct = [&](std::uint64_t n) {
      return gs.submitted > 0 ? 100.0 * static_cast<double>(n) /
                                    static_cast<double>(gs.submitted)
                              : 0.0;
    };
    table::Table shed({"certificate", "shed", "% of submitted"});
    shed.add_row({"C1 no-suitable-node",
                  std::to_string(gs.shed_no_suitable_node),
                  table::num(shed_pct(gs.shed_no_suitable_node), 2)});
    shed.add_row({"C2 share", std::to_string(gs.shed_share),
                  table::num(shed_pct(gs.shed_share), 2)});
    shed.add_row({"C2 deadline", std::to_string(gs.shed_deadline),
                  table::num(shed_pct(gs.shed_deadline), 2)});
    shed.add_row({"C3 aggregate", std::to_string(gs.shed_aggregate),
                  table::num(shed_pct(gs.shed_aggregate), 2)});
    out << shed.str();
    if (gs.shed_spikes > 0)
      out << "shed spikes: " << gs.shed_spikes << " window crossings\n";
  }
  if (gs.flight_recorded > 0) {
    const obs::Histogram wait = gateway.flight().queue_wait_histogram();
    const obs::Histogram decide = gateway.flight().decide_histogram();
    const auto us = [](double seconds) { return table::num(seconds * 1e6, 1); };
    out << "flight recorder: " << gs.flight_recorded
        << " decisions (last " << gateway.flight().snapshot().size()
        << " retained), queue-wait p50/p99 " << us(wait.quantile(50.0)) << "/"
        << us(wait.quantile(99.0)) << " us, decide p50/p99 "
        << us(decide.quantile(50.0)) << "/" << us(decide.quantile(99.0))
        << " us\n";
  }
  const core::AdmissionStats adm = gateway.engine().admission_stats();
  if (adm.near_miss_10() > 0)
    out << "near-miss rejections: " << adm.near_miss_5() << " within 5%, "
        << adm.near_miss_10() << " within 10% of flipping (share "
        << adm.near_miss_share_10 << ", sigma " << adm.near_miss_sigma_10
        << ", deadline " << adm.near_miss_deadline_10 << ")\n";
  if (!telemetry_out.empty()) {
    telemetry.write_dir(telemetry_out);
    out << "telemetry written to " << telemetry_out << " ("
        << telemetry.samples() << " samples)\n";
  }
  return 0;
}

/// Streaming replay: pipe the SWF file line-at-a-time through a long-lived
/// AdmissionEngine. Job objects in memory stay proportional to the
/// resident/pending set, so arbitrarily long traces replay in bounded
/// space. Deadlines are synthesised per job *as it streams* when the trace
/// carries none; the deadline RNG stream persists across jobs, so an
/// all-missing trace gets the same deadlines the batch path assigns.
int run_streaming(const ReplayFlags& f, core::Policy policy,
                  const std::string& telemetry_out, double telemetry_period,
                  std::ostream& out) {
  obs::TelemetryConfig tel_config;
  if (!telemetry_out.empty()) tel_config.sample_period = telemetry_period;
  obs::Telemetry telemetry(tel_config);

  core::PolicyOptions options;
  options.hooks.telemetry = &telemetry;
  options.overload = f.overload;
  core::EngineConfig engine_config;
  engine_config.cluster = cluster::Cluster::homogeneous(f.nodes, f.rating);
  engine_config.policy = policy;
  engine_config.options = options;
  const std::unique_ptr<core::AdmissionEngine> engine =
      core::make_engine(std::move(engine_config));

  workload::swf::SwfStream stream(f.trace);
  workload::DeadlineConfig dl_config;
  dl_config.high_urgency_fraction = f.high_urgency;
  dl_config.high_low_ratio = f.ratio;
  rng::Stream dl_stream("deadlines", f.seed);

  // Single-element scratch vector: the synthesis helpers are batch-shaped
  // but strictly sequential per job, so feeding them one job at a time with
  // a persistent RNG stream reproduces the batch sequence exactly.
  workload::InterarrivalScaler scaler(f.load_scale);
  std::vector<workload::Job> one(1);
  workload::Job job;
  while (stream.next(job)) {
    one[0] = job;
    if (one[0].deadline <= 0.0)
      workload::assign_deadlines(one, dl_config, dl_stream);
    workload::apply_inaccuracy(one, f.inaccuracy);
    scaler.apply(one[0]);
    engine->advance_to(one[0].submit_time);
    engine->submit(one[0]);
  }
  if (engine->jobs_submitted() == 0)
    throw cli::ParseError("trace contains no usable jobs");
  engine->finish();

  metrics::print_summary(out, std::string(core::to_string(policy)),
                         engine->summary());
  out << "\nstreaming: " << stream.jobs_returned() << " jobs streamed ("
      << stream.jobs_skipped() << " skipped), peak resident "
      << engine->peak_live_jobs() << " job objects of "
      << engine->jobs_submitted() << " submitted\n";
  const core::AdmissionStats adm = engine->admission_stats();
  if (adm.near_miss_10() > 0)
    out << "near-miss rejections: " << adm.near_miss_5() << " within 5%, "
        << adm.near_miss_10() << " within 10% of flipping (share "
        << adm.near_miss_share_10 << ", sigma " << adm.near_miss_sigma_10
        << ", deadline " << adm.near_miss_deadline_10 << ")\n";
  if (adm.overload_activations > 0 || adm.degraded_admits > 0)
    out << "overload (" << core::to_string(f.overload.mode)
        << "): " << adm.overload_activations << " activations, "
        << adm.degraded_admits << " degraded admits\n";
  if (!telemetry_out.empty()) {
    telemetry.write_dir(telemetry_out);
    out << "telemetry written to " << telemetry_out << " ("
        << telemetry.samples() << " samples)\n";
  }
  return 0;
}

/// Federated streaming replay: the --nodes cluster is split as evenly as
/// possible into --shards independent engines (ratings cycled from
/// --shard-ratings against the --rating reference, so a 84-rated shard
/// really is half the speed of a 168-reference node), and every job is
/// routed as it streams by the --route policy. Per-job deadline synthesis
/// is shared with the single-engine path, so the K = 1 federation is
/// byte-identical to run_streaming (tested).
int run_federation(const ReplayFlags& f, core::Policy policy,
                   const std::string& telemetry_out, std::ostream& out) {
  federation::FederationConfig config;
  config.route = f.route;
  config.route_seed = f.seed;
  // --threads: stepping workers for the per-job barrier (0 = hardware
  // concurrency). Results are thread-count independent by construction.
  config.threads = static_cast<std::size_t>(f.threads);
  for (int k = 0; k < f.shards; ++k) {
    const int nodes = f.nodes / f.shards + (k < f.nodes % f.shards ? 1 : 0);
    const double rating = f.shard_ratings.empty()
                              ? f.rating
                              : f.shard_ratings[static_cast<std::size_t>(k) %
                                                f.shard_ratings.size()];
    std::vector<cluster::NodeSpec> specs;
    specs.reserve(static_cast<std::size_t>(nodes));
    for (int i = 0; i < nodes; ++i) specs.push_back({i, rating});
    federation::ShardConfig shard;
    shard.engine.cluster = cluster::Cluster(std::move(specs), f.rating);
    shard.engine.policy = policy;
    shard.engine.options.overload = f.overload;
    shard.price = rating / f.rating;  // faster capacity charges more
    config.shards.push_back(std::move(shard));
  }
  // Same mode federation-side: arms the spill lane (saturated shard →
  // least-loaded salvage shard) whenever the engines themselves degrade.
  config.overload = f.overload;
  federation::Federation fed(std::move(config));

  workload::swf::SwfStream stream(f.trace);
  workload::DeadlineConfig dl_config;
  dl_config.high_urgency_fraction = f.high_urgency;
  dl_config.high_low_ratio = f.ratio;
  rng::Stream dl_stream("deadlines", f.seed);
  workload::InterarrivalScaler scaler(f.load_scale);

  std::vector<workload::Job> one(1);
  workload::Job job;
  while (stream.next(job)) {
    one[0] = job;
    if (one[0].deadline <= 0.0)
      workload::assign_deadlines(one, dl_config, dl_stream);
    workload::apply_inaccuracy(one, f.inaccuracy);
    scaler.apply(one[0]);
    fed.submit(one[0]);
  }
  fed.finish();

  const federation::FederationSummary summary = fed.summary();
  if (summary.routed == 0)
    throw cli::ParseError("trace contains no usable jobs");
  metrics::print_summary(out, std::string(core::to_string(policy)),
                         summary.total);
  out << "\nfederation: " << f.shards << " shards, route "
      << federation::to_string(fed.route_policy()) << ", " << summary.routed
      << " jobs routed";
  if (summary.spilled > 0)
    out << ", " << summary.spilled << " spilled to salvage shards";
  out << '\n';
  // Degraded admissions get their own column — folding them into
  // "fulfilled" would hide exactly the jobs the overload mode exists to
  // account for (docs/OVERLOAD.md).
  table::Table shard_table({"shard", "nodes", "routed", "spill in/out",
                            "fulfilled %", "degraded", "avg slowdown",
                            "near-miss 10%"});
  for (const federation::ShardSummary& s : summary.shards)
    shard_table.add_row({s.name, std::to_string(s.nodes),
                         std::to_string(s.routed),
                         std::to_string(s.spilled_in) + "/" +
                             std::to_string(s.spilled_out),
                         table::num(s.summary.fulfilled_pct, 2),
                         std::to_string(s.admission.degraded_admits),
                         table::num(s.summary.avg_slowdown_fulfilled, 3),
                         std::to_string(s.admission.near_miss_10())});
  out << shard_table.str();
  if (!telemetry_out.empty()) {
    std::filesystem::create_directories(telemetry_out);
    std::ofstream metrics(std::filesystem::path(telemetry_out) / "metrics.txt");
    fed.write_openmetrics(metrics);
    out << "merged shard metrics written to " << telemetry_out
        << "/metrics.txt\n";
  }
  return 0;
}

}  // namespace

int cmd_replay(const std::vector<std::string>& args, std::ostream& out) {
  cli::Parser parser("librisk-sim replay", "Run policies over an SWF trace file");
  auto& trace_opt = parser.add<std::string>("trace", "SWF file", "");
  auto& last_opt = parser.add<int>("last", "keep only the last N jobs (0 = all)", 0);
  auto& nodes_opt = parser.add<int>("nodes", "cluster size", 128);
  auto& rating_opt = parser.add<double>("rating", "node SPEC rating", 168.0);
  auto& seed_opt = parser.add<std::uint64_t>("seed", "deadline synthesis seed", 1);
  auto& inaccuracy_opt = parser.add<double>("inaccuracy", "estimate inaccuracy %", 100.0);
  auto& high_urgency_opt =
      parser.add<double>("high-urgency", "high-urgency fraction (synthesised)", 0.20);
  auto& ratio_opt = parser.add<double>("ratio", "deadline high:low ratio", 4.0);
  auto& stream_opt = parser.add<bool>(
      "stream",
      "replay line-at-a-time through the online AdmissionEngine (bounded "
      "memory, one policy) instead of materializing the trace",
      false);
  auto& policy_opt = parser.add<std::string>(
      "policy", "policy for --stream replay", "LibraRisk");
  auto& tel_out = parser.add<std::string>(
      "telemetry-out",
      "--stream only: write live-telemetry exports under this directory", "");
  auto& tel_period = parser.add<double>(
      "telemetry-period", "sim-seconds between sampler ticks", 600.0);
  auto& threads_opt = parser.add<int>(
      "threads",
      "--stream only: feed the concurrent AdmissionGateway with N producer "
      "threads (0 = direct single-threaded engine; 1 is byte-identical to "
      "it). With --shards > 1: worker threads stepping the shards (0 = "
      "hardware concurrency; results are identical for every value)",
      0);
  auto& shards_opt = parser.add<int>(
      "shards",
      "--stream only: federate over this many independent cluster shards "
      "(--nodes split evenly) with per-job routing",
      1);
  auto& route_opt = parser.add<std::string>(
      "route",
      "--shards routing policy: RoundRobin, LeastRisk, PriceWeighted, "
      "Affinity or RandomTwoChoice",
      "RoundRobin");
  auto& shard_ratings_opt = parser.add<std::string>(
      "shard-ratings",
      "comma-separated SPEC ratings cycled across shards (heterogeneous "
      "federation); empty = every shard at --rating",
      "");
  auto& load_scale_opt = parser.add<double>(
      "load-scale",
      "scale inter-arrival gaps by this factor (< 1 compresses the trace "
      "and raises offered load)",
      1.0);
  auto& overload_opt = parser.add<std::string>(
      "overload-mode",
      "overload mode past the load knee: hard-reject | downgrade-qos "
      "(docs/OVERLOAD.md)",
      "hard-reject");
  auto& activation_opt = parser.add<double>(
      "activation-load",
      "load-signal utilization at which the overload mode engages", 0.85);
  parser.parse(args);

  if (load_scale_opt.value <= 0.0)
    throw cli::ParseError("--load-scale must be > 0");
  core::OverloadConfig overload;
  try {
    overload.mode = core::parse_degraded_mode(overload_opt.value);
  } catch (const std::invalid_argument& e) {
    throw cli::ParseError(e.what());
  }
  overload.activation_load = activation_opt.value;
  overload.validate();

  if (trace_opt.value.empty()) throw cli::ParseError("replay requires --trace <file>");

  if (stream_opt.value) {
    if (last_opt.value > 0)
      throw cli::ParseError(
          "--last needs the whole trace in memory and defeats streaming; "
          "drop it or use the batch replay (no --stream)");
    ReplayFlags f;
    f.trace = trace_opt.value;
    f.nodes = nodes_opt.value;
    f.rating = rating_opt.value;
    f.seed = seed_opt.value;
    f.inaccuracy = inaccuracy_opt.value;
    f.high_urgency = high_urgency_opt.value;
    f.ratio = ratio_opt.value;
    f.threads = threads_opt.value;
    f.load_scale = load_scale_opt.value;
    f.overload = overload;
    if (f.threads < 0) throw cli::ParseError("--threads must be >= 0");
    f.shards = shards_opt.value;
    if (f.shards < 1) throw cli::ParseError("--shards must be >= 1");
    if (f.shards > f.nodes)
      throw cli::ParseError("--shards cannot exceed --nodes");
    if (f.shards > 1) {
      const auto route = federation::parse_route_policy(route_opt.value);
      if (!route)
        throw cli::ParseError("unknown --route policy '" + route_opt.value +
                              "'");
      f.route = *route;
      if (!shard_ratings_opt.value.empty()) {
        std::stringstream ss(shard_ratings_opt.value);
        std::string item;
        while (std::getline(ss, item, ',')) {
          try {
            f.shard_ratings.push_back(std::stod(item));
          } catch (const std::exception&) {
            throw cli::ParseError("bad --shard-ratings entry '" + item + "'");
          }
          if (f.shard_ratings.back() <= 0.0)
            throw cli::ParseError("--shard-ratings must be positive");
        }
      }
      return run_federation(f, core::parse_policy(policy_opt.value),
                            tel_out.value, out);
    }
    if (f.threads > 0)
      return run_gateway(f, core::parse_policy(policy_opt.value),
                         tel_out.value, tel_period.value, out);
    return run_streaming(f, core::parse_policy(policy_opt.value),
                         tel_out.value, tel_period.value, out);
  }
  if (threads_opt.value > 0)
    throw cli::ParseError("--threads requires --stream");
  if (shards_opt.value > 1)
    throw cli::ParseError("--shards requires --stream");

  workload::swf::ReadOptions read_opts;
  read_opts.last_n = last_opt.value > 0 ? static_cast<std::size_t>(last_opt.value) : 0;
  auto jobs = workload::swf::read_file(trace_opt.value, read_opts);
  if (jobs.empty()) throw cli::ParseError("trace contains no usable jobs");

  bool missing = false;
  for (const auto& j : jobs) missing |= j.deadline <= 0.0;
  if (missing) {
    workload::DeadlineConfig config;
    config.high_urgency_fraction = high_urgency_opt.value;
    config.high_low_ratio = ratio_opt.value;
    rng::Stream stream("deadlines", seed_opt.value);
    workload::assign_deadlines(jobs, config, stream);
  }
  workload::apply_inaccuracy(jobs, inaccuracy_opt.value);
  if (load_scale_opt.value != 1.0)
    workload::scale_interarrivals(jobs, load_scale_opt.value);
  workload::validate_trace(jobs);
  workload::print_stats(out, workload::compute_stats(jobs));
  out << '\n';

  exp::Scenario scenario;
  scenario.nodes = nodes_opt.value;
  scenario.rating = rating_opt.value;
  scenario.options.overload = overload;
  std::vector<metrics::LabelledSummary> results;
  for (const core::Policy policy : core::all_policies()) {
    scenario.policy = policy;
    const exp::ScenarioResult r = exp::run_jobs(scenario, jobs);
    results.push_back({std::string(core::to_string(policy)), r.summary});
  }
  metrics::print_comparison(out, results);
  return 0;
}

}  // namespace librisk::tool
