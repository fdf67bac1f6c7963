#include "federation/federation.hpp"

#include <utility>

#include "cluster/share_model.hpp"
#include "obs/render.hpp"
#include "support/check.hpp"

namespace librisk::federation {

/// Everything one cluster shard owns. Held behind unique_ptr so addresses
/// stay stable for the metric closures and the resolution observer; the
/// in-flight accounting is touched on the routing thread (add, between
/// barriers) and from the observer (subtract, while the shard steps) —
/// never concurrently, because a shard steps on exactly one worker at a
/// time and the barrier's futures establish happens-before both ways.
struct Federation::Shard {
  std::string name;
  double price = 1.0;
  int nodes = 0;
  double total_speed = 0.0;
  double deadline_clamp = 0.0;

  std::unique_ptr<obs::Telemetry> owned_telemetry;  ///< null if caller-provided
  obs::Telemetry* telemetry = nullptr;
  std::unique_ptr<core::AdmissionEngine> engine;

  /// Deadline-proportional share (Eq. 1, processor units) of every job
  /// routed here and not yet resolved, keyed for subtract-on-resolve.
  double inflight_share = 0.0;
  std::unordered_map<std::int64_t, double> contributions;
  std::uint64_t routed = 0;
  std::uint64_t spilled_in = 0;   ///< jobs received via the spill lane
  std::uint64_t spilled_out = 0;  ///< router picks moved away from here

  /// Full (prefixed) metric names, precomputed for refresh_views().
  std::string inflight_metric;
  std::string live_jobs_metric;
};

Federation::Federation(FederationConfig config)
    : router_(config.route, config.route_seed), overload_(config.overload) {
  LIBRISK_CHECK(!config.shards.empty(), "federation needs at least one shard");
  overload_.validate();
  spill_enabled_ = overload_.mode != core::DegradedMode::HardReject;
  if (config.threads != 1 && config.shards.size() > 1)
    pool_ = std::make_unique<support::ThreadPool>(config.threads);

  shards_.reserve(config.shards.size());
  views_.reserve(config.shards.size());
  for (std::size_t k = 0; k < config.shards.size(); ++k) {
    ShardConfig& sc = config.shards[k];
    LIBRISK_CHECK(sc.engine.cluster.has_value() &&
                      sc.engine.simulator == nullptr &&
                      sc.engine.scheduler == nullptr &&
                      sc.engine.collector == nullptr,
                  "federation shard " << k << " must be an owning-mode "
                  "EngineConfig (cluster set, no borrowed components)");

    auto shard = std::make_unique<Shard>();
    shard->name = sc.name.empty() ? "cluster" + std::to_string(k)
                                  : std::move(sc.name);
    shard->price = sc.price;
    shard->nodes = sc.engine.cluster->size();
    shard->total_speed = sc.engine.cluster->total_speed_factor();
    shard->deadline_clamp = sc.engine.options.share_model.deadline_clamp;

    if (sc.engine.options.hooks.telemetry == nullptr) {
      obs::TelemetryConfig tel;
      tel.metric_prefix = shard->name + "_";
      shard->owned_telemetry = std::make_unique<obs::Telemetry>(tel);
      sc.engine.options.hooks.telemetry = shard->owned_telemetry.get();
    }
    shard->telemetry = sc.engine.options.hooks.telemetry;
    shard->engine = core::make_engine(std::move(sc.engine));

    // The router's load signal, exposed the same way every other component
    // exposes state: pull metrics in the shard's registry. refresh_views()
    // reads these back by (prefixed) name.
    Shard* raw = shard.get();
    obs::Registry& reg = shard->telemetry->registry();
    shard->inflight_metric =
        reg.name_prefix() + "federation_inflight_share";
    shard->live_jobs_metric = reg.name_prefix() + "federation_live_jobs";
    reg.gauge_fn("federation_inflight_share",
                 "in-flight deadline share routed to this shard (processor "
                 "units)",
                 [raw] { return raw->inflight_share; });
    reg.gauge_fn("federation_live_jobs",
                 "jobs routed to this shard, not yet resolved",
                 [raw] { return static_cast<double>(raw->engine->live_jobs()); });
    reg.counter_fn("federation_routed", "jobs ever routed to this shard",
                   [raw] { return raw->routed; });
    reg.counter_fn("federation_spilled_in",
                   "jobs received via the overload spill lane",
                   [raw] { return raw->spilled_in; });
    reg.counter_fn("federation_spilled_out",
                   "router picks the overload spill lane moved elsewhere",
                   [raw] { return raw->spilled_out; });

    shard->engine->collector().add_resolution_observer([raw](std::int64_t id) {
      const auto it = raw->contributions.find(id);
      if (it == raw->contributions.end()) return;
      raw->inflight_share -= it->second;
      raw->contributions.erase(it);
      // Subtraction leaves a rounding residue; an idle shard must read
      // exactly 0 so that idle shards tie in LeastRisk and the spill lane.
      if (raw->contributions.empty()) raw->inflight_share = 0.0;
    });

    ShardView view;
    view.shard = static_cast<int>(k);
    view.nodes = shard->nodes;
    view.total_speed = shard->total_speed;
    view.price = shard->price;
    views_.push_back(view);
    shards_.push_back(std::move(shard));
  }
}

Federation::~Federation() = default;

void Federation::for_each_shard(const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr) {
    for (std::size_t k = 0; k < shards_.size(); ++k) fn(k);
    return;
  }
  support::parallel_for(*pool_, shards_.size(), fn);
}

void Federation::refresh_views() {
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = *shards_[k];
    const obs::Registry& reg = shard.telemetry->registry();
    ShardView& view = views_[k];
    view.inflight_share = reg.reading(shard.inflight_metric).value;
    view.live_jobs = static_cast<std::size_t>(
        reg.reading(shard.live_jobs_metric).value);
    view.routed = shard.routed;
  }
}

RouteResult Federation::submit(const workload::Job& job) {
  LIBRISK_CHECK(!finished_, "federation submit after finish() on job " << job.id);
  LIBRISK_CHECK(routed_ == 0 || job.submit_time >= last_submit_,
                "job " << job.id << " submitted out of order: submit time "
                       << job.submit_time << " after a job at " << last_submit_);

  // Route barrier: every shard catches up to the arrival instant before any
  // load is read or any decision taken.
  const sim::SimTime t = job.submit_time;
  for_each_shard([this, t](std::size_t k) { shards_[k]->engine->advance_to(t); });
  refresh_views();

  RouteResult result;
  result.shard = router_.route(job, views_);
  result.routed_shard = result.shard;
  // Spill lane (docs/OVERLOAD.md): before a saturated shard gets to reject
  // the job, offer it to a salvage shard that still has headroom. Runs
  // after route() so every router's internal state (cursor, affinity map,
  // RNG stream) advances exactly as it would without the lane — the spill
  // is a pure function of the same views the router saw, keeping the run
  // deterministic and HardReject byte-identical (lane disarmed).
  if (spill_enabled_) {
    const int salvage = pick_salvage_shard(job, result.shard);
    if (salvage >= 0) {
      shards_[static_cast<std::size_t>(result.shard)]->spilled_out++;
      result.shard = salvage;
      result.spilled = true;
      ++spilled_;
    }
  }
  Shard& shard = *shards_[static_cast<std::size_t>(result.shard)];
  if (result.spilled) ++shard.spilled_in;
  result.outcome = shard.engine->submit(job);
  ++shard.routed;
  ++routed_;
  last_submit_ = t;

  // Track the admitted job's deadline share until it resolves. Guard on the
  // recorded fate, not the outcome verdict: a zero-length job can resolve
  // inside its own arrival step, in which case the observer already fired
  // and an add here would leak share forever.
  if (shard.engine->collector().record(job.id).fate ==
      metrics::JobFate::Pending) {
    const double share =
        static_cast<double>(job.num_procs) *
        cluster::required_share(job.scheduler_estimate, job.deadline,
                                shard.deadline_clamp);
    shard.contributions.emplace(job.id, share);
    shard.inflight_share += share;
  }
  return result;
}

int Federation::pick_salvage_shard(const workload::Job& job,
                                   int routed_shard) const {
  const ShardView& routed = views_[static_cast<std::size_t>(routed_shard)];
  if (routed.load_factor() < overload_.activation_load) return -1;
  int best = -1;
  double best_load = 0.0;
  for (const ShardView& view : views_) {
    if (view.shard == routed_shard) continue;
    if (view.nodes < job.num_procs) continue;
    const double load = view.load_factor();
    // Salvage must have real headroom; a shard past the activation line
    // would just be a different flavour of saturated.
    if (load >= overload_.activation_load) continue;
    if (best < 0 || load < best_load) {  // strict <: ties keep lowest index
      best = view.shard;
      best_load = load;
    }
  }
  return best;
}

void Federation::finish() {
  if (finished_) return;
  finished_ = true;
  for_each_shard([this](std::size_t k) { shards_[k]->engine->finish(); });
}

FederationSummary Federation::summary() const {
  FederationSummary fs;
  fs.routed = routed_;
  fs.spilled = spilled_;

  std::vector<const metrics::Collector*> collectors;
  collectors.reserve(shards_.size());
  double busy = 0.0;
  double capacity_seconds = 0.0;
  for (const auto& shard : shards_) {
    collectors.push_back(&shard->engine->collector());
    busy += shard->engine->busy_node_seconds();
    capacity_seconds +=
        static_cast<double>(shard->engine->cluster_size()) *
        shard->engine->now();

    ShardSummary ss;
    ss.name = shard->name;
    ss.nodes = shard->nodes;
    ss.routed = shard->routed;
    ss.spilled_in = shard->spilled_in;
    ss.spilled_out = shard->spilled_out;
    ss.summary = shard->engine->summary();
    ss.admission = shard->engine->admission_stats();
    fs.shards.push_back(std::move(ss));
  }
  fs.total = metrics::summarize_all(collectors);
  if (capacity_seconds > 0.0) fs.total.utilization = busy / capacity_seconds;
  return fs;
}

table::Table Federation::metrics_table() const {
  std::vector<const obs::Registry*> registries;
  registries.reserve(shards_.size());
  for (const auto& shard : shards_)
    registries.push_back(&shard->telemetry->registry());
  return obs::metrics_table(registries);
}

void Federation::write_openmetrics(std::ostream& out) const {
  std::vector<const obs::Registry*> registries;
  registries.reserve(shards_.size());
  for (const auto& shard : shards_)
    registries.push_back(&shard->telemetry->registry());
  obs::write_openmetrics(out, registries);
}

const core::AdmissionEngine& Federation::engine(std::size_t shard) const {
  LIBRISK_CHECK(shard < shards_.size(),
                "shard " << shard << " out of range (" << shards_.size() << ")");
  return *shards_[shard]->engine;
}

const std::string& Federation::shard_name(std::size_t shard) const {
  LIBRISK_CHECK(shard < shards_.size(),
                "shard " << shard << " out of range (" << shards_.size() << ")");
  return shards_[shard]->name;
}

}  // namespace librisk::federation
