// Federated multi-cluster admission: K independent AdmissionEngine shards
// behind one Router.
//
// Each shard is a complete owning-mode engine — its own cluster (any node
// count / SPEC ratings), simulator, collector and scheduler stack — so a
// federation run is exactly K standalone cluster simulations plus a
// deterministic assignment of jobs to shards. Jobs stream in globally
// ordered by submit time; per job the Federation (1) advances every shard
// to the job's submit time (the *route barrier* — shards step in parallel
// on a thread pool, each mutating only its own state), (2) snapshots
// per-shard load from the shards' obs pull-metric registries, (3) asks the
// Router for a shard, and (4) submits eagerly, returning the shard index
// with the engine's own AdmissionOutcome.
//
// Determinism: the barrier makes per-shard stepping a pure function of the
// jobs previously routed to that shard (docs/MODEL.md §"engine stepping"),
// views are read only after the barrier joins, and all routing state
// advances on the caller's thread once per job — so every result, down to
// per-shard .lrt decision traces, is bitwise independent of the worker
// thread count (tested in tests/test_federation.cpp). With K = 1 every
// policy routes every job to shard 0 and the run is byte-identical to a
// standalone streaming engine.
//
// Telemetry: unless a shard's EngineConfig already carries a telemetry
// hook, the Federation gives each shard its own Telemetry hub whose metric
// names are prefixed "<shard-name>_" (obs::TelemetryConfig::metric_prefix),
// so metrics_table()/write_openmetrics() can merge all K registries into
// one collision-free export.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/overload.hpp"
#include "federation/router.hpp"
#include "obs/telemetry.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace librisk::federation {

/// One cluster in the federation. `engine` must describe an owning-mode
/// engine (cluster set, no borrowed components): a federation of borrowed
/// stacks would share simulators, which contradicts shard independence.
struct ShardConfig {
  core::EngineConfig engine;
  /// Display / metric-prefix name; empty = "cluster<index>".
  std::string name;
  /// $/share-unit this cluster charges (PriceWeighted routing).
  double price = 1.0;
};

struct FederationConfig {
  std::vector<ShardConfig> shards;
  RoutePolicy route = RoutePolicy::RoundRobin;
  /// Seed for the router's RNG stream (RandomTwoChoice).
  std::uint64_t route_seed = 1;
  /// Worker threads for the per-job stepping barrier: 1 = step shards
  /// inline on the caller's thread (default), 0 = hardware concurrency.
  /// Results are identical for every value (see header comment).
  std::size_t threads = 1;
  /// Federation-level degradation (core/overload.hpp): any mode other than
  /// HardReject arms the spill lane — when the routed shard's load factor
  /// is at or past `overload.activation_load`, the job is re-routed to the
  /// least-loaded feasible shard still below that line (the *salvage
  /// shard*, ties to the lowest index) before the saturated shard gets to
  /// reject it. Reject-everywhere only happens when every feasible shard is
  /// saturated. HardReject (default) keeps routing byte-identical to the
  /// federation without a spill lane. Per-shard engines carry their own
  /// `options.overload` independently; this knob only bends routing.
  core::OverloadConfig overload;
};

/// Decision for one submitted job: where it went and what that shard said.
struct RouteResult {
  int shard = 0;
  core::AdmissionOutcome outcome;
  /// The router's original pick before the overload spill lane moved the
  /// job; equals `shard` when no spill happened.
  int routed_shard = 0;
  bool spilled = false;
};

/// Per-shard slice of a federation run.
struct ShardSummary {
  std::string name;
  int nodes = 0;
  std::uint64_t routed = 0;
  /// Jobs this shard *received* through the overload spill lane (they count
  /// in `routed` too — spilled_in attributes, it does not add).
  std::uint64_t spilled_in = 0;
  /// Jobs the router picked this shard for but the spill lane moved away.
  std::uint64_t spilled_out = 0;
  metrics::RunSummary summary;
  core::AdmissionStats admission;
};

/// Whole-federation results: `total` aggregates every shard's collector
/// exactly (metrics::summarize_all), with utilization = delivered work over
/// total federated capacity.
struct FederationSummary {
  metrics::RunSummary total;
  std::vector<ShardSummary> shards;
  std::uint64_t routed = 0;
  /// Jobs moved by the overload spill lane (0 under HardReject).
  std::uint64_t spilled = 0;
};

class Federation {
 public:
  explicit Federation(FederationConfig config);
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;
  ~Federation();

  [[nodiscard]] RoutePolicy route_policy() const noexcept { return router_.policy(); }

  /// Routes and eagerly submits one job. Jobs must arrive monotone in
  /// submit time (globally — the per-shard subsequences then are too).
  RouteResult submit(const workload::Job& job);

  /// Runs every shard to completion (parallel finish barrier); idempotent.
  void finish();

  [[nodiscard]] FederationSummary summary() const;

  /// Merged views over every shard's metrics registry (collision-free by
  /// per-shard name prefixes).
  [[nodiscard]] table::Table metrics_table() const;
  void write_openmetrics(std::ostream& out) const;

  /// The shard's engine, for tests and trace wiring.
  [[nodiscard]] const core::AdmissionEngine& engine(std::size_t shard) const;
  [[nodiscard]] const std::string& shard_name(std::size_t shard) const;

 private:
  struct Shard;

  /// Runs fn(shard) for every shard — in parallel when the pool exists,
  /// inline otherwise. A barrier: returns after every shard completes.
  void for_each_shard(const std::function<void(std::size_t)>& fn);
  /// Rebuilds views_ from each shard's registry readings. Only called
  /// between barriers, on the caller's thread.
  void refresh_views();
  /// Overload spill lane: when the routed shard is saturated
  /// (load_factor >= activation_load) returns the least-loaded feasible
  /// shard still under the line (ties to the lowest index), else -1.
  [[nodiscard]] int pick_salvage_shard(const workload::Job& job,
                                       int routed_shard) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  Router router_;
  std::unique_ptr<support::ThreadPool> pool_;  ///< null when threads == 1
  std::vector<ShardView> views_;
  std::uint64_t routed_ = 0;
  std::uint64_t spilled_ = 0;
  bool spill_enabled_ = false;
  core::OverloadConfig overload_;
  sim::SimTime last_submit_ = 0.0;
  bool finished_ = false;
};

}  // namespace librisk::federation
