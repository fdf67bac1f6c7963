// Federation tests: router policy semantics over synthetic load views, and
// the two load-bearing equivalences for the federated meta-scheduler —
//
//   (1) K = 1 is byte-identical (.lrt decision traces) to a standalone
//       streaming engine: the federation adds nothing but routing.
//   (2) A K-shard run equals K standalone runs over the per-shard job
//       subsequences (split equivalence): shards really are independent.
//
// Plus the determinism contract (results bitwise independent of worker
// thread count and repeatable under fixed seeds, including the stateful
// Affinity and RandomTwoChoice policies), conservation of jobs across
// shards, the merged prefixed-metrics export, and lifecycle CHECKs.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/engine.hpp"
#include "federation/federation.hpp"
#include "federation/router.hpp"
#include "helpers.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "workload/partition.hpp"
#include "workload/synthetic.hpp"

namespace librisk {
namespace {

using federation::Federation;
using federation::FederationConfig;
using federation::RoutePolicy;
using federation::Router;
using federation::ShardConfig;
using federation::ShardView;
using testing::JobBuilder;

constexpr double kReferenceRating = 168.0;

std::vector<workload::Job> paper_jobs(int count, std::uint64_t seed = 1) {
  workload::PaperWorkloadConfig w;
  w.trace.job_count = count;
  return workload::make_paper_workload(w, seed);
}

/// Owning-mode shard over `nodes` processors of one SPEC rating, normalised
/// against the shared federation reference so ratings translate into real
/// speed differences (Cluster::homogeneous would neutralise them).
ShardConfig make_shard(int nodes, double rating = kReferenceRating,
                       core::Policy policy = core::Policy::LibraRisk) {
  std::vector<cluster::NodeSpec> specs;
  specs.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n)
    specs.push_back({.id = n, .rating = rating});
  ShardConfig sc;
  sc.engine.cluster = cluster::Cluster(std::move(specs), kReferenceRating);
  sc.engine.policy = policy;
  sc.price = rating / kReferenceRating;
  return sc;
}

FederationConfig make_federation_config(std::size_t shards, int nodes_each,
                                        RoutePolicy route,
                                        std::size_t threads = 1) {
  FederationConfig config;
  for (std::size_t k = 0; k < shards; ++k)
    config.shards.push_back(make_shard(nodes_each));
  config.route = route;
  config.threads = threads;
  return config;
}

/// One-processor probe job; the router only reads num_procs and user_id.
workload::Job probe(std::int64_t id, int procs = 1, int user = -1) {
  workload::Job job = JobBuilder(id).procs(procs);
  job.user_id = user;
  return job;
}

ShardView view(int shard, int nodes, double inflight_share,
               double total_speed = 32.0, double price = 1.0) {
  ShardView v;
  v.shard = shard;
  v.nodes = nodes;
  v.total_speed = total_speed;
  v.inflight_share = inflight_share;
  v.price = price;
  return v;
}

// ---------------------------------------------------------------------------
// RoutePolicy names

TEST(RoutePolicy, ToStringParseRoundTrip) {
  for (const RoutePolicy policy : federation::all_route_policies()) {
    const auto parsed = federation::parse_route_policy(
        federation::to_string(policy));
    ASSERT_TRUE(parsed.has_value()) << federation::to_string(policy);
    EXPECT_EQ(*parsed, policy);
  }
}

TEST(RoutePolicy, ParseRejectsUnknownAndWrongCase) {
  EXPECT_FALSE(federation::parse_route_policy("NoSuchPolicy").has_value());
  EXPECT_FALSE(federation::parse_route_policy("leastrisk").has_value());
  EXPECT_FALSE(federation::parse_route_policy("").has_value());
}

// ---------------------------------------------------------------------------
// Router unit semantics over synthetic views

TEST(Router, RoundRobinCyclesThroughFeasibleShards) {
  Router router(RoutePolicy::RoundRobin);
  const std::vector<ShardView> views = {view(0, 32, 0.0), view(1, 32, 0.0),
                                        view(2, 32, 0.0)};
  EXPECT_EQ(router.route(probe(1), views), 0);
  EXPECT_EQ(router.route(probe(2), views), 1);
  EXPECT_EQ(router.route(probe(3), views), 2);
  EXPECT_EQ(router.route(probe(4), views), 0);
}

TEST(Router, RoundRobinSkipsInfeasibleShards) {
  Router router(RoutePolicy::RoundRobin);
  // Shard 1 has 2 nodes: never feasible for 4-processor jobs.
  const std::vector<ShardView> views = {view(0, 32, 0.0), view(1, 2, 0.0),
                                        view(2, 32, 0.0)};
  EXPECT_EQ(router.route(probe(1, 4), views), 0);
  EXPECT_EQ(router.route(probe(2, 4), views), 2);
  EXPECT_EQ(router.route(probe(3, 4), views), 0);
}

TEST(Router, InfeasibleEverywhereFallsBackToLargestShard) {
  // No shard fits 64 processors: the job goes to the largest shard so the
  // rejection lands where it is least absurd; ties break low.
  for (const RoutePolicy policy : federation::all_route_policies()) {
    Router router(policy);
    const std::vector<ShardView> views = {view(0, 8, 0.0), view(1, 16, 0.0),
                                          view(2, 16, 5.0)};
    EXPECT_EQ(router.route(probe(1, 64), views), 1)
        << federation::to_string(policy);
  }
}

TEST(Router, LeastRiskPicksLowestLoadFactor) {
  Router router(RoutePolicy::LeastRisk);
  // Load factors: 0.5, 0.25, 0.75 — shard 1 has the most headroom.
  const std::vector<ShardView> views = {view(0, 32, 16.0), view(1, 32, 8.0),
                                        view(2, 32, 24.0)};
  EXPECT_EQ(router.route(probe(1), views), 1);
}

TEST(Router, LeastRiskTiesBreakTowardLowestIndex) {
  Router router(RoutePolicy::LeastRisk);
  const std::vector<ShardView> views = {view(0, 32, 8.0), view(1, 32, 8.0)};
  EXPECT_EQ(router.route(probe(1), views), 0);
  EXPECT_EQ(router.route(probe(2), views), 0);
}

TEST(Router, PriceWeightedPrefersCheapRiskAdjustedOffers) {
  Router router(RoutePolicy::PriceWeighted);
  // Scores price * (1 + load): 1.0 * 1.5 = 1.5 vs 0.8 * 1.25 = 1.0 — the
  // cheaper shard wins even though both carry load.
  const std::vector<ShardView> views = {
      view(0, 32, 16.0, 32.0, 1.0), view(1, 32, 8.0, 32.0, 0.8)};
  EXPECT_EQ(router.route(probe(1), views), 1);

  // A high-enough load premium overcomes a price discount:
  // 1.0 * 1.0 = 1.0 vs 0.8 * 2.0 = 1.6.
  const std::vector<ShardView> loaded = {
      view(0, 32, 0.0, 32.0, 1.0), view(1, 32, 32.0, 32.0, 0.8)};
  EXPECT_EQ(router.route(probe(2), loaded), 0);
}

TEST(Router, AffinityPinsUsersAndSpillsWithoutRepinning) {
  Router router(RoutePolicy::Affinity);
  const std::vector<ShardView> views = {view(0, 32, 0.0), view(1, 32, 0.0),
                                        view(2, 4, 0.0)};
  const int home = router.route(probe(1, 1, /*user=*/7), views);
  // Same user sticks to the same shard regardless of load shifts.
  std::vector<ShardView> shifted = views;
  shifted[static_cast<std::size_t>(home)].inflight_share = 100.0;
  EXPECT_EQ(router.route(probe(2, 1, 7), shifted), home);
  // A job too wide for the home shard spills elsewhere...
  std::vector<ShardView> narrow_home = views;
  for (ShardView& v : narrow_home)
    v.nodes = v.shard == home ? 2 : 32;
  const int spill = router.route(probe(3, 8, 7), narrow_home);
  EXPECT_NE(spill, home);
  // ...without re-pinning: the next narrow job goes home again.
  EXPECT_EQ(router.route(probe(4, 1, 7), views), home);
}

TEST(Router, RandomTwoChoiceIsSeedDeterministic) {
  const std::vector<ShardView> views = {view(0, 32, 4.0), view(1, 32, 12.0),
                                        view(2, 32, 0.0), view(3, 32, 8.0)};
  Router a(RoutePolicy::RandomTwoChoice, 42);
  Router b(RoutePolicy::RandomTwoChoice, 42);
  Router c(RoutePolicy::RandomTwoChoice, 43);
  std::vector<int> seq_a, seq_b, seq_c;
  for (std::int64_t id = 0; id < 64; ++id) {
    seq_a.push_back(a.route(probe(id), views));
    seq_b.push_back(b.route(probe(id), views));
    seq_c.push_back(c.route(probe(id), views));
  }
  EXPECT_EQ(seq_a, seq_b) << "same seed, same decisions";
  EXPECT_NE(seq_a, seq_c) << "different seed should diverge on 64 draws";
}

TEST(Router, RandomTwoChoicePicksTheLessLoadedOfItsPair) {
  // With two shards the sampled pair is always {0, 1} or a degenerate
  // single shard, so the pick can never be the strictly more loaded one
  // unless both samples landed on it.
  Router router(RoutePolicy::RandomTwoChoice, 7);
  const std::vector<ShardView> views = {view(0, 32, 0.0), view(1, 32, 30.0)};
  int picked_loaded = 0;
  for (std::int64_t id = 0; id < 200; ++id)
    picked_loaded += router.route(probe(id), views) == 1 ? 1 : 0;
  // P(both samples hit shard 1) = 1/4: the loaded shard gets ~25%, never a
  // majority. The bound is loose (99.99%+ confidence) to stay seed-robust.
  EXPECT_LT(picked_loaded, 100);
  EXPECT_GT(picked_loaded, 0) << "degenerate pairs must still occur";
}

// ---------------------------------------------------------------------------
// Federation equivalences

struct TracedFederationRun {
  std::vector<std::string> lrt;     ///< per-shard decision-trace bytes
  std::vector<int> assignment;      ///< job index -> shard
  federation::FederationSummary summary;
};

/// Runs `jobs` through a federation with a BinarySink recorder on every
/// shard, returning per-shard trace bytes + the routing assignment.
TracedFederationRun run_traced_federation(FederationConfig config,
                                          const std::vector<workload::Job>& jobs) {
  const std::size_t shards = config.shards.size();
  std::vector<std::ostringstream> streams(shards);
  std::vector<std::unique_ptr<trace::BinarySink>> sinks;
  std::vector<std::unique_ptr<trace::Recorder>> recorders;
  for (std::size_t k = 0; k < shards; ++k) {
    sinks.push_back(std::make_unique<trace::BinarySink>(
        streams[k], trace::TraceMeta{"LibraRisk", 1}));
    recorders.push_back(std::make_unique<trace::Recorder>(*sinks[k]));
    config.shards[k].engine.options.hooks.trace = recorders[k].get();
  }

  Federation fed(std::move(config));
  TracedFederationRun run;
  run.assignment.reserve(jobs.size());
  for (const workload::Job& job : jobs)
    run.assignment.push_back(fed.submit(job).shard);
  fed.finish();
  run.summary = fed.summary();
  for (std::size_t k = 0; k < shards; ++k) {
    sinks[k]->close();
    run.lrt.push_back(streams[k].str());
  }
  return run;
}

TEST(Federation, SingleShardIsByteIdenticalToStreamingEngine) {
  const std::vector<workload::Job> jobs = paper_jobs(300);

  // Standalone streaming engine, same cluster and policy.
  std::ostringstream os;
  trace::BinarySink sink(os, {"LibraRisk", 1});
  trace::Recorder recorder(sink);
  core::EngineConfig config;
  config.cluster = cluster::Cluster::homogeneous(32, kReferenceRating);
  config.policy = core::Policy::LibraRisk;
  config.options.hooks.trace = &recorder;
  const auto engine = core::make_engine(std::move(config));
  for (const workload::Job& job : jobs) {
    engine->advance_to(job.submit_time);
    engine->submit(job);
  }
  engine->finish();
  sink.close();

  for (const RoutePolicy policy : federation::all_route_policies()) {
    SCOPED_TRACE(federation::to_string(policy));
    const TracedFederationRun run = run_traced_federation(
        make_federation_config(1, 32, policy), jobs);
    ASSERT_EQ(run.lrt.size(), 1u);
    EXPECT_EQ(run.lrt[0], os.str()) << "K=1 federation must not perturb the "
                                       "engine's decision trace";
    EXPECT_EQ(run.summary.total.fulfilled, engine->summary().fulfilled);
    EXPECT_EQ(run.summary.total.submitted, jobs.size());
  }
}

TEST(Federation, SplitEquivalenceAgainstStandaloneShards) {
  // A K-shard federation run must equal K standalone streaming runs over
  // the per-shard job subsequences, byte-for-byte at the .lrt level: the
  // federation's extra advance_to barriers (at other shards' arrival
  // times) only move the clock, never reorder events.
  const std::vector<workload::Job> jobs = paper_jobs(300);
  constexpr std::size_t kShards = 3;
  const TracedFederationRun run = run_traced_federation(
      make_federation_config(kShards, 32, RoutePolicy::LeastRisk), jobs);

  const std::vector<std::vector<workload::Job>> parts =
      workload::partition_by_assignment(jobs, run.assignment, kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    std::ostringstream os;
    trace::BinarySink sink(os, {"LibraRisk", 1});
    trace::Recorder recorder(sink);
    core::EngineConfig config;
    config.cluster = cluster::Cluster::homogeneous(32, kReferenceRating);
    config.policy = core::Policy::LibraRisk;
    config.options.hooks.trace = &recorder;
    const auto engine = core::make_engine(std::move(config));
    for (const workload::Job& job : parts[k]) {
      engine->advance_to(job.submit_time);
      engine->submit(job);
    }
    engine->finish();
    sink.close();

    EXPECT_EQ(run.lrt[k], os.str());
    EXPECT_EQ(run.summary.shards[k].routed, parts[k].size());
    EXPECT_EQ(run.summary.shards[k].summary.fulfilled,
              engine->summary().fulfilled);
  }
}

TEST(Federation, ConservesEveryJobExactlyOnce) {
  const std::vector<workload::Job> jobs = paper_jobs(250);
  const TracedFederationRun run = run_traced_federation(
      make_federation_config(4, 32, RoutePolicy::RandomTwoChoice), jobs);

  EXPECT_EQ(run.summary.routed, jobs.size());
  EXPECT_EQ(run.summary.total.submitted, jobs.size());
  std::size_t shard_submitted = 0;
  std::uint64_t shard_routed = 0;
  for (const federation::ShardSummary& ss : run.summary.shards) {
    shard_submitted += ss.summary.submitted;
    shard_routed += ss.routed;
    EXPECT_EQ(ss.summary.submitted, ss.routed)
        << ss.name << ": every routed job reaches that shard's collector";
  }
  EXPECT_EQ(shard_submitted, jobs.size());
  EXPECT_EQ(shard_routed, jobs.size());
  const metrics::RunSummary& total = run.summary.total;
  EXPECT_EQ(total.fulfilled + total.completed_late + total.killed +
                total.rejected_at_submit + total.rejected_at_dispatch,
            jobs.size())
      << "every job resolves to exactly one fate";
}

TEST(Federation, InflightShareReturnsToExactlyZero) {
  // Each shard adds a routed job's share when the job is admitted and
  // subtracts it when the job resolves. After finish() every shard is idle,
  // so its ledger must read exactly 0.0, not a rounding residue: LeastRisk
  // and the spill lane break load ties toward the lowest index, which holds
  // only if idle shards tie exactly. Every 7th job is near-instant
  // (Job::validate requires runtime > 0), and jobs rejected at submit
  // resolve before the add is reached.
  std::vector<workload::Job> jobs = paper_jobs(2000);
  for (std::size_t i = 6; i < jobs.size(); i += 7) jobs[i].actual_runtime = 1e-9;
  for (const RoutePolicy policy :
       {RoutePolicy::RoundRobin, RoutePolicy::LeastRisk}) {
    SCOPED_TRACE(federation::to_string(policy));
    FederationConfig config = make_federation_config(3, 16, policy);
    std::vector<std::unique_ptr<obs::Telemetry>> hubs;
    for (ShardConfig& shard : config.shards) {
      hubs.push_back(std::make_unique<obs::Telemetry>());
      shard.engine.options.hooks.telemetry = hubs.back().get();
    }
    Federation fed(std::move(config));
    for (const workload::Job& job : jobs) fed.submit(job);
    fed.finish();

    const federation::FederationSummary summary = fed.summary();
    EXPECT_GT(summary.total.rejected_at_submit, 0u);
    for (std::size_t k = 0; k < hubs.size(); ++k) {
      SCOPED_TRACE("shard " + std::to_string(k));
      const obs::Registry& reg = hubs[k]->registry();
      EXPECT_GT(summary.shards[k].routed, 0u);
      EXPECT_EQ(reg.reading("federation_inflight_share").value, 0.0);
      EXPECT_EQ(reg.reading("federation_live_jobs").value, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: repeats, seeds, and worker-thread counts

TEST(Federation, StatefulPoliciesAreReproducibleAcrossRunsAndThreadCounts) {
  const std::vector<workload::Job> jobs = paper_jobs(250);
  for (const RoutePolicy policy :
       {RoutePolicy::RandomTwoChoice, RoutePolicy::Affinity}) {
    SCOPED_TRACE(federation::to_string(policy));
    FederationConfig base = make_federation_config(4, 16, policy);
    base.route_seed = 11;
    const TracedFederationRun reference =
        run_traced_federation(std::move(base), jobs);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      FederationConfig config =
          make_federation_config(4, 16, policy, threads);
      config.route_seed = 11;
      const TracedFederationRun repeat =
          run_traced_federation(std::move(config), jobs);
      EXPECT_EQ(repeat.assignment, reference.assignment);
      EXPECT_EQ(repeat.lrt, reference.lrt)
          << "per-shard decision traces must be bitwise independent of the "
             "worker thread count";
      EXPECT_EQ(repeat.summary.total.fulfilled,
                reference.summary.total.fulfilled);
    }
  }
}

// ---------------------------------------------------------------------------
// Heterogeneous routing quality

TEST(Federation, LeastRiskBeatsRoundRobinOnHeterogeneousShards) {
  // Four shards, SPEC ratings alternating half/1.5x the reference: load-
  // blind round-robin sends half the jobs to machines that run them twice
  // as slowly as promised, while LeastRisk reads the share headroom and
  // shifts work toward the fast shards. The margin is large (several
  // percentage points of fulfilled jobs, see BENCH_federation.json), so
  // asserting the strict ordering is seed-robust.
  const std::vector<workload::Job> jobs = paper_jobs(400, 3);
  const std::vector<double> ratings = {84.0, 252.0, 84.0, 252.0};

  auto run_with = [&](RoutePolicy policy) {
    FederationConfig config;
    for (const double rating : ratings)
      config.shards.push_back(make_shard(16, rating));
    config.route = policy;
    Federation fed(std::move(config));
    for (const workload::Job& job : jobs) fed.submit(job);
    fed.finish();
    return fed.summary();
  };

  const federation::FederationSummary least = run_with(RoutePolicy::LeastRisk);
  const federation::FederationSummary rr = run_with(RoutePolicy::RoundRobin);
  EXPECT_GT(least.total.fulfilled, rr.total.fulfilled)
      << "LeastRisk " << least.total.fulfilled_pct << "% vs RoundRobin "
      << rr.total.fulfilled_pct << "%";
}

// ---------------------------------------------------------------------------
// Merged telemetry export and accessors

TEST(Federation, MergedMetricsExportIsPrefixedPerShard) {
  const std::vector<workload::Job> jobs = paper_jobs(120);
  FederationConfig config = make_federation_config(2, 16, RoutePolicy::RoundRobin);
  config.shards[0].name = "east";
  config.shards[1].name = "west";
  Federation fed(std::move(config));
  for (const workload::Job& job : jobs) fed.submit(job);
  fed.finish();

  EXPECT_EQ(fed.shard_name(0), "east");
  EXPECT_EQ(fed.shard_name(1), "west");
  EXPECT_EQ(fed.engine(0).jobs_submitted() + fed.engine(1).jobs_submitted(),
            jobs.size());

  std::ostringstream om;
  fed.write_openmetrics(om);
  const std::string out = om.str();
  EXPECT_NE(out.find("east_federation_routed"), std::string::npos);
  EXPECT_NE(out.find("west_federation_routed"), std::string::npos);
  EXPECT_NE(out.find("east_federation_inflight_share"), std::string::npos);
  EXPECT_NE(out.find("# EOF"), std::string::npos);

  const table::Table table = fed.metrics_table();
  EXPECT_GT(table.rows(), 0u);

  EXPECT_THROW((void)fed.engine(2), CheckError);
  EXPECT_THROW((void)fed.shard_name(2), CheckError);
}

// ---------------------------------------------------------------------------
// Lifecycle CHECKs

TEST(Federation, RejectsEmptyAndBorrowedShardConfigs) {
  EXPECT_THROW(Federation{FederationConfig{}}, CheckError);

  // A borrowed-mode shard would share caller components across shards.
  sim::Simulator simulator;
  metrics::Collector collector;
  const auto cluster = cluster::Cluster::homogeneous(8, kReferenceRating);
  const auto stack = core::make_scheduler(core::Policy::LibraRisk, simulator,
                                          cluster, collector, {});
  FederationConfig config;
  ShardConfig borrowed;
  borrowed.engine.simulator = &simulator;
  borrowed.engine.scheduler = &stack->scheduler();
  borrowed.engine.collector = &collector;
  config.shards.push_back(std::move(borrowed));
  EXPECT_THROW(Federation{std::move(config)}, CheckError);
}

TEST(Federation, RejectsSubmitAfterFinishAndOutOfOrderArrivals) {
  Federation fed(make_federation_config(2, 8, RoutePolicy::RoundRobin));
  fed.submit(JobBuilder(1).submit(100.0));
  EXPECT_THROW(fed.submit(JobBuilder(2).submit(50.0)), CheckError)
      << "arrivals must be monotone in submit time";
  fed.finish();
  fed.finish();  // idempotent
  EXPECT_THROW(fed.submit(JobBuilder(3).submit(200.0)), CheckError);
}

}  // namespace
}  // namespace librisk
