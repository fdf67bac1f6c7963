#include "cluster/timeshared.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "helpers.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace librisk::cluster {
namespace {

using librisk::testing::JobBuilder;

struct Fixture {
  explicit Fixture(int nodes = 4, ShareModelConfig config = {})
      : cluster(Cluster::homogeneous(nodes, 1.0)),
        executor(simulator, cluster, config) {
    executor.set_completion_handler(
        [this](const Job& job, sim::SimTime t) { completions[job.id] = t; });
    executor.set_overrun_handler(
        [this](const Job& job, int bumps) { overruns[job.id] = bumps; });
  }
  sim::Simulator simulator;
  Cluster cluster;
  TimeSharedExecutor executor;
  std::map<std::int64_t, sim::SimTime> completions;
  std::map<std::int64_t, int> overruns;
};

ShareModelConfig strict_pacing() {
  ShareModelConfig c;
  c.mode = ExecutionMode::ProportionalPacing;
  c.work_conserving = false;
  return c;
}

TEST(TimeShared, SingleJobStrictPacingFinishesAtDeadline) {
  Fixture f(1, strict_pacing());
  const Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.executor.start(job, {0});
  f.simulator.run();
  // share = 100/400 = 0.25; the actual work of 100 at rate 0.25 takes 400 s.
  ASSERT_TRUE(f.completions.contains(1));
  EXPECT_NEAR(f.completions[1], 400.0, 1e-6);
}

TEST(TimeShared, SingleJobWorkConservingRunsFullSpeed) {
  ShareModelConfig c;
  c.work_conserving = true;
  Fixture f(1, c);
  const Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.executor.start(job, {0});
  f.simulator.run();
  EXPECT_NEAR(f.completions[1], 100.0, 1e-6);
}

TEST(TimeShared, EqualShareSplitsEvenly) {
  ShareModelConfig c;
  c.mode = ExecutionMode::EqualShare;
  Fixture f(1, c);
  const Job a = JobBuilder(1).set_runtime(100.0).deadline(1000.0).build();
  const Job b = JobBuilder(2).set_runtime(100.0).deadline(1000.0).build();
  f.executor.start(a, {0});
  f.executor.start(b, {0});
  f.simulator.run();
  // Both at rate 1/2 until both finish at t=200.
  EXPECT_NEAR(f.completions[1], 200.0, 1e-6);
  EXPECT_NEAR(f.completions[2], 200.0, 1e-6);
}

TEST(TimeShared, EqualShareShortJobReleasesCapacity) {
  ShareModelConfig c;
  c.mode = ExecutionMode::EqualShare;
  Fixture f(1, c);
  const Job small = JobBuilder(1).set_runtime(50.0).deadline(1000.0).build();
  const Job large = JobBuilder(2).set_runtime(200.0).deadline(1000.0).build();
  f.executor.start(small, {0});
  f.executor.start(large, {0});
  f.simulator.run();
  // Processor sharing: small finishes at 100; large at 100 + 150 = 250.
  EXPECT_NEAR(f.completions[1], 100.0, 1e-6);
  EXPECT_NEAR(f.completions[2], 250.0, 1e-6);
}

TEST(TimeShared, OverloadedNodeSqueezesProportionally) {
  Fixture f(1, strict_pacing());
  // Two jobs each demanding 0.75 => scaled to 0.5 each.
  const Job a = JobBuilder(1).set_runtime(75.0).deadline(100.0).build();
  const Job b = JobBuilder(2).set_runtime(75.0).deadline(100.0).build();
  f.executor.start(a, {0});
  f.executor.start(b, {0});
  f.simulator.run();
  // Both paced at 0.5: 75 work takes 150 s — past the 100 s deadline.
  EXPECT_NEAR(f.completions[1], 150.0, 1e-4);
  EXPECT_NEAR(f.completions[2], 150.0, 1e-4);
}

TEST(TimeShared, GangJobRunsAtMinimumRate) {
  Fixture f(2, strict_pacing());
  // Node 1 is loaded with a greedy job; the gang job must progress at the
  // squeezed rate on node 1 even though node 0 is free.
  const Job hog = JobBuilder(1).set_runtime(100.0).deadline(100.0).build();  // share 1
  f.executor.start(hog, {1});
  const Job gang = JobBuilder(2).set_runtime(50.0).deadline(100.0).procs(2).build();
  f.executor.start(gang, {0, 1});
  f.simulator.run();
  // On node 1: demands 1.0 and 0.5 -> gang gets (0.5/1.5) = 1/3 there, so
  // its lockstep rate is 1/3, not the 0.5 node 0 could give.
  ASSERT_TRUE(f.completions.contains(2));
  EXPECT_GT(f.completions[2], 50.0 / 0.5 - 1e-6);
}

TEST(TimeShared, OverrunBumpsEstimate) {
  Fixture f(1, strict_pacing());
  // User estimate 50, actual 100: the job exhausts its estimate and the
  // scheduler re-estimates (+10% of the original estimate per bump).
  const Job job =
      JobBuilder(1).estimate(50.0).set_runtime(100.0).deadline(200.0).build();
  f.executor.start(job, {0});
  f.simulator.run();
  ASSERT_TRUE(f.completions.contains(1));
  ASSERT_TRUE(f.overruns.contains(1));
  // 50 work remains after the estimate; bumps of 5 each => 10 bumps.
  EXPECT_EQ(f.overruns[1], 10);
  EXPECT_TRUE(f.executor.node_jobs(0).empty());
}

TEST(TimeShared, ViewExposesBeliefVsReality) {
  Fixture f(1, strict_pacing());
  const Job job =
      JobBuilder(1).estimate(50.0).set_runtime(100.0).deadline(400.0).build();
  f.executor.start(job, {0});
  // Run until the estimate is exhausted (paced at 50/400 = 0.125 => t=400).
  f.simulator.run_until(401.0);
  f.executor.sync();
  const TaskView v = f.executor.view(1);
  EXPECT_GT(v.overrun_bumps, 0);
  // Libra's raw belief: nothing remains. Reality: the bump keeps it alive.
  EXPECT_DOUBLE_EQ(v.remaining_estimate_raw(), 0.0);
  EXPECT_GT(v.remaining_estimate_current(), 0.0);
  EXPECT_LT(v.remaining_deadline(f.simulator.now()), 1.0);
}

TEST(TimeShared, NodeTotalShareRawVsCurrent) {
  Fixture f(1, strict_pacing());
  const Job job =
      JobBuilder(1).estimate(50.0).set_runtime(100.0).deadline(400.0).build();
  f.executor.start(job, {0});
  f.simulator.run_until(401.0);
  f.executor.sync();
  const double raw = f.executor.node_state(0, kStateSharesRaw).total_share_raw;
  const double current =
      f.executor.node_state(0, kStateSharesCurrent).total_share_current;
  EXPECT_NEAR(raw, 0.0, 1e-9);  // Libra believes the node is free
  EXPECT_GT(current, 1.0);      // reality: an overrun job at its deadline
}

TEST(TimeShared, AvailableCapacityTracksDemands) {
  Fixture f(1, strict_pacing());
  EXPECT_DOUBLE_EQ(f.executor.node_state(0, kStateCapacity).available_capacity,
                   1.0);
  const Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.executor.start(job, {0});
  EXPECT_NEAR(f.executor.node_state(0, kStateCapacity).available_capacity, 0.75,
              1e-9);
}

TEST(TimeShared, StartValidation) {
  Fixture f(4);
  const Job job = JobBuilder(1).set_runtime(10.0).deadline(20.0).procs(2).build();
  EXPECT_THROW(f.executor.start(job, {0}), CheckError);        // wrong count
  EXPECT_THROW(f.executor.start(job, {0, 0}), CheckError);     // duplicate node
  EXPECT_THROW(f.executor.start(job, {0, 5}), CheckError);     // out of range
  EXPECT_THROW(f.executor.start(job, {-1, 0}), CheckError);    // out of range
  const Job gang = JobBuilder(2).set_runtime(10.0).deadline(20.0).procs(3).build();
  EXPECT_THROW(f.executor.start(gang, {3, 1, 3}), CheckError);  // non-adjacent duplicate
  EXPECT_THROW(f.executor.start(gang, {1, 2, 1}), CheckError);  // right after a throw
  EXPECT_EQ(f.executor.running_count(), 0u);
  f.executor.start(job, {0, 1});
  EXPECT_THROW(f.executor.start(job, {0, 1}), CheckError);     // already running
  f.executor.start(gang, {3, 2, 1});  // the failed calls left no marks behind
  EXPECT_EQ(f.executor.running_count(), 2u);
  f.executor.check_invariants();
}

TEST(TimeShared, CompletionRemovesFromNodeLists) {
  Fixture f(2);
  const Job job = JobBuilder(1).set_runtime(10.0).deadline(100.0).procs(2).build();
  f.executor.start(job, {0, 1});
  EXPECT_EQ(f.executor.node_jobs(0).size(), 1u);
  EXPECT_EQ(f.executor.node_jobs(1).size(), 1u);
  EXPECT_TRUE(f.executor.is_running(1));
  f.simulator.run();
  EXPECT_FALSE(f.executor.is_running(1));
  EXPECT_TRUE(f.executor.node_jobs(0).empty());
  EXPECT_TRUE(f.executor.node_jobs(1).empty());
  EXPECT_EQ(f.executor.running_count(), 0u);
}

// The occupied-node index holds exactly the nodes with residents through
// a gang start, a completion and a kill (the randomized cache test below
// checks it after every operation through check_invariants()).
TEST(TimeShared, OccupiedNodesTrackResidents) {
  ShareModelConfig config;
  config.kill_at_estimate = true;
  Fixture f(6, config);
  std::vector<std::int64_t> killed;
  f.executor.set_kill_handler(
      [&](const Job& job, sim::SimTime) { killed.push_back(job.id); });
  const auto expect_index = [&](std::vector<NodeId> expected) {
    std::vector<NodeId> listed(f.executor.occupied_nodes().begin(),
                               f.executor.occupied_nodes().end());
    std::sort(listed.begin(), listed.end());
    std::vector<NodeId> resident;
    for (NodeId n = 0; n < f.cluster.size(); ++n)
      if (!f.executor.node_jobs(n).empty()) resident.push_back(n);
    EXPECT_EQ(listed, resident);
    EXPECT_EQ(listed, expected);
    f.executor.check_invariants();
  };
  const auto advance_to = [&](sim::SimTime t) {
    f.simulator.at(t, sim::EventPriority::Control, [] {});
    f.simulator.run_until(t);
  };
  expect_index({});

  const Job gang = JobBuilder(1).set_runtime(100.0).deadline(400.0).procs(3).build();
  const Job quick = JobBuilder(2).set_runtime(20.0).deadline(400.0).build();
  const Job doomed =
      JobBuilder(3).estimate(60.0).set_runtime(100.0).deadline(400.0).build();
  const Job partner = JobBuilder(4).set_runtime(100.0).deadline(400.0).build();
  f.executor.start(gang, {4, 1, 2});
  expect_index({1, 2, 4});
  f.executor.start(quick, {0});
  f.executor.start(doomed, {5});
  f.executor.start(partner, {1});  // a second resident adds no entry
  expect_index({0, 1, 2, 4, 5});

  advance_to(30.0);  // quick completes at t=20
  ASSERT_TRUE(f.completions.contains(2));
  expect_index({1, 2, 4, 5});
  advance_to(70.0);  // doomed is killed at its estimate, t=60
  ASSERT_EQ(killed, std::vector<std::int64_t>{3});
  expect_index({1, 2, 4});
  f.simulator.run();
  expect_index({});
}

TEST(TimeShared, DeliveredWorkAccounting) {
  Fixture f(2);
  const Job job = JobBuilder(1).set_runtime(10.0).deadline(100.0).procs(2).build();
  f.executor.start(job, {0, 1});
  f.simulator.run();
  // 10 reference-seconds of work on each of 2 nodes.
  EXPECT_NEAR(f.executor.delivered_node_seconds(), 20.0, 1e-6);
}

TEST(TimeShared, InvariantsHoldDuringRandomizedLoad) {
  Fixture f(4);
  rng::Stream stream(5);
  std::vector<Job> jobs;
  jobs.reserve(50);
  for (int i = 0; i < 50; ++i) {
    jobs.push_back(JobBuilder(i + 1)
                       .set_runtime(stream.uniform(10.0, 500.0))
                       .deadline(stream.uniform(600.0, 5000.0))
                       .build());
  }
  for (int i = 0; i < 50; ++i) {
    f.simulator.run_until(static_cast<double>(i) * 20.0);
    f.executor.start(jobs[i], {i % 4});
    f.executor.check_invariants();
  }
  f.simulator.run();
  f.executor.check_invariants();
  EXPECT_EQ(f.completions.size(), 50u);
}

// --- NodeStateView / epoch cache -----------------------------------------

// The full view's aggregates must agree exactly with single-part reads of
// the same node (which share its cache, so cross-check against
// hand-computed values too).
TEST(TimeShared, NodeStateAggregatesMatchAccessors) {
  Fixture f(2, strict_pacing());
  const NodeStateView& empty = f.executor.node_state(0);
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.total_share_raw, 0.0);
  EXPECT_DOUBLE_EQ(empty.total_share_current, 0.0);
  EXPECT_DOUBLE_EQ(empty.available_capacity, 1.0);
  EXPECT_EQ(empty.min_remaining_deadline, sim::kTimeInfinity);

  const Job a = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  const Job b = JobBuilder(2).set_runtime(50.0).deadline(1000.0).build();
  f.executor.start(a, {0});
  f.executor.start(b, {0});
  const NodeStateView& s = f.executor.node_state(0);
  ASSERT_EQ(s.count(), 2u);
  EXPECT_EQ(s.jobs[0]->id, 1);
  EXPECT_EQ(s.jobs[1]->id, 2);
  EXPECT_DOUBLE_EQ(s.total_share_raw,
                   f.executor.node_state(0, kStateSharesRaw).total_share_raw);
  EXPECT_DOUBLE_EQ(
      s.total_share_current,
      f.executor.node_state(0, kStateSharesCurrent).total_share_current);
  EXPECT_DOUBLE_EQ(s.available_capacity,
                   f.executor.node_state(0, kStateCapacity).available_capacity);
  // shares: 100/400 + 50/1000 = 0.25 + 0.05
  EXPECT_NEAR(s.total_share_raw, 0.30, 1e-12);
  EXPECT_DOUBLE_EQ(s.min_remaining_deadline, 400.0);
  // Untouched node unaffected.
  EXPECT_TRUE(f.executor.node_state(1).empty());
}

// A view read without the Columns part is aggregate-only: no per-resident
// spans, but the resident count and every requested aggregate; widening
// the request adds the columns without moving the aggregates.
TEST(TimeShared, AggregateOnlyViewKeepsCountAndTotals) {
  Fixture f(1, strict_pacing());
  const Job a = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  const Job b = JobBuilder(2).set_runtime(50.0).deadline(1000.0).build();
  f.executor.start(a, {0});
  f.executor.start(b, {0});
  const NodeStateView& bare =
      f.executor.node_state(0, kStateSharesRaw | kStateRiskAggregates);
  EXPECT_EQ(bare.count(), 2u);
  EXPECT_FALSE(bare.empty());
  EXPECT_TRUE(bare.jobs.empty());
  EXPECT_TRUE(bare.remaining_current.empty());
  EXPECT_TRUE(bare.rate.empty());
  EXPECT_EQ(bare.risk_current.count, 2u);
  const double total_raw = bare.total_share_raw;
  const double dd_sum = bare.risk_current.dd_sum;
  EXPECT_NEAR(total_raw, 0.30, 1e-12);

  const NodeStateView& full = f.executor.node_state(0);
  ASSERT_EQ(full.jobs.size(), 2u);
  EXPECT_EQ(full.remaining_raw.size(), 2u);
  EXPECT_EQ(full.total_share_raw, total_raw);
  EXPECT_EQ(full.risk_current.dd_sum, dd_sum);
  f.executor.check_invariants();
}

// Aggregates are time-dependent: after work advances, a re-query at the new
// now must reflect reduced remaining work and deadlines.
TEST(TimeShared, NodeStateRefreshesAfterTimeAdvances) {
  Fixture f(1, strict_pacing());
  const Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.executor.start(job, {0});
  const double share_before = f.executor.node_state(0).total_share_raw;
  // run_until only advances the clock to dispatched events, so plant one.
  f.simulator.at(200.0, sim::EventPriority::Control, [] {});
  f.simulator.run_until(200.0);
  f.executor.sync();
  const NodeStateView& s = f.executor.node_state(0);
  // Believed remaining 50 over remaining deadline 200: share unchanged at
  // 0.25 for strict pacing, but remaining_* fields must have moved.
  EXPECT_NEAR(s.remaining_raw[0], 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.remaining_deadline[0], 200.0);
  EXPECT_NEAR(s.total_share_raw, share_before, 1e-12);
  EXPECT_DOUBLE_EQ(s.min_remaining_deadline, 200.0);
}

// The epoch bumps on every mutation that can invalidate a view (start,
// completion, overrun) and stays put across no-op syncs.
TEST(TimeShared, StateEpochInvalidation) {
  ShareModelConfig c;
  c.mode = ExecutionMode::EqualShare;
  Fixture f(1, c);
  const std::uint64_t e0 = f.executor.state_epoch();
  f.executor.sync();  // nothing running, nothing advanced
  EXPECT_EQ(f.executor.state_epoch(), e0);

  // Overrun: estimate 50, actual 100 => bump fires at t=50.
  const Job job =
      JobBuilder(1).set_runtime(100.0).estimate(50.0).deadline(1000.0).build();
  f.executor.start(job, {0});
  const std::uint64_t e1 = f.executor.state_epoch();
  EXPECT_GT(e1, e0);
  (void)f.executor.node_state(0);  // prime the cache
  f.executor.sync();               // same instant: no work advanced
  EXPECT_EQ(f.executor.state_epoch(), e1);

  f.simulator.run_until(60.0);  // past the overrun bump at t=50
  const std::uint64_t e2 = f.executor.state_epoch();
  EXPECT_GT(e2, e1);
  EXPECT_EQ(f.overruns.count(1), 1u);

  f.simulator.run();  // completion
  EXPECT_GT(f.executor.state_epoch(), e2);
  EXPECT_TRUE(f.executor.node_state(0).empty());
  EXPECT_TRUE(f.completions.contains(1));
}

// An empty node's view is time-independent: it stays cached across time
// advances even though the epoch moves (work advanced elsewhere), while the
// populated node's view is rebuilt.
TEST(TimeShared, EmptyNodeViewStableAcrossTime) {
  Fixture f(2);
  const Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.executor.start(job, {0});
  const NodeStateView& idle = f.executor.node_state(1);
  EXPECT_TRUE(idle.empty());
  (void)f.executor.node_state(0);
  for (const double t : {10.0, 20.0}) {
    const std::uint64_t e = f.executor.state_epoch();
    const std::uint64_t rebuilds = f.executor.kernel_stats().view_rebuilds;
    f.simulator.at(t, sim::EventPriority::Control, [] {});
    f.simulator.run_until(t);
    f.executor.sync();  // work advanced on node 0 => epoch bumps
    EXPECT_GT(f.executor.state_epoch(), e);
    const NodeStateView& idle2 = f.executor.node_state(1);
    EXPECT_TRUE(idle2.empty());
    EXPECT_EQ(idle2.min_remaining_deadline, sim::kTimeInfinity);
    EXPECT_EQ(f.executor.kernel_stats().view_rebuilds, rebuilds)
        << "idle node rebuilt at t=" << t;
    (void)f.executor.node_state(0);
    EXPECT_EQ(f.executor.kernel_stats().view_rebuilds, rebuilds + 1)
        << "populated node served stale at t=" << t;
    f.executor.check_invariants();
  }
}

// A node that empties and refills at one instant: the empty view read in
// between is cached, and the start must still invalidate it (completion).
TEST(TimeShared, SameInstantCompletionThenStartShowsNewResident) {
  Fixture f(1);
  const Job a = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  const Job b = JobBuilder(2).submit(100.0).set_runtime(50.0).deadline(400.0).build();
  f.executor.start(a, {0});
  (void)f.executor.node_state(0);
  bool checked = false;
  // Work-conserving: `a` runs at rate 1 and completes at exactly t=100;
  // Completion-priority events run before Arrival ones at one instant.
  f.simulator.at(100.0, sim::EventPriority::Arrival, [&] {
    ASSERT_TRUE(f.completions.contains(1));
    EXPECT_TRUE(f.executor.node_state(0).empty());
    f.executor.check_invariants();
    f.executor.start(b, {0});
    const NodeStateView& s = f.executor.node_state(0);
    ASSERT_EQ(s.count(), 1u);
    EXPECT_EQ(s.jobs[0]->id, 2);
    EXPECT_DOUBLE_EQ(s.remaining_raw[0], 50.0);
    f.executor.check_invariants();
    checked = true;
  });
  f.simulator.run();
  EXPECT_TRUE(checked);
  EXPECT_NEAR(f.completions[2], 150.0, 1e-9);
}

// Same as above through the kill path, restarting from the kill handler.
TEST(TimeShared, SameInstantKillThenStartShowsNewResident) {
  ShareModelConfig c;
  c.kill_at_estimate = true;
  Fixture f(1, c);
  const Job a = JobBuilder(1).estimate(50.0).set_runtime(100.0).deadline(400.0).build();
  const Job b = JobBuilder(2).submit(50.0).set_runtime(20.0).deadline(400.0).build();
  bool checked = false;
  f.executor.set_kill_handler([&](const Job& job, sim::SimTime when) {
    ASSERT_EQ(job.id, 1);
    EXPECT_DOUBLE_EQ(when, 50.0);
    EXPECT_TRUE(f.executor.node_state(0).empty());
    f.executor.check_invariants();
    f.executor.start(b, {0});
    const NodeStateView& s = f.executor.node_state(0);
    ASSERT_EQ(s.count(), 1u);
    EXPECT_EQ(s.jobs[0]->id, 2);
    f.executor.check_invariants();
    checked = true;
  });
  f.executor.start(a, {0});
  (void)f.executor.node_state(0);
  f.simulator.run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(f.completions.contains(2));
}

// An overrun can fire in a settle that does not advance time. Three of four
// EqualShare residents complete one ulp of work before the fourth exhausts
// its estimate; its rate quadruples, which puts its new expiry boundary a
// quarter ulp after now, so it rounds onto the completion instant. The
// views and term memos read in the completion handlers must not outlive
// that overrun: only the overrun's own epoch bump invalidates them.
TEST(TimeShared, SameInstantOverrunInvalidatesViewsAndTerms) {
  ShareModelConfig c;
  c.mode = ExecutionMode::EqualShare;
  Fixture f(1, c);
  const double sliver = std::nextafter(50.0, 0.0);
  const Job doomed =
      JobBuilder(1).estimate(50.0).set_runtime(100.0).deadline(1000.0).build();
  std::deque<Job> quick;
  for (int id = 2; id <= 4; ++id)
    quick.push_back(JobBuilder(id).set_runtime(sliver).deadline(1000.0).build());
  std::vector<sim::SimTime> completed;
  sim::SimTime overran = -1.0;
  const auto read_all = [&] {
    (void)f.executor.node_state(0);
    f.executor.check_invariants();
  };
  f.executor.set_completion_handler([&](const Job&, sim::SimTime t) {
    completed.push_back(t);
    read_all();
  });
  f.executor.set_overrun_handler([&](const Job& job, int) {
    if (overran < 0.0) overran = f.simulator.now();
    EXPECT_EQ(job.id, 1);
    read_all();
  });
  f.executor.start(doomed, {0});
  for (const Job& job : quick) f.executor.start(job, {0});
  f.simulator.run_until(200.0);
  const sim::SimTime instant = std::nextafter(200.0, 0.0);
  ASSERT_EQ(completed, std::vector<sim::SimTime>(3, instant));
  EXPECT_EQ(overran, instant);  // same instant: no time advanced in between
  EXPECT_NEAR(f.executor.view(1).est_current, 55.0, 1e-9);
}

// Seeded random start / advance / overrun / kill sequences on a
// heterogeneous 16-node cluster. Between operations (and inside every
// completion, overrun and kill handler) random nodes are read with random
// parts, so caches of every shape exist when check_invariants() verifies
// that each view the cache would serve equals a from-scratch rebuild, that
// each memoised task term equals a fresh one, and that every rate equals
// the per-node reference. Gangs of up to 6 nodes cross the 3-speed
// interleave, so one task's nodes differ in speed, and equal-speed runs of
// several nodes occur too.
void run_random_cache_sequence(ShareModelConfig config, std::uint64_t seed) {
  constexpr int kNodes = 16;
  std::vector<NodeSpec> specs;
  for (int i = 0; i < kNodes; ++i)
    specs.push_back({i, 84.0 * static_cast<double>(1 + i % 3)});
  const Cluster cluster(std::move(specs), 168.0);
  sim::Simulator simulator;
  TimeSharedExecutor executor(simulator, cluster, config);
  rng::Stream stream(seed);
  std::uint64_t reads = 0;
  auto read_and_check = [&] {
    for (int k = 0; k < 6; ++k) {
      const auto node = static_cast<NodeId>(stream.uniform_int(0, kNodes - 1));
      const auto parts = static_cast<NodeStateParts>(stream.uniform_int(0, kStateAll));
      (void)executor.node_state(node, parts);
      ++reads;
    }
    executor.check_invariants();
  };
  std::size_t finished = 0;
  executor.set_completion_handler([&](const Job&, sim::SimTime) {
    ++finished;
    read_and_check();
  });
  executor.set_kill_handler([&](const Job&, sim::SimTime) {
    ++finished;
    read_and_check();
  });
  executor.set_overrun_handler([&](const Job&, int) { read_and_check(); });

  std::deque<Job> jobs;  // the executor keeps pointers: stable addresses
  std::vector<NodeId> all(kNodes);
  for (int i = 0; i < kNodes; ++i) all[static_cast<std::size_t>(i)] = i;
  for (int op = 0; op < 300; ++op) {
    if (stream.bernoulli(0.45)) {
      rng::shuffle(all, stream);
      const int procs = static_cast<int>(stream.uniform_int(1, 6));
      const double runtime = stream.uniform(5.0, 200.0);
      // A third under-estimate: they overrun (or are killed) mid-run.
      const double estimate =
          stream.bernoulli(1.0 / 3.0) ? runtime * stream.uniform(0.3, 0.9) : runtime;
      jobs.push_back(JobBuilder(op + 1)
                         .submit(simulator.now())
                         .estimate(std::max(estimate, 1.0))
                         .set_runtime(runtime)
                         .deadline(runtime * stream.uniform(0.8, 4.0))
                         .procs(procs)
                         .build());
      executor.start(jobs.back(),
                     std::vector<NodeId>(all.begin(), all.begin() + procs));
    } else {
      const double t = simulator.now() + stream.uniform(0.0, 40.0);
      simulator.at(t, sim::EventPriority::Control, [] {});
      simulator.run_until(t);
      // Mostly sync like the engine does; sometimes read unsynced.
      if (stream.bernoulli(0.8)) executor.sync();
    }
    read_and_check();
  }
  simulator.run();
  read_and_check();
  EXPECT_EQ(finished, jobs.size());
  EXPECT_LT(executor.kernel_stats().view_rebuilds, reads);
}

TEST(TimeShared, RandomizedViewCacheMatchesRebuild) {
  ShareModelConfig kill;
  kill.kill_at_estimate = true;
  ShareModelConfig equal;
  equal.mode = ExecutionMode::EqualShare;
  const std::pair<const char*, ShareModelConfig> configs[] = {
      {"overrun", ShareModelConfig{}},
      {"kill", kill},
      {"strict", strict_pacing()},
      {"equal-share", equal}};
  for (const auto& [name, config] : configs)
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << name << " seed " << seed);
      run_random_cache_sequence(config, seed);
    }
}

// How often a randomized class sequence saw classes form, split and merge.
struct ClassCoverage {
  int formed = 0;  ///< ops after which a class of >= 2 residents had >= 2 members
  int split = 0;   ///< ops that put two nodes of one class into different ones
  int merged = 0;  ///< ops that put occupied nodes of two classes into one
};

// Seeded random sequences on a 16-node cluster of 3 interleaved speeds in
// which some gangs start on nodes of a running gang, so that many nodes
// share a resident list. After every operation (and inside every handler)
// check_invariants() rebuilds each node's resident list from the tasks and
// compares it, the node's speed and every fresh class view with the node's
// class. Members of one class must be served the same view object.
void run_random_class_sequence(ShareModelConfig config, std::uint64_t seed,
                               ClassCoverage& coverage) {
  constexpr int kNodes = 16;
  std::vector<NodeSpec> specs;
  for (int i = 0; i < kNodes; ++i)
    specs.push_back({i, 84.0 * static_cast<double>(1 + i % 3)});
  const Cluster cluster(std::move(specs), 168.0);
  sim::Simulator simulator;
  TimeSharedExecutor executor(simulator, cluster, config);
  rng::Stream stream(seed);
  auto read_and_check = [&] {
    for (int k = 0; k < 6; ++k) {
      const auto node = static_cast<NodeId>(stream.uniform_int(0, kNodes - 1));
      const auto parts = static_cast<NodeStateParts>(stream.uniform_int(0, kStateAll));
      (void)executor.node_state(node, parts);
    }
    executor.check_invariants();
  };
  executor.set_completion_handler([&](const Job&, sim::SimTime) { read_and_check(); });
  executor.set_kill_handler([&](const Job&, sim::SimTime) { read_and_check(); });
  executor.set_overrun_handler([&](const Job&, int) { read_and_check(); });

  std::deque<Job> jobs;  // the executor keeps pointers: stable addresses
  std::vector<NodeId> all(kNodes);
  for (int i = 0; i < kNodes; ++i) all[static_cast<std::size_t>(i)] = i;
  std::vector<TimeSharedExecutor::ClassId> before(kNodes);
  for (int op = 0; op < 300; ++op) {
    for (NodeId n = 0; n < kNodes; ++n)
      before[static_cast<std::size_t>(n)] = executor.node_class(n);
    const double draw = stream.uniform(0.0, 1.0);
    if (draw < 0.55) {
      std::vector<NodeId> nodes;
      std::vector<const Job*> gangs;
      for (const Job& j : jobs)
        if (j.num_procs >= 2 && executor.is_running(j.id)) gangs.push_back(&j);
      if (draw < 0.25 && !gangs.empty()) {
        // Join some nodes of a running gang.
        nodes = executor.view(gangs[static_cast<std::size_t>(stream.uniform_int(
                                        0, static_cast<std::int64_t>(gangs.size()) - 1))]
                                  ->id)
                    .nodes;
        nodes.resize(static_cast<std::size_t>(
            stream.uniform_int(1, static_cast<std::int64_t>(nodes.size()))));
      } else {
        rng::shuffle(all, stream);
        nodes.assign(all.begin(), all.begin() + stream.uniform_int(1, 6));
      }
      const double runtime = stream.uniform(5.0, 200.0);
      const double estimate =
          stream.bernoulli(1.0 / 3.0) ? runtime * stream.uniform(0.3, 0.9) : runtime;
      jobs.push_back(JobBuilder(op + 1)
                         .submit(simulator.now())
                         .estimate(std::max(estimate, 1.0))
                         .set_runtime(runtime)
                         .deadline(runtime * stream.uniform(0.8, 4.0))
                         .procs(static_cast<int>(nodes.size()))
                         .build());
      executor.start(jobs.back(), std::move(nodes));
    } else {
      const double t = simulator.now() + stream.uniform(0.0, 40.0);
      simulator.at(t, sim::EventPriority::Control, [] {});
      simulator.run_until(t);
      if (stream.bernoulli(0.8)) executor.sync();
    }
    read_and_check();

    bool formed = false;
    bool split = false;
    bool merged = false;
    for (NodeId a = 0; a < kNodes; ++a) {
      const TimeSharedExecutor::ClassId ca = executor.node_class(a);
      for (NodeId b = a + 1; b < kNodes; ++b) {
        const TimeSharedExecutor::ClassId cb = executor.node_class(b);
        const bool was_same = before[static_cast<std::size_t>(a)] ==
                              before[static_cast<std::size_t>(b)];
        const bool occupied = !executor.node_jobs(a).empty();
        if (ca == cb) {
          ASSERT_EQ(&executor.node_state(a, 0), &executor.node_state(b, 0));
          formed = formed || executor.node_jobs(a).size() >= 2;
          merged = merged || (occupied && !was_same);
        } else {
          split = split || was_same;
        }
      }
      EXPECT_EQ(executor.class_speed(ca), cluster.speed_factor(a));
    }
    coverage.formed += formed ? 1 : 0;
    coverage.split += split ? 1 : 0;
    coverage.merged += merged ? 1 : 0;
  }
  simulator.run();
  read_and_check();
  // Drained: every node is back in the empty class of its speed.
  int idle = 0;
  for (const TimeSharedExecutor::ClassId c : executor.empty_classes())
    idle += executor.class_size(c);
  EXPECT_EQ(idle, kNodes);
}

TEST(TimeShared, RandomizedNodeClassesMatchRebuild) {
  ShareModelConfig kill;
  kill.kill_at_estimate = true;
  ShareModelConfig equal;
  equal.mode = ExecutionMode::EqualShare;
  const std::pair<const char*, ShareModelConfig> configs[] = {
      {"overrun", ShareModelConfig{}},
      {"kill", kill},
      {"strict", strict_pacing()},
      {"equal-share", equal}};
  ClassCoverage coverage;
  for (const auto& [name, config] : configs)
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << name << " seed " << seed);
      run_random_class_sequence(config, seed, coverage);
    }
  EXPECT_GT(coverage.formed, 0);
  EXPECT_GT(coverage.split, 0);
  EXPECT_GT(coverage.merged, 0);
}

TEST(TimeShared, HeterogeneousNodeSpeedsScaleRates) {
  sim::Simulator simulator;
  const Cluster cluster({{0, 2.0}}, 1.0);  // node twice the reference speed
  ShareModelConfig config;
  config.work_conserving = true;
  TimeSharedExecutor executor(simulator, cluster, config);
  std::map<std::int64_t, sim::SimTime> done;
  executor.set_completion_handler(
      [&](const Job& job, sim::SimTime t) { done[job.id] = t; });
  const Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  executor.start(job, {0});
  simulator.run();
  EXPECT_NEAR(done[1], 50.0, 1e-6);  // full speed at factor 2
}

}  // namespace
}  // namespace librisk::cluster
