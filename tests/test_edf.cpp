#include "core/spaceshared.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace librisk::core {
namespace {

using librisk::testing::JobBuilder;

struct Fixture {
  explicit Fixture(int nodes, DispatchConfig config = DispatchConfig{})
      : cluster(cluster::Cluster::homogeneous(nodes, 1.0)),
        executor(simulator, cluster),
        scheduler(simulator, executor, collector, config, "EDF") {}

  void submit(const workload::Job& job) {
    collector.record_submitted(job, simulator.now());
    scheduler.on_job_submitted(job);
  }

  sim::Simulator simulator;
  cluster::Cluster cluster;
  cluster::SpaceSharedExecutor executor;
  metrics::Collector collector;
  SpaceSharedScheduler scheduler;
};

TEST(Edf, RunsImmediatelyWhenNodesFree) {
  Fixture f(2);
  const workload::Job job = JobBuilder(1).set_runtime(100.0).deadline(300.0).build();
  f.submit(job);
  EXPECT_TRUE(f.executor.is_running(1));
  f.simulator.run();
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::FulfilledInTime);
  EXPECT_NEAR(f.collector.record(1).finish_time, 100.0, 1e-9);
}

TEST(Edf, QueuesWhenBusyAndRunsEarliestDeadlineFirst) {
  Fixture f(1);
  const workload::Job running = JobBuilder(1).set_runtime(100.0).deadline(300.0).build();
  f.submit(running);
  // Two queued jobs; the later-submitted one has the earlier deadline.
  const workload::Job loose = JobBuilder(2).set_runtime(10.0).deadline(5000.0).build();
  const workload::Job tight = JobBuilder(3).set_runtime(10.0).deadline(200.0).build();
  f.submit(loose);
  f.submit(tight);
  EXPECT_EQ(f.scheduler.queue_length(), 2u);
  f.simulator.run();
  // tight (deadline 200) must start before loose (deadline 5000).
  EXPECT_LT(f.collector.record(3).start_time, f.collector.record(2).start_time);
  EXPECT_EQ(f.collector.record(3).fate, metrics::JobFate::FulfilledInTime);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::FulfilledInTime);
}

TEST(Edf, RelaxedAdmissionRejectsOnlyAtSelection) {
  Fixture f(1);
  const workload::Job running = JobBuilder(1).set_runtime(100.0).deadline(300.0).build();
  f.submit(running);
  // This job's deadline can only be met if it starts within 10 s — but the
  // node is busy for 100 s. It is NOT rejected at submission...
  const workload::Job doomed = JobBuilder(2).set_runtime(90.0).deadline(100.0).build();
  f.submit(doomed);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::Pending);
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
  // ...only when selected for execution at t=100.
  f.simulator.run();
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtDispatch);
}

TEST(Edf, WaitingHeadCanBeDisplacedByEarlierDeadline) {
  Fixture f(2);
  // Occupy one node; the 2-node head job must wait.
  const workload::Job occupant = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.submit(occupant);
  const workload::Job head =
      JobBuilder(2).set_runtime(10.0).deadline(300.0).procs(2).build();
  f.submit(head);
  EXPECT_FALSE(f.executor.is_running(2));
  // A later arrival with an earlier deadline fits on the free node and runs
  // first — the paper's "reselection during the waiting phase".
  const workload::Job urgent = JobBuilder(3).set_runtime(10.0).deadline(50.0).build();
  f.submit(urgent);
  EXPECT_TRUE(f.executor.is_running(3));
  f.simulator.run();
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::FulfilledInTime);
}

TEST(Edf, HeadOfLineBlocksSmallerLaterDeadlineJobs) {
  Fixture f(2);
  const workload::Job occupant = JobBuilder(1).set_runtime(100.0).deadline(220.0).build();
  f.submit(occupant);
  const workload::Job head =
      JobBuilder(2).set_runtime(10.0).deadline(300.0).procs(2).build();
  f.submit(head);
  // Fits on the free node but has a *later* deadline than the head: EDF is
  // non-backfilling, so it must wait behind the head.
  const workload::Job blocked = JobBuilder(3).set_runtime(10.0).deadline(5000.0).build();
  f.submit(blocked);
  EXPECT_FALSE(f.executor.is_running(3));
  f.simulator.run();
  EXPECT_GE(f.collector.record(3).start_time, f.collector.record(2).start_time);
}

TEST(Edf, RejectsExpiredDeadlineAtSelection) {
  Fixture f(1);
  const workload::Job running = JobBuilder(1).set_runtime(500.0).deadline(1500.0).build();
  f.submit(running);
  const workload::Job expired = JobBuilder(2).set_runtime(10.0).deadline(100.0).build();
  f.submit(expired);
  f.simulator.run();
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtDispatch);
}

TEST(Edf, OversizedRequestRejectedAtSubmit) {
  Fixture f(2);
  const workload::Job job =
      JobBuilder(1).set_runtime(10.0).deadline(100.0).procs(3).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(Edf, UsesEstimateNotActualForAdmission) {
  Fixture f(1);
  // Estimate says the deadline is impossible; actual runtime would fit.
  const workload::Job job =
      JobBuilder(1).estimate(500.0).set_runtime(50.0).deadline(100.0).build();
  f.submit(job);
  f.simulator.run();
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtDispatch);
}

TEST(EdfNoAC, RunsEverythingEvenLate) {
  Fixture f(1, DispatchConfig{.deadline_test = false, .overload = {}});
  const workload::Job a = JobBuilder(1).set_runtime(100.0).deadline(150.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(100.0).deadline(150.0).build();
  f.submit(a);
  f.submit(b);
  f.simulator.run();
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::FulfilledInTime);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::CompletedLate);
  EXPECT_NEAR(f.collector.record(2).finish_time, 200.0, 1e-9);
}

TEST(EdfBackfill, FillsTheShadowWindow) {
  Fixture f(2, DispatchConfig{.backfilling = true, .overload = {}});
  const workload::Job occupant = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.submit(occupant);
  const workload::Job head =
      JobBuilder(2).set_runtime(10.0).deadline(300.0).procs(2).build();
  f.submit(head);
  // Later deadline, but finishes (by estimate) before the head could start:
  // plain EDF would block it; EDF-BF backfills it.
  const workload::Job filler = JobBuilder(3).set_runtime(50.0).deadline(5000.0).build();
  f.submit(filler);
  EXPECT_TRUE(f.executor.is_running(3));
  f.simulator.run();
  EXPECT_NEAR(f.collector.record(2).start_time, 100.0, 1e-9);  // head on time
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::FulfilledInTime);
}

TEST(EdfBackfill, RefusesBackfillThatWouldDelayHead) {
  Fixture f(2, DispatchConfig{.backfilling = true, .overload = {}});
  const workload::Job occupant = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.submit(occupant);
  const workload::Job head =
      JobBuilder(2).set_runtime(10.0).deadline(300.0).procs(2).build();
  f.submit(head);
  const workload::Job toolong = JobBuilder(3).set_runtime(150.0).deadline(5000.0).build();
  f.submit(toolong);
  EXPECT_FALSE(f.executor.is_running(3));
  f.simulator.run();
  EXPECT_NEAR(f.collector.record(2).start_time, 100.0, 1e-9);
}

TEST(EdfBackfill, BackfillsInDeadlineOrder) {
  Fixture f(3, DispatchConfig{.backfilling = true, .overload = {}});
  // Occupy all three nodes: nothing can backfill yet.
  const workload::Job wide =
      JobBuilder(1).set_runtime(100.0).deadline(400.0).procs(2).build();
  const workload::Job brief = JobBuilder(2).set_runtime(30.0).deadline(400.0).build();
  f.submit(wide);
  f.submit(brief);
  const workload::Job head =
      JobBuilder(3).set_runtime(10.0).deadline(300.0).procs(3).build();
  f.submit(head);
  // Two eligible fillers queue behind the head while every node is busy.
  const workload::Job later = JobBuilder(4).set_runtime(40.0).deadline(9000.0).build();
  const workload::Job sooner = JobBuilder(5).set_runtime(40.0).deadline(800.0).build();
  f.submit(later);
  f.submit(sooner);
  EXPECT_FALSE(f.executor.is_running(4));
  EXPECT_FALSE(f.executor.is_running(5));
  // At t=30 one node frees; the earlier-deadline filler must win the slot
  // (it finishes at 70, inside the head's t=100 reservation).
  f.simulator.run_until(31.0);
  EXPECT_TRUE(f.executor.is_running(5));
  EXPECT_FALSE(f.executor.is_running(4));
  f.simulator.run();
  EXPECT_EQ(f.collector.record(3).fate, metrics::JobFate::FulfilledInTime);
}

TEST(EdfBackfill, SkipsInfeasibleCandidatesWithoutRejectingThem) {
  Fixture f(2, DispatchConfig{.backfilling = true, .overload = {}});
  // Shadow time 600 (occupant's estimate) is *later* than the head's
  // deadline, which opens the window for a candidate that fits the window
  // by estimate (580 <= 600) yet cannot meet its own deadline (580 > 560).
  const workload::Job occupant = JobBuilder(1).set_runtime(600.0).deadline(2000.0).build();
  f.submit(occupant);
  const workload::Job head =
      JobBuilder(2).set_runtime(100.0).deadline(550.0).procs(2).build();
  f.submit(head);
  const workload::Job hopeless =
      JobBuilder(3).estimate(580.0).set_runtime(100.0).deadline(560.0).build();
  f.submit(hopeless);
  // Backfilling must skip it rather than start or reject it here; it is
  // only rejected when *selected* as the head later.
  EXPECT_FALSE(f.executor.is_running(3));
  EXPECT_EQ(f.collector.record(3).fate, metrics::JobFate::Pending);
  f.simulator.run();
  EXPECT_EQ(f.collector.record(3).fate, metrics::JobFate::RejectedAtDispatch);
}

TEST(Edf, TieBreaksOnJobIdForEqualDeadlines) {
  Fixture f(1);
  const workload::Job running = JobBuilder(1).set_runtime(50.0).deadline(1000.0).build();
  f.submit(running);
  const workload::Job second =
      JobBuilder(3).submit(0.0).set_runtime(10.0).deadline(500.0).build();
  const workload::Job first =
      JobBuilder(2).submit(0.0).set_runtime(10.0).deadline(500.0).build();
  f.submit(second);
  f.submit(first);
  f.simulator.run();
  EXPECT_LT(f.collector.record(2).start_time, f.collector.record(3).start_time);
}

}  // namespace
}  // namespace librisk::core
