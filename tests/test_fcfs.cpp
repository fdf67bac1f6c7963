#include "core/spaceshared.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "support/rng.hpp"

namespace librisk::core {
namespace {

using librisk::testing::JobBuilder;

/// FCFS (or, with backfilling, EASY): arrival order, no deadline test.
DispatchConfig fcfs(bool backfilling) {
  return DispatchConfig{.order = QueueOrder::Arrival,
                        .deadline_test = false,
                        .backfilling = backfilling,
                        .qops_slack = {},
                        .overload = {}};
}

struct Fixture {
  explicit Fixture(int nodes, DispatchConfig config = fcfs(/*backfilling=*/true))
      : cluster(cluster::Cluster::homogeneous(nodes, 1.0)),
        executor(simulator, cluster),
        scheduler(simulator, executor, collector, config, "FCFS") {}

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

TEST(Fcfs, RunsInArrivalOrder) {
  Fixture f(1, fcfs(/*backfilling=*/false));
  const workload::Job a = JobBuilder(1).set_runtime(50.0).deadline(1000.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(10.0).deadline(1000.0).build();
  const workload::Job c = JobBuilder(3).set_runtime(10.0).deadline(1000.0).build();
  f.submit(a);
  f.submit(b);
  f.submit(c);
  f.simulator.run();
  EXPECT_NEAR(f.collector.record(1).start_time, 0.0, 1e-9);
  EXPECT_NEAR(f.collector.record(2).start_time, 50.0, 1e-9);
  EXPECT_NEAR(f.collector.record(3).start_time, 60.0, 1e-9);
}

TEST(Fcfs, PlainFcfsSuffersHeadOfLineBlocking) {
  Fixture f(2, fcfs(/*backfilling=*/false));
  const workload::Job occupant = JobBuilder(1).set_runtime(100.0).deadline(1000.0).build();
  f.submit(occupant);
  const workload::Job wide =
      JobBuilder(2).set_runtime(10.0).deadline(1000.0).procs(2).build();
  f.submit(wide);
  const workload::Job narrow = JobBuilder(3).set_runtime(10.0).deadline(1000.0).build();
  f.submit(narrow);
  // Without backfilling the narrow job waits behind the wide head although
  // a node is free.
  EXPECT_FALSE(f.executor.is_running(3));
  f.simulator.run();
  EXPECT_GE(f.collector.record(3).start_time,
            f.collector.record(2).start_time - 1e-9);
}

TEST(Easy, BackfillsIntoTheShadowWindow) {
  Fixture f(2, fcfs(/*backfilling=*/true));
  const workload::Job occupant = JobBuilder(1).set_runtime(100.0).deadline(1000.0).build();
  f.submit(occupant);
  const workload::Job wide =
      JobBuilder(2).set_runtime(10.0).deadline(1000.0).procs(2).build();
  f.submit(wide);
  // Finishes (by estimate) before the head's reservation at t=100.
  const workload::Job filler = JobBuilder(3).set_runtime(50.0).deadline(1000.0).build();
  f.submit(filler);
  EXPECT_TRUE(f.executor.is_running(3));
  f.simulator.run();
  // The head still starts on time at t=100.
  EXPECT_NEAR(f.collector.record(2).start_time, 100.0, 1e-9);
}

TEST(Easy, RefusesBackfillThatWouldDelayHead) {
  Fixture f(2, fcfs(/*backfilling=*/true));
  const workload::Job occupant = JobBuilder(1).set_runtime(100.0).deadline(1000.0).build();
  f.submit(occupant);
  const workload::Job wide =
      JobBuilder(2).set_runtime(10.0).deadline(1000.0).procs(2).build();
  f.submit(wide);
  // Estimated to run past the shadow time (t=100) and would steal a node
  // the head needs: must NOT backfill.
  const workload::Job toolong = JobBuilder(3).set_runtime(150.0).deadline(1000.0).build();
  f.submit(toolong);
  EXPECT_FALSE(f.executor.is_running(3));
  f.simulator.run();
  EXPECT_NEAR(f.collector.record(2).start_time, 100.0, 1e-9);
}

TEST(Easy, BackfillsOnExtraNodesBeyondHeadNeed) {
  Fixture f(4, fcfs(/*backfilling=*/true));
  const workload::Job occupant =
      JobBuilder(1).set_runtime(100.0).deadline(1000.0).procs(2).build();
  f.submit(occupant);
  const workload::Job wide =
      JobBuilder(2).set_runtime(10.0).deadline(1000.0).procs(3).build();
  f.submit(wide);  // needs 3, only 2 free: waits for the occupant
  // Long job, but the head needs only 3 of the 4 nodes at its shadow time:
  // one extra node is safe to occupy indefinitely.
  const workload::Job extra = JobBuilder(3).set_runtime(500.0).deadline(5000.0).build();
  f.submit(extra);
  EXPECT_TRUE(f.executor.is_running(3));
  f.simulator.run();
  EXPECT_NEAR(f.collector.record(2).start_time, 100.0, 1e-9);
}

TEST(Easy, UsesEstimatesForReservations) {
  Fixture f(2, fcfs(/*backfilling=*/true));
  // The occupant's *estimate* is 200 though it actually finishes at 50: the
  // shadow time is computed at 200, so a 150-second filler backfills.
  const workload::Job occupant =
      JobBuilder(1).estimate(200.0).set_runtime(50.0).deadline(1000.0).build();
  f.submit(occupant);
  const workload::Job wide =
      JobBuilder(2).set_runtime(10.0).deadline(1000.0).procs(2).build();
  f.submit(wide);
  const workload::Job filler =
      JobBuilder(3).estimate(150.0).set_runtime(150.0).deadline(1000.0).build();
  f.submit(filler);
  EXPECT_TRUE(f.executor.is_running(3));
}

TEST(Fcfs, DeadlineAdmissionRejectsAtSelection) {
  DispatchConfig config = fcfs(/*backfilling=*/false);
  config.deadline_test = true;
  Fixture f(1, config);
  const workload::Job running = JobBuilder(1).set_runtime(200.0).deadline(1000.0).build();
  f.submit(running);
  const workload::Job doomed = JobBuilder(2).set_runtime(50.0).deadline(100.0).build();
  f.submit(doomed);
  f.simulator.run();
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtDispatch);
}

TEST(Fcfs, OversizedRequestRejectedAtSubmit) {
  Fixture f(2);
  const workload::Job job =
      JobBuilder(1).set_runtime(10.0).deadline(100.0).procs(5).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(Easy, DrainsMixedWorkloadCompletely) {
  Fixture f(4, fcfs(/*backfilling=*/true));
  rng::Stream stream(13);
  std::vector<workload::Job> jobs;
  jobs.reserve(40);
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(JobBuilder(i + 1)
                       .submit(static_cast<double>(i) * 10.0)
                       .set_runtime(stream.uniform(5.0, 200.0))
                       .deadline(10000.0)
                       .procs(static_cast<int>(stream.uniform_int(1, 4)))
                       .build());
  }
  sim::Simulator& sim = f.simulator;
  for (const auto& job : jobs)
    sim.at(job.submit_time, sim::EventPriority::Arrival, [&f, &job] { f.submit(job); });
  sim.run();
  EXPECT_TRUE(f.collector.all_resolved());
  std::size_t completed = 0;
  for (const auto& [id, rec] : f.collector.records())
    completed += rec.fate == metrics::JobFate::FulfilledInTime ||
                 rec.fate == metrics::JobFate::CompletedLate;
  EXPECT_EQ(completed, 40u);
}

}  // namespace
}  // namespace librisk::core
