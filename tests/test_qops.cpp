#include "core/spaceshared.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace librisk::core {
namespace {

using librisk::testing::JobBuilder;

/// QoPS: deadline order, the feasibility test at submission only.
DispatchConfig qops(double slack) {
  return DispatchConfig{.order = QueueOrder::Deadline,
                        .deadline_test = false,
                        .backfilling = false,
                        .qops_slack = slack,
                        .overload = {}};
}

struct Fixture {
  explicit Fixture(int nodes, DispatchConfig config = qops(1.0))
      : cluster(cluster::Cluster::homogeneous(nodes, 1.0)),
        executor(simulator, cluster),
        scheduler(simulator, executor, collector, config, "QoPS") {}

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

TEST(Qops, AcceptsAndRunsFeasibleJob) {
  Fixture f(2);
  const workload::Job job = JobBuilder(1).set_runtime(100.0).deadline(300.0).build();
  f.submit(job);
  EXPECT_TRUE(f.executor.is_running(1));
  f.simulator.run();
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::FulfilledInTime);
}

TEST(Qops, RejectsInfeasibleAtSubmission) {
  // Unlike EDF (which parks the job in the queue and rejects it only when
  // selected), QoPS already knows at submission that the busy node makes
  // the deadline impossible.
  Fixture f(1);
  const workload::Job running = JobBuilder(1).set_runtime(100.0).deadline(300.0).build();
  f.submit(running);
  const workload::Job doomed = JobBuilder(2).set_runtime(90.0).deadline(100.0).build();
  f.submit(doomed);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtSubmit);
  EXPECT_EQ(f.scheduler.queue_length(), 0u);
}

TEST(Qops, ProtectsQueuedJobsFromLaterArrivals) {
  Fixture f(1);
  const workload::Job running = JobBuilder(1).set_runtime(100.0).deadline(500.0).build();
  f.submit(running);
  // Queued job: starts at 100, finishes at 150, deadline 200 — fine.
  const workload::Job queued = JobBuilder(2).set_runtime(50.0).deadline(200.0).build();
  f.submit(queued);
  EXPECT_EQ(f.scheduler.queue_length(), 1u);
  // Urgent newcomer with deadline 140: EDF order would run it first and
  // push the queued job to finish at 190... still fine; make it 80 long so
  // the queued job would finish at 230 > 200. QoPS must refuse it.
  const workload::Job intruder = JobBuilder(3).set_runtime(80.0).deadline(190.0).build();
  f.submit(intruder);
  EXPECT_EQ(f.collector.record(3).fate, metrics::JobFate::RejectedAtSubmit);
  f.simulator.run();
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::FulfilledInTime);
}

TEST(Qops, SlackFactorAdmitsSoftDeadlineViolations) {
  Fixture f(1, qops(2.0));
  const workload::Job running = JobBuilder(1).set_runtime(100.0).deadline(500.0).build();
  f.submit(running);
  // Starts at 100, finishes at 190 > deadline 100 but within 2x slack.
  const workload::Job soft = JobBuilder(2).set_runtime(90.0).deadline(100.0).build();
  f.submit(soft);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::Pending);
  f.simulator.run();
  // Accepted under slack but the *hard* deadline still counts as violated.
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::CompletedLate);
}

TEST(Qops, SlackFactorValidated) {
  sim::Simulator simulator;
  const auto cl = cluster::Cluster::homogeneous(1, 1.0);
  cluster::SpaceSharedExecutor executor(simulator, cl);
  metrics::Collector collector;
  EXPECT_THROW(
      SpaceSharedScheduler(simulator, executor, collector, qops(0.5), "QoPS"),
      CheckError);
}

TEST(Qops, FeasibilityUsesEstimatesNotActuals) {
  Fixture f(1);
  // Estimate 300 makes the 100-deadline impossible even though the actual
  // runtime (50) would fit: QoPS consumes estimates, like every admission
  // control in the study.
  const workload::Job job =
      JobBuilder(1).estimate(300.0).set_runtime(50.0).deadline(100.0).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(Qops, GangJobWaitsForReleases) {
  Fixture f(2);
  const workload::Job occupant = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.submit(occupant);
  // Needs both nodes; feasible because the occupant releases at 100 and
  // 100 + 50 <= 200.
  const workload::Job wide =
      JobBuilder(2).set_runtime(50.0).deadline(200.0).procs(2).build();
  f.submit(wide);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::Pending);
  f.simulator.run();
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::FulfilledInTime);
  EXPECT_NEAR(f.collector.record(2).start_time, 100.0, 1e-9);
}

TEST(Qops, OversizedRequestRejected) {
  Fixture f(2);
  const workload::Job job =
      JobBuilder(1).set_runtime(10.0).deadline(100.0).procs(3).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(Qops, NeverBreaksAPromiseWithAccurateEstimates) {
  Fixture f(4);
  rng::Stream stream(17);
  std::vector<workload::Job> jobs;
  jobs.reserve(80);
  for (int i = 0; i < 80; ++i) {
    jobs.push_back(JobBuilder(i + 1)
                       .submit(static_cast<double>(i) * 30.0)
                       .set_runtime(stream.uniform(10.0, 300.0))
                       .deadline(stream.uniform(350.0, 1500.0))
                       .procs(static_cast<int>(stream.uniform_int(1, 3)))
                       .build());
  }
  for (const auto& job : jobs)
    f.simulator.at(job.submit_time, sim::EventPriority::Arrival,
                   [&f, &job] { f.submit(job); });
  f.simulator.run();
  for (const auto& [id, rec] : f.collector.records())
    EXPECT_NE(rec.fate, metrics::JobFate::CompletedLate) << "job " << id;
}

}  // namespace
}  // namespace librisk::core
