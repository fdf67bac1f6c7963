// The concurrent admission gateway (core/gateway.hpp) and the support
// pieces underneath it.
//
// The load-bearing claims, each proved here rather than asserted in prose:
//   * conservativeness — fast_reject_reason() never fires for a job the
//     exact engine admits, differentially over every policy with a
//     certificate x {homogeneous, heterogeneous} clusters x load factors
//     from trivially feasible to hopeless;
//   * byte-identity — one producer + monotone stream produces an .lrt
//     decision trace byte-identical to the direct streaming engine;
//   * determinism — several producers under a fixed interleave produce
//     byte-identical traces run-to-run (decisions are a pure function of
//     queue order);
//   * accounting — the share accumulator returns to exactly zero after
//     every run (subtract-on-resolve can never underflow or leak);
//   * handoff — the queue's spin-then-park consumer loses no wake-up,
//     blocked producers resume at the low-water mark, and an idle drive
//     thread parks instead of spinning.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cctype>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/engine.hpp"
#include "core/gateway.hpp"
#include "helpers.hpp"
#include "obs/highwater.hpp"
#include "support/bounded_queue.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "workload/job.hpp"

namespace librisk {
namespace {

using librisk::testing::JobBuilder;
using workload::Job;

cluster::Cluster mixed_cluster(int nodes) {
  std::vector<cluster::NodeSpec> specs;
  for (int i = 0; i < nodes; ++i)
    specs.push_back({i, i % 2 == 0 ? 168.0 : 336.0});
  return cluster::Cluster(std::move(specs), 168.0);
}

/// Random monotone trace spanning the whole admission spectrum:
/// `tightness` scales deadlines from hopeless (0.05) to slack (8).
/// Procs occasionally exceed the cluster size so C1 fires, and estimates
/// range from optimistic to several times the deadline so the C2 tests fire.
std::vector<Job> spectrum_trace(std::uint64_t seed, int count, int cluster_size,
                                double tightness) {
  rng::Stream stream(seed);
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += stream.uniform(1.0, 45.0);
    const double runtime = stream.uniform(20.0, 600.0);
    const int procs = static_cast<int>(
        stream.uniform_int(1, cluster_size + cluster_size / 4 + 1));
    jobs.push_back(JobBuilder(i + 1)
                       .submit(t)
                       .estimate(runtime * stream.uniform(0.5, 3.0))
                       .set_runtime(runtime)
                       .deadline(runtime * tightness * stream.uniform(0.5, 2.0))
                       .procs(procs)
                       .build());
  }
  return jobs;
}

core::GatewayConfig gateway_config(cluster::Cluster cluster,
                                   core::Policy policy) {
  core::GatewayConfig config;
  config.engine.cluster = std::move(cluster);
  config.engine.policy = policy;
  return config;
}

std::unique_ptr<core::AdmissionEngine> engine_for(
    cluster::Cluster cluster, core::Policy policy,
    core::PolicyOptions options = {}) {
  core::EngineConfig config;
  config.cluster = std::move(cluster);
  config.policy = policy;
  config.options = std::move(options);
  return core::make_engine(std::move(config));
}

// ---------------------------------------------------------------------------
// Conservativeness: the differential proof. For every policy and cluster
// shape, any job the gate sheds must be one the exact path rejects.

class GatewayConservative : public ::testing::TestWithParam<core::Policy> {};

TEST_P(GatewayConservative, NeverShedsAJobTheEngineAdmits) {
  const core::Policy policy = GetParam();
  const std::vector<cluster::Cluster> clusters = {
      cluster::Cluster::homogeneous(16, 168.0), mixed_cluster(16)};
  const double tightness[] = {0.05, 0.3, 1.0, 2.5, 8.0};
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const double tight : tightness) {
      const std::vector<Job> jobs =
          spectrum_trace(7 * (c + 1), 120, clusters[c].size(), tight);

      // The gate's predicate is pure in Conservative mode; query it against
      // the verdict of a direct engine fed the same monotone stream.
      core::AdmissionGateway gateway(gateway_config(clusters[c], policy));
      auto engine = engine_for(clusters[c], policy);
      std::vector<std::int64_t> shed_ids;
      for (const Job& job : jobs) {
        const std::optional<trace::RejectionReason> reason =
            gateway.fast_reject_reason(job);
        const core::AdmissionOutcome outcome = engine->submit(job);
        if (reason.has_value()) {
          shed_ids.push_back(job.id);
          // A shed job must never *start*. It may sit in a queue for a
          // while — the EDF family tests feasibility at dispatch — but the
          // certificate's monotonicity means it can only ever be rejected.
          EXPECT_FALSE(outcome.accepted())
              << "certificate " << static_cast<int>(*reason)
              << " shed job " << job.id << " (procs " << job.num_procs
              << ", est " << job.scheduler_estimate << ", deadline "
              << job.deadline << ") but the exact path started it [policy "
              << core::to_string(policy) << ", cluster " << c
              << ", tightness " << tight << "]";
        }
        gateway.submit(job);
      }
      engine->finish();
      gateway.close();

      // Every shed job's *final* fate must be a rejection.
      for (const std::int64_t id : shed_ids) {
        const metrics::JobFate fate = engine->collector().record(id).fate;
        EXPECT_TRUE(fate == metrics::JobFate::RejectedAtSubmit ||
                    fate == metrics::JobFate::RejectedAtDispatch)
            << "shed job " << id << " resolved as fate "
            << static_cast<int>(fate) << " [policy "
            << core::to_string(policy) << ", cluster " << c << ", tightness "
            << tight << "]";
      }

      // The built-in audit re-ran every shed job through the exact path
      // and followed the queued ones to resolution.
      const core::GatewayStats stats = gateway.stats();
      EXPECT_EQ(stats.audit_violations, 0u);
      EXPECT_EQ(stats.fast_rejected, shed_ids.size());
      EXPECT_EQ(stats.decided, jobs.size());

      // Audit mode replays everything, so the gated run's summary matches
      // the ungated engine's exactly.
      const metrics::RunSummary a = engine->summary();
      const metrics::RunSummary b = gateway.engine().summary();
      EXPECT_EQ(a.submitted, b.submitted);
      EXPECT_EQ(a.accepted, b.accepted);
      EXPECT_EQ(a.rejected_at_submit, b.rejected_at_submit);
      EXPECT_EQ(a.rejected_at_dispatch, b.rejected_at_dispatch);
      EXPECT_EQ(a.fulfilled, b.fulfilled);
      EXPECT_EQ(a.completed_late, b.completed_late);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, GatewayConservative,
                         ::testing::ValuesIn(core::all_policies()),
                         [](const auto& param_info) {
                           std::string name(core::to_string(param_info.param));
                           std::erase_if(name, [](char ch) {
                             return !std::isalnum(static_cast<unsigned char>(ch));
                           });
                           return name;
                         });

// ---------------------------------------------------------------------------
// Byte-identity: one producer, monotone stream => same .lrt as the direct
// streaming engine, for a policy with a real C2 certificate (Libra, so
// shed/replay actually happens) and for the C1-only default (LibraRisk).

class GatewayByteIdentity : public ::testing::TestWithParam<core::Policy> {};

TEST_P(GatewayByteIdentity, SingleProducerMatchesDirectEngine) {
  const core::Policy policy = GetParam();
  const cluster::Cluster cluster = mixed_cluster(12);
  const std::vector<Job> jobs = spectrum_trace(42, 300, cluster.size(), 0.8);

  const auto direct = [&] {
    std::ostringstream os;
    trace::BinarySink sink(os, {std::string(core::to_string(policy)), 42});
    trace::Recorder recorder(sink);
    core::PolicyOptions options;
    options.hooks.trace = &recorder;
    auto engine = engine_for(cluster, policy, options);
    for (const Job& job : jobs) engine->submit(job);
    engine->finish();
    sink.close();
    return os.str();
  }();

  const auto gated = [&] {
    std::ostringstream os;
    trace::BinarySink sink(os, {std::string(core::to_string(policy)), 42});
    trace::Recorder recorder(sink);
    core::GatewayConfig config = gateway_config(cluster, policy);
    config.engine.options.hooks.trace = &recorder;
    core::AdmissionGateway gateway(std::move(config));
    for (const Job& job : jobs)
      EXPECT_NE(gateway.submit(job), core::SubmitStatus::Closed);
    gateway.close();
    EXPECT_EQ(gateway.stats().audit_violations, 0u);
    sink.close();
    return os.str();
  }();

  ASSERT_FALSE(direct.empty());
  EXPECT_EQ(direct, gated);
}

INSTANTIATE_TEST_SUITE_P(CertificateAndDefault, GatewayByteIdentity,
                         ::testing::Values(core::Policy::Libra,
                                           core::Policy::LibraRisk,
                                           core::Policy::Qops),
                         [](const auto& param_info) {
                           std::string name(core::to_string(param_info.param));
                           std::erase_if(name, [](char ch) {
                             return !std::isalnum(static_cast<unsigned char>(ch));
                           });
                           return name;
                         });

// ---------------------------------------------------------------------------
// Fast-reject edge cases.

TEST(GatewayEdge, NearZeroDeadlineShedsAndEngineAgrees) {
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(4, 168.0);
  core::AdmissionGateway gateway(gateway_config(cluster, core::Policy::Libra));
  // Job::validate requires deadline > 0; the smallest representable slice
  // drives required_share to ~1e14 processors — far past Eq. 2's capacity.
  const Job job = JobBuilder(1).submit(1.0).set_runtime(100.0).deadline(1e-12);
  const auto reason = gateway.fast_reject_reason(job);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, trace::RejectionReason::ShareOverflow);

  auto engine = engine_for(cluster, core::Policy::Libra);
  EXPECT_TRUE(engine->submit(job).rejected());
  engine->finish();
  gateway.close();
}

TEST(GatewayEdge, EstimatePastDeadlineShedsOnDeadlinePolicies) {
  const cluster::Cluster cluster = mixed_cluster(4);  // max speed 2.0
  for (const core::Policy policy :
       {core::Policy::Edf, core::Policy::EdfBackfill, core::Policy::Qops}) {
    core::AdmissionGateway gateway(gateway_config(cluster, policy));
    // Best case 600/2.0 = 300 > deadline 200: infeasible at submit and at
    // every later dispatch instant.
    const Job job =
        JobBuilder(1).submit(0.5).set_runtime(500.0).estimate(600.0).deadline(200.0);
    const auto reason = gateway.fast_reject_reason(job);
    ASSERT_TRUE(reason.has_value()) << core::to_string(policy);
    EXPECT_EQ(*reason, trace::RejectionReason::DeadlineInfeasible);

    // Just inside the bound must NOT shed: 600/2.0 = 300 < 301.
    const Job fits =
        JobBuilder(2).submit(0.5).set_runtime(500.0).estimate(600.0).deadline(301.0);
    EXPECT_FALSE(gateway.fast_reject_reason(fits).has_value())
        << core::to_string(policy);
    gateway.close();
  }
}

TEST(GatewayEdge, OversizedJobShedsOnEveryPolicy) {
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(8, 168.0);
  for (const core::Policy policy : core::all_policies()) {
    core::AdmissionGateway gateway(gateway_config(cluster, policy));
    const Job job = JobBuilder(1).submit(1.0).set_runtime(50.0).procs(9);
    const auto reason = gateway.fast_reject_reason(job);
    ASSERT_TRUE(reason.has_value()) << core::to_string(policy);
    EXPECT_EQ(*reason, trace::RejectionReason::NoSuitableNode);
    gateway.close();
  }
}

TEST(GatewayEdge, ConservativeModeHasNoC2ForStatefulPolicies) {
  // LibraRisk's sigma-only salvage lane can admit an arbitrarily large
  // share on an empty node, so even an absurd share must pass the gate.
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(4, 168.0);
  core::AdmissionGateway gateway(
      gateway_config(cluster, core::Policy::LibraRisk));
  const Job huge_share =
      JobBuilder(1).submit(1.0).set_runtime(100.0).deadline(1e-12);
  EXPECT_FALSE(gateway.fast_reject_reason(huge_share).has_value());
  gateway.close();
}

TEST(GatewayEdge, SaturatedAccumulatorShedsOnlyInAggressiveMode) {
  // A near-zero deadline drives the fixed-point contribution into the
  // 9e18 saturation clamp — far past any budget — so Aggressive sheds via
  // C3 even on a policy with no certificate at all.
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(4, 168.0);
  const Job job = JobBuilder(1).submit(1.0).set_runtime(100.0).deadline(1e-9);

  core::GatewayConfig aggressive =
      gateway_config(cluster, core::Policy::LibraRisk);
  aggressive.shedding = core::GatewayConfig::Shedding::Aggressive;
  aggressive.granularity = std::uint64_t{1} << 40;
  aggressive.audit_shed = false;  // drop mode: sheds never reach the engine
  core::AdmissionGateway gateway(std::move(aggressive));
  const auto reason = gateway.fast_reject_reason(job);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, trace::RejectionReason::ShareOverflow);
  EXPECT_EQ(gateway.submit(job), core::SubmitStatus::FastRejected);
  gateway.close();
  const core::GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.fast_rejected, 1u);
  EXPECT_EQ(stats.enqueued, 0u);  // dropped at the gate, never decided
  EXPECT_EQ(stats.decided, 0u);
}

TEST(GatewayEdge, AccumulatorReturnsToZeroAfterEveryRun) {
  // Subtract-on-resolve must remove exactly what add-on-admit added —
  // including for zero-runtime jobs (resolved inside their own arrival
  // step, so they must never be added) and rejected jobs (never added).
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(8, 168.0);
  core::GatewayConfig config = gateway_config(cluster, core::Policy::Libra);
  core::AdmissionGateway gateway(std::move(config));
  rng::Stream stream(99);
  double t = 0.0;
  for (int i = 1; i <= 200; ++i) {
    t += stream.uniform(1.0, 20.0);
    // Every 7th job is near-instant (Job::validate requires runtime > 0):
    // it resolves within a whisker of its arrival, stressing the
    // add-then-immediately-subtract ordering.
    const double runtime = i % 7 == 0 ? 1e-9 : stream.uniform(10.0, 300.0);
    const Job job = JobBuilder(i)
                        .submit(t)
                        .set_runtime(runtime)
                        .estimate(std::max(runtime, 1.0))
                        .deadline(std::max(2.0 * runtime, 30.0) *
                                  stream.uniform(0.2, 2.0))
                        .procs(static_cast<int>(stream.uniform_int(1, 10)))
                        .build();
    gateway.submit(job);
  }
  gateway.close();
  const core::GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.share_scaled_now, 0u)
      << "accumulator leaked or underflowed (wrapped)";
  EXPECT_GT(stats.share_scaled_peak, 0u);
  EXPECT_TRUE(gateway.engine().collector().all_resolved());
}

// ---------------------------------------------------------------------------
// Multi-producer behaviour.

TEST(GatewayConcurrent, FixedInterleaveIsDeterministic) {
  // Three producers take strict round-robin turns pushing from one shared
  // job list, so the *queue order* is fixed even though three real threads
  // are submitting. Decisions are a pure function of queue order, so two
  // whole runs must produce byte-identical traces.
  const cluster::Cluster cluster = mixed_cluster(8);
  const std::vector<Job> jobs = spectrum_trace(5, 240, cluster.size(), 0.8);
  constexpr int kProducers = 3;

  const auto run_once = [&] {
    std::ostringstream os;
    trace::BinarySink sink(os, {"LibraRisk", 5});
    trace::Recorder recorder(sink);
    core::GatewayConfig config =
        gateway_config(cluster, core::Policy::LibraRisk);
    config.engine.options.hooks.trace = &recorder;
    core::AdmissionGateway gateway(std::move(config));

    std::mutex turn_mutex;
    std::condition_variable turn_cv;
    std::size_t next = 0;  // global index of the next job to push
    const auto produce = [&](int lane) {
      for (;;) {
        std::unique_lock<std::mutex> lock(turn_mutex);
        turn_cv.wait(lock, [&] {
          return next >= jobs.size() ||
                 static_cast<int>(next % kProducers) == lane;
        });
        if (next >= jobs.size()) return;
        const Job job = jobs[next];
        ++next;
        // Push while holding the turn: the queue sees jobs in list order.
        gateway.submit(job);
        lock.unlock();
        turn_cv.notify_all();
      }
    };
    std::vector<std::thread> producers;
    for (int lane = 0; lane < kProducers; ++lane)
      producers.emplace_back(produce, lane);
    for (std::thread& thread : producers) thread.join();
    gateway.close();
    EXPECT_EQ(gateway.stats().decided, jobs.size());
    EXPECT_EQ(gateway.stats().audit_violations, 0u);
    sink.close();
    return os.str();
  };

  const std::string first = run_once();
  const std::string second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(GatewayConcurrent, FreeRunningProducersConserveEveryJob) {
  // No interleave control at all: four producers race. The totals must
  // still balance exactly and the engine must resolve every job.
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(16, 168.0);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  core::GatewayConfig config =
      gateway_config(cluster, core::Policy::LibraRisk);
  config.queue_capacity = 64;  // force backpressure blocking too
  core::AdmissionGateway gateway(std::move(config));

  std::atomic<std::uint64_t> pushed{0};
  const auto produce = [&](int lane) {
    rng::Stream stream(static_cast<std::uint64_t>(1000 + lane));
    double t = 0.0;
    for (int i = 0; i < kPerProducer; ++i) {
      t += stream.uniform(1.0, 30.0);
      const double runtime = stream.uniform(10.0, 300.0);
      const Job job = JobBuilder(lane * kPerProducer + i + 1)
                          .submit(t)
                          .set_runtime(runtime)
                          .deadline(runtime * stream.uniform(0.3, 6.0))
                          .procs(static_cast<int>(stream.uniform_int(1, 20)))
                          .build();
      if (gateway.submit(job) != core::SubmitStatus::Closed)
        pushed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> producers;
  for (int lane = 0; lane < kProducers; ++lane)
    producers.emplace_back(produce, lane);
  for (std::thread& thread : producers) thread.join();
  gateway.close();

  const core::GatewayStats stats = gateway.stats();
  EXPECT_EQ(pushed.load(), static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(stats.submitted, pushed.load());
  EXPECT_EQ(stats.enqueued, stats.submitted);  // audit mode replays sheds
  EXPECT_EQ(stats.decided, stats.enqueued);
  EXPECT_EQ(stats.audit_violations, 0u);
  EXPECT_EQ(stats.share_scaled_now, 0u);
  EXPECT_LE(stats.queue_high_water, 64u);
  EXPECT_EQ(gateway.engine().jobs_submitted(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_TRUE(gateway.engine().collector().all_resolved());
  EXPECT_EQ(gateway.engine().summary().submitted,
            static_cast<std::size_t>(kProducers) * kPerProducer);
}

TEST(GatewayConcurrent, SubmitAfterCloseReportsClosed) {
  core::AdmissionGateway gateway(gateway_config(
      cluster::Cluster::homogeneous(4, 168.0), core::Policy::LibraRisk));
  gateway.submit(JobBuilder(1).submit(1.0).set_runtime(10.0));
  gateway.close();
  EXPECT_EQ(gateway.submit(JobBuilder(2).submit(2.0).set_runtime(10.0)),
            core::SubmitStatus::Closed);
  EXPECT_TRUE(gateway.closed());
  gateway.close();  // idempotent
}

TEST(GatewayConcurrent, RequiresOwningEngineConfig) {
  core::GatewayConfig config;  // no cluster: borrowed mode
  EXPECT_THROW(core::AdmissionGateway{std::move(config)}, CheckError);
}

TEST(GatewayIdle, DriveThreadParksWhenIdle) {
  // After its one job the drive thread spins for at most the queue's spin
  // bound and then parks: 500 ms of idleness must cost the process far
  // less than 500 ms of CPU, which a spin that never parks would burn.
  const auto process_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  core::AdmissionGateway gateway(gateway_config(
      cluster::Cluster::homogeneous(4, 168.0), core::Policy::LibraRisk));
  ASSERT_EQ(gateway.submit(JobBuilder(1).submit(1.0).set_runtime(10.0)),
            core::SubmitStatus::Enqueued);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (gateway.stats().decided < 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(gateway.stats().decided, 1u);
  const double before = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double idle_cpu_s = process_cpu_s() - before;
  gateway.close();
  EXPECT_LT(idle_cpu_s, 0.050);
}

// ---------------------------------------------------------------------------
// Flight recorder + per-certificate shed attribution. The "Flight" suite
// name is load-bearing: the TSan CI job's filter regex selects it, so the
// concurrent snapshot test below runs under ThreadSanitizer on every push.

TEST(GatewayFlight, RecordsEveryDecisionAndShedCertificatesSum) {
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(8, 168.0);
  for (const core::Policy policy :
       {core::Policy::Libra, core::Policy::Edf, core::Policy::LibraRisk}) {
    core::GatewayConfig config = gateway_config(cluster, policy);
    core::AdmissionGateway gateway(std::move(config));
    for (const Job& job : spectrum_trace(21, 300, 8, 0.4))
      (void)gateway.submit(job);
    gateway.close();

    const core::GatewayStats stats = gateway.stats();
    // The certificate attribution partitions the shed count exactly.
    EXPECT_EQ(stats.shed_no_suitable_node + stats.shed_share +
                  stats.shed_deadline + stats.shed_aggregate,
              stats.fast_rejected)
        << core::to_string(policy);
    // spectrum_trace oversizes some jobs, so C1 fires on every policy;
    // Conservative mode never uses the aggregate certificate.
    EXPECT_GT(stats.shed_no_suitable_node, 0u) << core::to_string(policy);
    EXPECT_EQ(stats.shed_aggregate, 0u) << core::to_string(policy);
    if (policy == core::Policy::Libra) {
      EXPECT_GT(stats.shed_share, 0u);
    }
    if (policy == core::Policy::Edf) {
      EXPECT_GT(stats.shed_deadline, 0u);
    }

    // Every drive-loop decision reached the flight recorder; the ring keeps
    // the newest `capacity` of them, and sheds carry the Shed verdict.
    EXPECT_EQ(stats.flight_recorded, stats.decided) << core::to_string(policy);
    const std::vector<obs::FlightEntry> snap = gateway.flight().snapshot();
    EXPECT_EQ(snap.size(),
              std::min<std::size_t>(stats.decided, gateway.flight().capacity()));
    std::uint64_t shed_seen = 0;
    for (const obs::FlightEntry& e : snap)
      if (e.verdict == obs::FlightVerdict::Shed) ++shed_seen;
    EXPECT_LE(shed_seen, stats.fast_rejected) << core::to_string(policy);
    EXPECT_EQ(gateway.flight().queue_wait_histogram().count(), stats.decided);
  }
}

TEST(GatewayFlight, EntriesAreEngineOutcomes) {
  // A flight entry is the engine's AdmissionOutcome plus timing: with one
  // producer and a ring holding every decision, each non-shed entry equals
  // what a direct engine returns for the same job, bit for bit, and the
  // shed entries are exactly the gate's fast rejections.
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(8, 168.0);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const core::Policy policy :
       {core::Policy::Libra, core::Policy::LibraRisk, core::Policy::Edf}) {
    const std::vector<Job> jobs = spectrum_trace(21, 300, 8, 0.4);
    core::GatewayConfig config = gateway_config(cluster, policy);
    config.flight_capacity = jobs.size();
    core::AdmissionGateway gateway(std::move(config));
    for (const Job& job : jobs) (void)gateway.submit(job);
    gateway.close();

    const auto engine = engine_for(cluster, policy);
    std::unordered_map<std::int64_t, core::AdmissionOutcome> direct;
    for (const Job& job : jobs) direct.emplace(job.id, engine->submit(job));
    engine->finish();

    const std::vector<obs::FlightEntry> entries = gateway.flight().snapshot();
    ASSERT_EQ(entries.size(), jobs.size()) << core::to_string(policy);
    std::uint64_t shed = 0;
    for (const obs::FlightEntry& e : entries) {
      if (e.verdict == trace::Verdict::Shed) {
        ++shed;
        continue;
      }
      const core::AdmissionOutcome& o = direct.at(e.job_id);
      EXPECT_EQ(e.job_id, o.job_id);
      EXPECT_EQ(e.verdict, o.verdict) << "job " << e.job_id;
      EXPECT_EQ(e.reason, o.reason) << "job " << e.job_id;
      EXPECT_EQ(e.node, o.node) << "job " << e.job_id;
      EXPECT_EQ(bits(e.sigma), bits(o.sigma)) << "job " << e.job_id;
      EXPECT_EQ(bits(e.margin), bits(o.margin)) << "job " << e.job_id;
    }
    EXPECT_EQ(shed, gateway.stats().fast_rejected) << core::to_string(policy);
  }
}

TEST(GatewayFlight, CapacityZeroDisablesTheRecorder) {
  core::GatewayConfig config = gateway_config(
      cluster::Cluster::homogeneous(8, 168.0), core::Policy::LibraRisk);
  config.flight_capacity = 0;
  core::AdmissionGateway gateway(std::move(config));
  for (const Job& job : spectrum_trace(22, 100, 8, 1.0))
    (void)gateway.submit(job);
  gateway.close();
  EXPECT_EQ(gateway.stats().flight_recorded, 0u);
  EXPECT_TRUE(gateway.flight().snapshot().empty());
}

TEST(GatewayFlight, ConcurrentSnapshotWhileDeciding) {
  // Monitoring-path race coverage (runs under TSan in CI): producers feed
  // the gateway while a monitor thread snapshots the flight ring, renders
  // dumps and reads live stats the whole time.
  core::GatewayConfig config = gateway_config(
      cluster::Cluster::homogeneous(16, 168.0), core::Policy::LibraRisk);
  config.queue_capacity = 64;
  core::AdmissionGateway gateway(std::move(config));

  std::atomic<bool> monitoring{true};
  std::thread monitor([&] {
    std::uint64_t last_recorded = 0;
    while (monitoring.load(std::memory_order_acquire)) {
      const std::vector<obs::FlightEntry> snap = gateway.flight().snapshot();
      EXPECT_LE(snap.size(), gateway.flight().capacity());
      (void)gateway.flight().dump();
      const core::GatewayStats live = gateway.stats();
      EXPECT_GE(live.flight_recorded, last_recorded);  // monotone
      last_recorded = live.flight_recorded;
      std::this_thread::yield();
    }
  });

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 120;
  std::vector<std::thread> producers;
  for (int lane = 0; lane < kProducers; ++lane)
    producers.emplace_back([&gateway, lane] {
      rng::Stream stream(static_cast<std::uint64_t>(3000 + lane));
      double t = 0.0;
      for (int i = 0; i < kPerProducer; ++i) {
        t += stream.uniform(1.0, 20.0);
        const double runtime = stream.uniform(10.0, 200.0);
        (void)gateway.submit(JobBuilder(lane * kPerProducer + i + 1)
                                 .submit(t)
                                 .set_runtime(runtime)
                                 .deadline(runtime * stream.uniform(0.3, 5.0))
                                 .procs(static_cast<int>(
                                     stream.uniform_int(1, 20)))
                                 .build());
      }
    });
  for (std::thread& thread : producers) thread.join();
  gateway.close();
  monitoring.store(false, std::memory_order_release);
  monitor.join();

  const core::GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.flight_recorded, stats.decided);
  EXPECT_EQ(stats.decided,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TEST(GatewayFlight, ShedSpikeDetectorCountsBursts) {
  // A burst of certifiably hopeless jobs crosses the spike threshold; the
  // drive thread logs one flight dump and the crossing is counted.
  core::GatewayConfig config = gateway_config(
      cluster::Cluster::homogeneous(4, 168.0), core::Policy::LibraRisk);
  config.shed_spike_threshold = 8;
  config.shed_spike_window = 60.0;  // one wall-clock window for the test
  core::AdmissionGateway gateway(std::move(config));
  double t = 0.0;
  for (int i = 0; i < 32; ++i) {
    t += 1.0;
    (void)gateway.submit(JobBuilder(i + 1)
                             .submit(t)
                             .set_runtime(10.0)
                             .deadline(50.0)
                             .procs(8)  // > cluster size: C1 sheds
                             .build());
  }
  gateway.close();
  const core::GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.fast_rejected, 32u);
  EXPECT_EQ(stats.shed_no_suitable_node, 32u);
  EXPECT_GE(stats.shed_spikes, 1u);
}

// ---------------------------------------------------------------------------
// BoundedQueue.

TEST(BoundedQueue, DeliversInFifoOrder) {
  support::BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.push(i));
  EXPECT_EQ(queue.size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.high_water(), 5u);
}

TEST(BoundedQueue, PushBlocksWhenFullUntilPop) {
  support::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(3));  // must block until a slot frees
    third_pushed.store(true);
  });
  // The producer cannot complete while the queue is full. (A sleep cannot
  // prove blocking, but a wrong non-blocking push would trip the FIFO
  // order and capacity assertions below.)
  int out = -1;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_EQ(queue.high_water(), 2u);  // never exceeded capacity
}

TEST(BoundedQueue, CloseDrainsRemainderThenFails) {
  support::BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(7));
  EXPECT_TRUE(queue.push(8));
  queue.close();
  EXPECT_FALSE(queue.push(9));  // rejected, not enqueued
  int out = -1;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.pop(out));  // closed and drained
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueue, CloseUnblocksAWaitingProducer) {
  support::BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::atomic<bool> unblocked{false};
  std::thread producer([&] {
    EXPECT_FALSE(queue.push(2));  // blocked on full, then closed
    unblocked.store(true);
  });
  queue.close();
  producer.join();
  EXPECT_TRUE(unblocked.load());
}

// The spin-then-park protocol. Each test bounds its waits by a deadline,
// so a lost wake-up fails an assertion instead of hanging the suite.

TEST(BoundedQueue, ParkedConsumerReceivesEveryItem) {
  // The producer sleeps past the spin bound before every push, so the
  // consumer has given up spinning and parked each time it is fed.
  using Queue = support::BoundedQueue<int>;
  constexpr int kRounds = 200;
  Queue queue(4);
  std::mutex mutex;
  std::condition_variable cv;
  int received = -1;  // last item the consumer popped
  std::thread consumer([&] {
    int item = 0;
    while (queue.pop(item)) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        received = item;
      }
      cv.notify_one();
    }
  });
  int delivered = 0;
  for (int i = 0; i < kRounds; ++i) {
    std::this_thread::sleep_for(2 * Queue::kSpinBound);
    if (!queue.push(i)) break;
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_for(lock, std::chrono::seconds(5), [&] { return received == i; }))
      break;  // lost wake-up: close() below still releases the consumer
    ++delivered;
  }
  queue.close();
  consumer.join();
  EXPECT_EQ(delivered, kRounds);
}

TEST(BoundedQueue, BlockedProducersResumeAtTheLowWaterMark) {
  using Queue = support::BoundedQueue<std::size_t>;
  using namespace std::chrono_literals;
  constexpr std::size_t kProducers = 2;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    const std::size_t low_water = capacity / Queue::kLowWaterDivisor;
    Queue queue(capacity);
    for (std::size_t i = 0; i < capacity; ++i) EXPECT_TRUE(queue.push(i));
    std::atomic<std::size_t> entering{0};
    std::atomic<std::size_t> resumed{0};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
      producers.emplace_back([&, p] {
        entering.fetch_add(1);
        EXPECT_TRUE(queue.push(capacity + p));
        resumed.fetch_add(1);
      });
    while (entering.load() < kProducers) std::this_thread::yield();
    std::this_thread::sleep_for(20ms);  // let both block on the full queue

    // Pops that leave the queue above the mark wake nobody.
    std::size_t out = 0;
    std::size_t next = 0;
    for (; queue.size() > low_water + 1; ++next) {
      EXPECT_TRUE(queue.pop(out));
      EXPECT_EQ(out, next);
    }
    if (next > 0) {
      std::this_thread::sleep_for(20ms);
      EXPECT_EQ(resumed.load(), 0u);
    }
    // The pop that reaches the mark wakes them; as many fit as it freed.
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, next++);
    const std::size_t fit = std::min(kProducers, capacity - low_water);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (resumed.load() < fit && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    EXPECT_EQ(resumed.load(), fit);

    // Drain the rest (popping only what is there, so nothing can hang).
    std::vector<std::size_t> tail;
    while (tail.size() < capacity + kProducers - next &&
           std::chrono::steady_clock::now() < deadline) {
      if (queue.size() > 0 && queue.pop(out))
        tail.push_back(out);
      else
        std::this_thread::yield();
    }
    queue.close();
    for (std::thread& producer : producers) producer.join();
    EXPECT_EQ(resumed.load(), kProducers);
    ASSERT_EQ(tail.size(), capacity + kProducers - next);
    for (std::size_t i = 0; next + i < capacity; ++i) EXPECT_EQ(tail[i], next + i);
    std::sort(tail.end() - kProducers, tail.end());
    EXPECT_EQ(tail[tail.size() - 2], capacity);
    EXPECT_EQ(tail.back(), capacity + 1);
    EXPECT_EQ(queue.high_water(), capacity);
  }
}

TEST(BoundedQueue, CloseStopsASpinningConsumerPromptly) {
  // close() lands while pop() is still inside its spin. Every trial must
  // return false; the fastest must beat the spin bound by a wide margin,
  // which a spin blind to the closed flag could not.
  using Queue = support::BoundedQueue<int>;
  using Clock = std::chrono::steady_clock;
  constexpr int kTrials = 20;
  Clock::duration fastest = Clock::duration::max();
  for (int trial = 0; trial < kTrials; ++trial) {
    Queue queue(4);
    std::atomic<bool> popping{false};
    bool popped = true;
    Clock::time_point returned{};
    std::thread consumer([&] {
      int out = 0;
      popping.store(true);
      popped = queue.pop(out);
      returned = Clock::now();
    });
    while (!popping.load()) std::this_thread::yield();
    const Clock::time_point closed_at = Clock::now();
    queue.close();
    consumer.join();
    EXPECT_FALSE(popped);
    EXPECT_LT(returned - closed_at, std::chrono::seconds(1));
    fastest = std::min(fastest, returned - closed_at);
  }
  EXPECT_LT(fastest, Queue::kSpinBound / 2);
}

TEST(BoundedQueue, ManyProducersLoseNothingAndKeepPerProducerOrder) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  constexpr std::size_t kCapacity = 64;
  support::BoundedQueue<std::uint64_t> queue(kCapacity);
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&queue, p] {
      for (std::uint64_t seq = 0; seq < kPerProducer; ++seq)
        EXPECT_TRUE(queue.push(p << 32 | seq));
    });
  // Closing once every producer is done ends the pop loop even if an item
  // went missing.
  std::thread closer([&] {
    for (std::thread& producer : producers) producer.join();
    queue.close();
  });
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t popped = 0;
  std::uint64_t item = 0;
  while (queue.pop(item)) {
    ++popped;
    const std::uint64_t p = item >> 32;
    const std::uint64_t seq = item & 0xffff'ffffu;
    if (p >= kProducers) {
      ADD_FAILURE() << "item from unknown producer " << p;
      continue;
    }
    // Strictly the next sequence number: no loss, no duplicate, FIFO.
    EXPECT_EQ(seq, next_seq[p]);
    next_seq[p] = seq + 1;
  }
  closer.join();
  EXPECT_EQ(popped, kProducers * kPerProducer);
  for (const std::uint64_t seq : next_seq) EXPECT_EQ(seq, kPerProducer);
  EXPECT_LE(queue.high_water(), kCapacity);
}

// ---------------------------------------------------------------------------
// HighWater.

TEST(HighWater, ConcurrentObserversKeepTheMaximum) {
  obs::HighWater mark;
  std::vector<std::thread> threads;
  for (int lane = 0; lane < 4; ++lane) {
    threads.emplace_back([&mark, lane] {
      for (std::uint64_t i = 0; i < 10000; ++i)
        mark.observe(static_cast<std::uint64_t>(lane) * 10000 + i);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mark.value(), 39999u);
  mark.observe(5);  // lower observation never regresses the mark
  EXPECT_EQ(mark.value(), 39999u);
}

// ---------------------------------------------------------------------------
// The typed-outcome engine API the gateway drives.

TEST(EngineOutcome, AcceptedJobCarriesPlacementAndSigma) {
  auto engine =
      engine_for(cluster::Cluster::homogeneous(4, 168.0), core::Policy::LibraRisk);
  const core::AdmissionOutcome outcome =
      engine->submit(JobBuilder(1).submit(1.0).set_runtime(100.0));
  EXPECT_EQ(outcome.job_id, 1);
  EXPECT_TRUE(outcome.accepted());
  EXPECT_GE(outcome.node, 0);
  EXPECT_GE(outcome.sigma, 0.0);  // empty node: sigma 0 admits
  EXPECT_EQ(outcome.reason, trace::RejectionReason::None);
  engine->finish();
}

TEST(EngineOutcome, RejectionCarriesTheReason) {
  auto engine =
      engine_for(cluster::Cluster::homogeneous(4, 168.0), core::Policy::LibraRisk);
  const core::AdmissionOutcome outcome =
      engine->submit(JobBuilder(1).submit(1.0).set_runtime(100.0).procs(5));
  EXPECT_TRUE(outcome.rejected());
  EXPECT_EQ(outcome.reason, trace::RejectionReason::NoSuitableNode);
  EXPECT_EQ(outcome.node, -1);
  engine->finish();
}

TEST(EngineOutcome, SpaceSharedBacklogReportsQueued) {
  // Fcfs runs one job per node; a burst beyond the cluster size waits.
  auto engine =
      engine_for(cluster::Cluster::homogeneous(1, 168.0), core::Policy::Fcfs);
  EXPECT_TRUE(
      engine->submit(JobBuilder(1).submit(1.0).set_runtime(500.0).deadline(5000.0))
          .accepted());
  const core::AdmissionOutcome second =
      engine->submit(JobBuilder(2).submit(2.0).set_runtime(500.0).deadline(5000.0));
  EXPECT_EQ(second.verdict, trace::Verdict::Queued);
  EXPECT_FALSE(second.accepted());
  EXPECT_FALSE(second.rejected());
  engine->finish();
}

TEST(EngineOutcome, MakeEngineRejectsAmbiguousConfig) {
  EXPECT_THROW((void)core::make_engine(core::EngineConfig{}), CheckError);

  sim::Simulator simulator;
  core::Collector collector;
  core::EngineConfig both;
  both.cluster = cluster::Cluster::homogeneous(2, 168.0);
  both.simulator = &simulator;
  both.collector = &collector;
  EXPECT_THROW((void)core::make_engine(std::move(both)), CheckError);
}

}  // namespace
}  // namespace librisk
