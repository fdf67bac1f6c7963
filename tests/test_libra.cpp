#include "core/libra.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "helpers.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace librisk::core {
namespace {

using librisk::testing::JobBuilder;

struct Fixture {
  explicit Fixture(int nodes, LibraConfig config = LibraConfig::libra())
      : Fixture(cluster::Cluster::homogeneous(nodes, 1.0), config) {}
  Fixture(cluster::Cluster machine, LibraConfig config)
      : cluster(std::move(machine)),
        executor(simulator, cluster),
        scheduler(simulator, executor, collector, config, "test") {}

  // Submits at current simulation time (mirrors what run_trace does).
  void submit(const workload::Job& job) {
    collector.record_submitted(job, simulator.now());
    scheduler.on_job_submitted(job);
  }

  sim::Simulator simulator;
  cluster::Cluster cluster;
  cluster::TimeSharedExecutor executor;
  metrics::Collector collector;
  LibraScheduler scheduler;
};

TEST(Libra, AcceptsFeasibleJobImmediately) {
  Fixture f(2);
  const workload::Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.submit(job);
  EXPECT_TRUE(f.executor.is_running(1));
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::Pending);  // running
  f.simulator.run();
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::FulfilledInTime);
}

TEST(Libra, RejectsEstimateInfeasibleJob) {
  Fixture f(2);
  // Estimated share = 300/100 = 3 > 1: no node can promise the deadline.
  const workload::Job job =
      JobBuilder(1).estimate(300.0).set_runtime(80.0).deadline(100.0).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
  EXPECT_FALSE(f.executor.is_running(1));
}

TEST(Libra, RejectsWhenClusterTooSmall) {
  Fixture f(2);
  const workload::Job job =
      JobBuilder(1).set_runtime(10.0).deadline(100.0).procs(3).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(Libra, EnforcesTotalShareOnEachNode) {
  Fixture f(1);
  // Each job demands 0.6 of the single node: first fits, second must not.
  const workload::Job a = JobBuilder(1).set_runtime(60.0).deadline(100.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(60.0).deadline(100.0).build();
  f.submit(a);
  f.submit(b);
  EXPECT_TRUE(f.executor.is_running(1));
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(Libra, AcceptsUpToExactCapacity) {
  Fixture f(1);
  const workload::Job a = JobBuilder(1).set_runtime(60.0).deadline(100.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(40.0).deadline(100.0).build();
  f.submit(a);
  f.submit(b);  // total share exactly 1.0
  EXPECT_TRUE(f.executor.is_running(1));
  EXPECT_TRUE(f.executor.is_running(2));
}

TEST(Libra, BestFitSaturatesFullerNodes) {
  Fixture f(2);
  // Load node selection is deterministic: first job can go anywhere (both
  // empty, fit keys equal, and equal fits go to the lower node id) -> node 0.
  const workload::Job a = JobBuilder(1).set_runtime(50.0).deadline(100.0).build();
  f.submit(a);
  ASSERT_EQ(f.executor.node_jobs(0).size(), 1u);
  // Next job fits on both; best fit chooses the fuller node 0.
  const workload::Job b = JobBuilder(2).set_runtime(30.0).deadline(100.0).build();
  f.submit(b);
  EXPECT_EQ(f.executor.node_jobs(0).size(), 2u);
  EXPECT_TRUE(f.executor.node_jobs(1).empty());
}

TEST(Libra, WorstFitSpreadsLoad) {
  LibraConfig config = LibraConfig::libra();
  config.selection = LibraConfig::Selection::WorstFit;
  Fixture f(2, config);
  const workload::Job a = JobBuilder(1).set_runtime(50.0).deadline(100.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(30.0).deadline(100.0).build();
  f.submit(a);
  f.submit(b);
  EXPECT_EQ(f.executor.node_jobs(0).size(), 1u);
  EXPECT_EQ(f.executor.node_jobs(1).size(), 1u);
}

TEST(Libra, GangJobNeedsEnoughSuitableNodes) {
  Fixture f(3);
  // Saturate node 0 completely.
  const workload::Job hog = JobBuilder(1).set_runtime(100.0).deadline(100.0).build();
  f.submit(hog);
  // A 3-node gang job now only finds 2 suitable nodes.
  const workload::Job gang =
      JobBuilder(2).set_runtime(30.0).deadline(100.0).procs(3).build();
  f.submit(gang);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtSubmit);
  // A 2-node gang fits.
  const workload::Job gang2 =
      JobBuilder(3).set_runtime(30.0).deadline(100.0).procs(2).build();
  f.submit(gang2);
  EXPECT_TRUE(f.executor.is_running(3));
}

TEST(Libra, BlindToOverrunJobs) {
  // The paper's criticism: once a job exhausts its (under)estimate, its
  // Eq. 1 share is zero and Libra believes the node is free.
  Fixture f(1);
  const workload::Job sneaky =
      JobBuilder(1).estimate(50.0).set_runtime(200.0).deadline(400.0).build();
  f.submit(sneaky);
  // Alone on a work-conserving node it runs at full speed: the estimate is
  // exhausted at t=50 but 100 reference-seconds of real work remain at 100.
  f.simulator.run_until(100.0);
  f.executor.sync();
  ASSERT_TRUE(f.executor.is_running(1));
  EXPECT_GT(f.executor.view(1).overrun_bumps, 0);

  double fit = 0.0;
  const workload::Job newcomer =
      JobBuilder(2).submit(100.0).set_runtime(50.0).deadline(200.0).build();
  EXPECT_TRUE(f.scheduler.node_suitable(0, newcomer, fit));  // blind accept
}

// Advances the simulation clock to `t` (run_until stops at the last
// dispatched event, so one is scheduled there).
void advance_to(Fixture& f, sim::SimTime t) {
  f.simulator.at(t, sim::EventPriority::Control, [] {});
  f.simulator.run_until(t);
}

// A node whose residents have all overrun their raw estimates has an Eq. 2
// total of exactly 0, so its fit ties bitwise with an idle node's: BestFit
// and WorstFit alike then take the lower node id, whichever kind it is.
TEST(Libra, OverrunNodeTiesWithIdleNodeByNodeId) {
  for (const LibraConfig::Selection selection :
       {LibraConfig::Selection::BestFit, LibraConfig::Selection::WorstFit}) {
    for (const bool occupied_below : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "selection " << static_cast<int>(selection)
                   << (occupied_below ? ", occupied node 0" : ", occupied node 1"));
      LibraConfig config = LibraConfig::libra();
      config.selection = selection;
      Fixture f(2, config);
      // A hog of share exactly 1.0 pins node 0 so the overrunner lands on
      // node 1; it completes at t=100, leaving node 0 idle.
      const workload::Job hog =
          JobBuilder(1).set_runtime(100.0).deadline(100.0).build();
      const workload::Job sneaky =
          JobBuilder(2).estimate(50.0).set_runtime(200.0).deadline(400.0).build();
      if (!occupied_below) f.submit(hog);
      f.submit(sneaky);
      const cluster::NodeId occupied = occupied_below ? 0 : 1;
      ASSERT_EQ(f.executor.view(2).nodes, std::vector<cluster::NodeId>{occupied});

      advance_to(f, 120.0);
      f.executor.sync();
      ASSERT_FALSE(f.executor.is_running(1));
      ASSERT_TRUE(f.executor.is_running(2));
      ASSERT_GT(f.executor.view(2).overrun_bumps, 0);

      const workload::Job newcomer =
          JobBuilder(3).submit(120.0).set_runtime(50.0).deadline(200.0).build();
      double fit0 = 0.0;
      double fit1 = 0.0;
      ASSERT_TRUE(f.scheduler.node_suitable(0, newcomer, fit0));
      ASSERT_TRUE(f.scheduler.node_suitable(1, newcomer, fit1));
      ASSERT_EQ(fit0, fit1);  // the tie the selection must break by id
      f.submit(newcomer);
      EXPECT_EQ(f.executor.view(3).nodes, std::vector<cluster::NodeId>{0});
    }
  }
}

/// Keeps the last verdict event of a run and counts node evaluations.
class VerdictSink final : public trace::Sink {
 public:
  void write(const trace::Event& event) override {
    if (event.kind == trace::EventKind::NodeEvaluated) ++evaluated;
    if (event.kind == trace::EventKind::JobAdmitted ||
        event.kind == trace::EventKind::JobRejected)
      verdict = event;
  }
  trace::Event verdict;
  int evaluated = 0;
};

/// One Libra decision rebuilt by brute force: every node through
/// node_suitable(), candidates ranked by (fit, id) — node order for
/// FirstFit — and the rejection margin from every failing node's deficit.
struct Reference {
  bool accepted = false;
  int suitable = 0;  ///< the count the verdict event carries
  std::vector<cluster::NodeId> chosen;
  double first_fit = 0.0;
  double margin = 0.0;  ///< rejection margin; 0.0 when unquantified
  int covered = 0;      ///< nodes the decision covers, in node order
  bool idle_unsuitable = false;  ///< some idle node failed Eq. 2
};

Reference reference_decision(Fixture& f, const workload::Job& job) {
  const LibraConfig& config = f.scheduler.config();
  struct Fit {
    cluster::NodeId node;
    double fit;
  };
  std::vector<Fit> ok;
  std::vector<double> deficits;
  Reference r;
  for (cluster::NodeId n = 0; n < f.cluster.size(); ++n) {
    double fit = 0.0;
    if (f.scheduler.node_suitable(n, job, fit)) {
      ok.push_back({n, fit});
      continue;
    }
    if (f.executor.node_jobs(n).empty()) r.idle_unsuitable = true;
    if (fit - LibraConfig::kCapacity > LibraConfig::kTolerance)
      deficits.push_back(fit - LibraConfig::kCapacity);
  }
  r.covered = f.cluster.size();
  r.suitable = static_cast<int>(ok.size());
  r.accepted = r.suitable >= job.num_procs;
  if (!r.accepted) {
    const auto k = static_cast<std::size_t>(job.num_procs - r.suitable);
    std::sort(deficits.begin(), deficits.end());
    if (deficits.size() >= k) r.margin = -deficits[k - 1];
    return r;
  }
  switch (config.selection) {
    case LibraConfig::Selection::FirstFit:
      r.suitable = job.num_procs;  // the decision stops at its last choice
      break;
    case LibraConfig::Selection::BestFit:
      std::sort(ok.begin(), ok.end(), [](const Fit& a, const Fit& b) {
        return a.fit != b.fit ? a.fit > b.fit : a.node < b.node;
      });
      break;
    case LibraConfig::Selection::WorstFit:
      std::sort(ok.begin(), ok.end(), [](const Fit& a, const Fit& b) {
        return a.fit != b.fit ? a.fit < b.fit : a.node < b.node;
      });
      break;
  }
  for (int i = 0; i < job.num_procs; ++i)
    r.chosen.push_back(ok[static_cast<std::size_t>(i)].node);
  r.first_fit = ok.front().fit;
  if (config.selection == LibraConfig::Selection::FirstFit)
    r.covered = r.chosen.back() + 1;
  return r;
}

/// How often the differential runs hit the shapes the idle-class scan
/// treats specially.
struct Coverage {
  int all_idle = 0;         ///< submissions onto a cluster with no resident
  int all_busy = 0;         ///< submissions onto a cluster with no idle node
  int idle_unsuitable = 0;  ///< rejections with an idle node failing Eq. 2
  int wide_gangs = 0;       ///< accepted gangs wider than every class's idle count
};

// Seeded random submit / advance sequences: after every submission the
// scheduler's verdict, chosen nodes, traced suitable count, rejection
// margin and scan counters must equal the per-node reference's.
void run_differential(const cluster::Cluster& machine, const LibraConfig& config,
                      std::uint64_t seed, Coverage& coverage) {
  Fixture f(machine, config);
  VerdictSink sink;
  trace::Recorder recorder(sink);
  f.scheduler.attach({&recorder, nullptr});
  const int size = f.cluster.size();
  // Idle nodes per speed class, recounted before each submission.
  std::vector<double> speeds;
  for (cluster::NodeId n = 0; n < size; ++n)
    if (std::find(speeds.begin(), speeds.end(), f.cluster.speed_factor(n)) ==
        speeds.end())
      speeds.push_back(f.cluster.speed_factor(n));

  rng::Stream stream(seed);
  std::deque<workload::Job> jobs;  // the executor keeps pointers
  for (int op = 0; op < 400; ++op) {
    if (stream.bernoulli(0.3)) {
      // Mostly short steps; now and then one long enough to drain it all.
      advance_to(f, f.simulator.now() + (stream.bernoulli(0.08)
                                             ? 5000.0
                                             : stream.uniform(0.0, 60.0)));
      continue;
    }
    const int procs = static_cast<int>(stream.uniform_int(1, 6));
    const double runtime = stream.uniform(5.0, 100.0);
    // A third under-estimate (their raw share drops to 0 once overrun);
    // deadlines down to 0.3x make a job's own share exceed a slow node.
    const double estimate =
        stream.bernoulli(1.0 / 3.0) ? runtime * stream.uniform(0.3, 0.9) : runtime;
    jobs.push_back(JobBuilder(op + 1)
                       .submit(f.simulator.now())
                       .estimate(std::max(estimate, 1.0))
                       .set_runtime(runtime)
                       .deadline(runtime * stream.uniform(0.3, 4.0))
                       .procs(procs)
                       .build());
    const workload::Job& job = jobs.back();
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " job " << job.id);

    f.executor.sync();
    int occupied = 0;
    int widest_idle = 0;
    for (const double speed : speeds) {
      int idle = 0;
      for (cluster::NodeId n = 0; n < size; ++n)
        if (f.cluster.speed_factor(n) == speed) {
          if (f.executor.node_jobs(n).empty())
            ++idle;
          else
            ++occupied;
        }
      widest_idle = std::max(widest_idle, idle);
    }
    ASSERT_EQ(static_cast<std::size_t>(occupied),
              f.executor.occupied_nodes().size());
    const Reference ref = reference_decision(f, job);
    std::vector<bool> was_occupied(static_cast<std::size_t>(size));
    for (cluster::NodeId n = 0; n < size; ++n)
      was_occupied[static_cast<std::size_t>(n)] = !f.executor.node_jobs(n).empty();
    const AdmissionStats before = f.scheduler.admission_stats();
    sink.evaluated = 0;

    f.submit(job);

    ASSERT_EQ(f.executor.is_running(job.id), ref.accepted);
    const trace::Event& verdict = sink.verdict;
    ASSERT_EQ(verdict.job, job.id);
    EXPECT_EQ(verdict.a, static_cast<double>(ref.suitable));
    if (ref.accepted) {
      EXPECT_EQ(verdict.kind, trace::EventKind::JobAdmitted);
      EXPECT_EQ(f.executor.view(job.id).nodes, ref.chosen);
      EXPECT_EQ(verdict.node, ref.chosen.front());
      EXPECT_EQ(verdict.b, ref.first_fit);
    } else {
      EXPECT_EQ(verdict.kind, trace::EventKind::JobRejected);
      EXPECT_EQ(verdict.margin, ref.margin);
    }
    const AdmissionStats& after = f.scheduler.admission_stats();
    int occupied_covered = 0;
    for (cluster::NodeId n = 0; n < ref.covered; ++n)
      occupied_covered += was_occupied[static_cast<std::size_t>(n)] ? 1 : 0;
    EXPECT_EQ(sink.evaluated, ref.covered);
    EXPECT_EQ(after.nodes_scanned - before.nodes_scanned,
              static_cast<std::uint64_t>(ref.covered));
    EXPECT_EQ(after.assessments - before.assessments,
              static_cast<std::uint64_t>(occupied_covered));
    EXPECT_EQ(after.empty_node_skips - before.empty_node_skips,
              static_cast<std::uint64_t>(ref.covered - occupied_covered));
    EXPECT_EQ(after.early_exits - before.early_exits,
              ref.covered < size ? 1u : 0u);

    coverage.all_idle += occupied == 0 ? 1 : 0;
    coverage.all_busy += occupied == size ? 1 : 0;
    coverage.idle_unsuitable += !ref.accepted && ref.idle_unsuitable ? 1 : 0;
    coverage.wide_gangs += ref.accepted && job.num_procs > widest_idle ? 1 : 0;
  }
}

TEST(Libra, EqTwoScanMatchesPerNodeReference) {
  // 12 identical nodes, and 15 nodes in 5 speed classes of 3 (gangs of up
  // to 6 are wider than any class).
  std::vector<cluster::NodeSpec> specs;
  for (int i = 0; i < 15; ++i)
    specs.push_back({i, 100.0 + 20.0 * static_cast<double>(i % 5)});
  const std::pair<const char*, cluster::Cluster> machines[] = {
      {"homogeneous", cluster::Cluster::homogeneous(12, 1.0)},
      {"heterogeneous", cluster::Cluster(specs, 168.0)}};
  for (const auto& [name, machine] : machines) {
    Coverage coverage;
    for (const LibraConfig::Selection selection :
         {LibraConfig::Selection::FirstFit, LibraConfig::Selection::BestFit,
          LibraConfig::Selection::WorstFit})
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message()
                     << name << " selection " << static_cast<int>(selection));
        LibraConfig config = LibraConfig::libra();
        config.selection = selection;
        run_differential(machine, config, seed, coverage);
      }
    SCOPED_TRACE(name);
    EXPECT_GT(coverage.all_idle, 0);
    EXPECT_GT(coverage.all_busy, 0);
    EXPECT_GT(coverage.idle_unsuitable, 0);
    EXPECT_GT(coverage.wide_gangs, 0);
  }
}

TEST(Libra, CapacityReleasedAfterCompletion) {
  Fixture f(1);
  const workload::Job a = JobBuilder(1).set_runtime(60.0).deadline(100.0).build();
  f.submit(a);
  f.simulator.run();  // a completes
  const workload::Job b = JobBuilder(2)
                              .submit(f.simulator.now())
                              .set_runtime(60.0)
                              .deadline(100.0)
                              .build();
  f.submit(b);
  EXPECT_TRUE(f.executor.is_running(2));
}

TEST(LibraConfigTest, PresetsMatchPaper) {
  const LibraConfig libra = LibraConfig::libra();
  EXPECT_EQ(libra.admission, LibraConfig::Admission::TotalShare);
  EXPECT_EQ(libra.selection, LibraConfig::Selection::BestFit);

  const LibraConfig risk = LibraConfig::libra_risk();
  EXPECT_EQ(risk.admission, LibraConfig::Admission::ZeroRisk);
  EXPECT_EQ(risk.selection, LibraConfig::Selection::FirstFit);
}

}  // namespace
}  // namespace librisk::core
