#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/libra.hpp"
#include "helpers.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace librisk::core {
namespace {

using librisk::testing::JobBuilder;

struct Fixture {
  explicit Fixture(int nodes, LibraConfig config = LibraConfig::libra_risk())
      : Fixture(cluster::Cluster::homogeneous(nodes, 1.0), config) {}
  Fixture(cluster::Cluster machine, LibraConfig config)
      : cluster(std::move(machine)),
        executor(simulator, cluster),
        scheduler(simulator, executor, collector, config, "LibraRisk") {}

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

TEST(LibraRisk, AcceptsFeasibleJobLikeLibra) {
  Fixture f(2);
  const workload::Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.submit(job);
  EXPECT_TRUE(f.executor.is_running(1));
  f.simulator.run();
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::FulfilledInTime);
}

TEST(LibraRisk, SalvageLaneAcceptsOverestimatedUrgentJob) {
  // Estimated share 3 > 1: Libra rejects outright; LibraRisk's literal
  // sigma-only test admits it alone on an empty node (single predicted-late
  // job has zero dispersion), where it runs at full speed and — because the
  // estimate was inflated — still meets its deadline.
  Fixture f(2);
  const workload::Job job =
      JobBuilder(1).estimate(300.0).set_runtime(80.0).deadline(100.0).build();
  f.submit(job);
  EXPECT_TRUE(f.executor.is_running(1));
  f.simulator.run();
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::FulfilledInTime);
}

TEST(LibraRisk, SalvagedNodeIsQuarantined) {
  // A node holding a predicted-late job has sigma > 0 against any on-time
  // addition, so later feasible jobs route to other nodes.
  Fixture f(2);
  const workload::Job risky =
      JobBuilder(1).estimate(300.0).set_runtime(80.0).deadline(100.0).build();
  f.submit(risky);
  ASSERT_EQ(f.executor.node_jobs(0).size(), 1u);
  const workload::Job tame = JobBuilder(2).set_runtime(10.0).deadline(100.0).build();
  f.submit(tame);
  EXPECT_TRUE(f.executor.is_running(2));
  EXPECT_EQ(f.executor.node_jobs(0).size(), 1u);  // not stacked on the risky node
  EXPECT_EQ(f.executor.node_jobs(1).size(), 1u);
}

TEST(LibraRisk, RejectsWhenOnlyRiskyNodesRemain) {
  Fixture f(1);
  const workload::Job risky =
      JobBuilder(1).estimate(300.0).set_runtime(80.0).deadline(100.0).build();
  f.submit(risky);
  const workload::Job tame = JobBuilder(2).set_runtime(10.0).deadline(100.0).build();
  f.submit(tame);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(LibraRisk, SeesOverrunJobsLibraMisses) {
  // Same setup as Libra.BlindToOverrunJobs — but LibraRisk must refuse the
  // node because the overrun resident is predicted to finish late.
  Fixture f(1);
  const workload::Job sneaky =
      JobBuilder(1).estimate(50.0).set_runtime(200.0).deadline(60.0).build();
  f.submit(sneaky);  // share 50/60 < 1: a normal acceptance
  // By t=70 the estimate is long exhausted and the deadline (t=60) missed;
  // the node carries a visibly late overrun job.
  f.simulator.run_until(70.0);
  f.executor.sync();
  ASSERT_TRUE(f.executor.is_running(1));
  ASSERT_GT(f.executor.view(1).overrun_bumps, 0);

  double fit = 0.0;
  const workload::Job newcomer =
      JobBuilder(2).submit(70.0).set_runtime(5.0).deadline(50.0).build();
  // The overrun resident is now predicted late while the newcomer would be
  // on time: heterogeneous deadline_delay, sigma > 0, node unsuitable.
  EXPECT_FALSE(f.scheduler.node_suitable(0, newcomer, fit));
}

TEST(LibraRisk, FirstFitTakesZeroRiskNodesInOrder) {
  Fixture f(3);
  const workload::Job a = JobBuilder(1).set_runtime(10.0).deadline(100.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(10.0).deadline(100.0).build();
  f.submit(a);
  f.submit(b);
  // First-fit keeps choosing node 0 while it stays zero-risk.
  EXPECT_EQ(f.executor.node_jobs(0).size(), 2u);
  EXPECT_TRUE(f.executor.node_jobs(1).empty());
}

TEST(LibraRisk, GangJobCountsZeroRiskNodes) {
  Fixture f(3);
  const workload::Job risky =
      JobBuilder(1).estimate(300.0).set_runtime(80.0).deadline(100.0).build();
  f.submit(risky);  // occupies node 0 as a quarantined lane
  const workload::Job gang =
      JobBuilder(2).set_runtime(10.0).deadline(100.0).procs(3).build();
  f.submit(gang);  // needs 3 zero-risk nodes, only 2 remain
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtSubmit);
  const workload::Job gang2 =
      JobBuilder(3).set_runtime(10.0).deadline(100.0).procs(2).build();
  f.submit(gang2);
  EXPECT_TRUE(f.executor.is_running(3));
  // Allocated to nodes 1 and 2, skipping the risky node 0.
  EXPECT_EQ(f.executor.node_jobs(1).size(), 1u);
  EXPECT_EQ(f.executor.node_jobs(2).size(), 1u);
}

TEST(LibraRisk, StricterRuleClosesSalvageLane) {
  LibraConfig config = LibraConfig::libra_risk();
  config.risk.rule = RiskConfig::Rule::SigmaAndNoDelay;
  Fixture f(2, config);
  const workload::Job job =
      JobBuilder(1).estimate(300.0).set_runtime(80.0).deadline(100.0).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(LibraRisk, AgreesWithLibraOnAccurateEstimates) {
  // Under accurate estimates and no overruns the acceptance decisions of
  // the two policies coincide (DESIGN.md §3.2); selection differs.
  sim::Simulator sim_a, sim_b;
  const auto cl = cluster::Cluster::homogeneous(4, 1.0);
  cluster::TimeSharedExecutor exec_a(sim_a, cl), exec_b(sim_b, cl);
  metrics::Collector col_a, col_b;
  LibraScheduler libra(sim_a, exec_a, col_a, LibraConfig::libra(), "Libra");
  LibraScheduler risk(sim_b, exec_b, col_b, LibraConfig::libra_risk(), "LibraRisk");

  rng::Stream stream(21);
  std::vector<workload::Job> jobs;
  jobs.reserve(60);
  for (int i = 0; i < 60; ++i) {
    jobs.push_back(JobBuilder(i + 1)
                       .submit(static_cast<double>(i) * 50.0)
                       .set_runtime(stream.uniform(20.0, 300.0))
                       .deadline(stream.uniform(1000.0, 4000.0))
                       .procs(static_cast<int>(stream.uniform_int(1, 2)))
                       .build());
  }
  run_trace(sim_a, libra, col_a, jobs);
  run_trace(sim_b, risk, col_b, jobs);
  for (const auto& job : jobs) {
    const bool rejected_a =
        col_a.record(job.id).fate == metrics::JobFate::RejectedAtSubmit;
    const bool rejected_b =
        col_b.record(job.id).fate == metrics::JobFate::RejectedAtSubmit;
    EXPECT_EQ(rejected_a, rejected_b) << "job " << job.id;
  }
}

// Advances the simulation clock to `t` (run_until stops at the last
// dispatched event, so one is scheduled there).
void advance_to(Fixture& f, sim::SimTime t) {
  f.simulator.at(t, sim::EventPriority::Control, [] {});
  f.simulator.run_until(t);
}

/// Keeps a submission's node evaluations and its verdict event.
class DecisionSink final : public trace::Sink {
 public:
  void write(const trace::Event& event) override {
    if (event.kind == trace::EventKind::NodeEvaluated) evaluated.push_back(event);
    if (event.kind == trace::EventKind::JobAdmitted ||
        event.kind == trace::EventKind::JobRejected)
      verdict = event;
  }
  std::vector<trace::Event> evaluated;
  trace::Event verdict;
};

/// One ZeroRisk decision rebuilt by brute force: every node through
/// node_suitable(), candidates taken in node order (FirstFit) or ranked by
/// (fit, id), and the rejection margin from every node whose sigma failed.
struct Reference {
  struct Node {
    bool suitable = false;
    double fit = 0.0;
    double sigma = 0.0;
  };
  std::vector<Node> nodes;  ///< every node's verdict, by node id
  bool accepted = false;
  int suitable = 0;  ///< the count the verdict event carries
  std::vector<cluster::NodeId> chosen;
  double margin = 0.0;  ///< rejection margin; 0.0 when unquantified
  int covered = 0;      ///< nodes the decision covers, in node order
};

Reference reference_decision(Fixture& f, const workload::Job& job) {
  const LibraConfig& config = f.scheduler.config();
  Reference r;
  std::vector<cluster::NodeId> ok;
  std::vector<double> deficits;
  for (cluster::NodeId n = 0; n < f.cluster.size(); ++n) {
    Reference::Node node;
    node.suitable = f.scheduler.node_suitable(n, job, node.fit, &node.sigma);
    r.nodes.push_back(node);
    if (node.suitable) ok.push_back(n);
    const double deficit = node.sigma - config.risk.sigma_threshold;
    if (deficit > config.risk.tolerance) deficits.push_back(deficit);
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
  const auto fit = [&r](cluster::NodeId n) {
    return r.nodes[static_cast<std::size_t>(n)].fit;
  };
  switch (config.selection) {
    case LibraConfig::Selection::FirstFit:
      r.suitable = job.num_procs;  // the scan stops at its last choice
      break;
    case LibraConfig::Selection::BestFit:
      std::sort(ok.begin(), ok.end(), [&](cluster::NodeId a, cluster::NodeId b) {
        return fit(a) != fit(b) ? fit(a) > fit(b) : a < b;
      });
      break;
    case LibraConfig::Selection::WorstFit:
      std::sort(ok.begin(), ok.end(), [&](cluster::NodeId a, cluster::NodeId b) {
        return fit(a) != fit(b) ? fit(a) < fit(b) : a < b;
      });
      break;
  }
  r.chosen.assign(ok.begin(), ok.begin() + job.num_procs);
  if (config.selection == LibraConfig::Selection::FirstFit)
    r.covered = r.chosen.back() + 1;
  return r;
}

/// How often the differential runs hit the shapes that node sharing and
/// the scan's shortcuts treat specially.
struct Coverage {
  int accepted = 0;
  int rejected = 0;
  int quantified_margins = 0;  ///< traced rejections with a finite deficit
  int early_exits = 0;         ///< FirstFit accepts that stopped early
  int bound_skips = 0;         ///< nodes the untraced σ-spread bound rejected
  /// Submissions that saw two nodes of one speed holding the same list of
  /// two or more residents.
  int shared_lists = 0;
  /// Submissions that saw one resident list on nodes of two speeds.
  int cross_speed_lists = 0;
};

// Seeded random submit / advance sequences. Now and then a gang joins some
// nodes of a running gang directly through the executor (bypassing the
// admission test), so that many nodes hold the same resident list, and
// such lists split again as their jobs finish. After every submission the
// verdict, chosen nodes and scan counters must equal the per-node
// reference's; traced runs must also match the suitable count, the
// rejection margin and every node_evaluated event. Untraced runs arm the
// σ-spread bound, which leaves a skipped node's deficit unquantified, so
// their margins are not compared.
void run_zero_risk_differential(const cluster::Cluster& machine,
                                const LibraConfig& config, bool traced,
                                std::uint64_t seed, Coverage& coverage) {
  Fixture f(machine, config);
  DecisionSink sink;
  trace::Recorder recorder(sink);
  if (traced) f.scheduler.attach({&recorder, nullptr});
  const int size = f.cluster.size();

  rng::Stream stream(seed);
  std::deque<workload::Job> jobs;  // the executor keeps pointers
  for (int op = 0; op < 300; ++op) {
    if (stream.bernoulli(0.3)) {
      advance_to(f, f.simulator.now() + (stream.bernoulli(0.08)
                                             ? 5000.0
                                             : stream.uniform(0.0, 60.0)));
      continue;
    }
    const double runtime = stream.uniform(5.0, 100.0);
    // A third under-estimate (they overrun and turn their nodes risky);
    // deadlines down to 0.3x put predicted-late jobs beside on-time ones.
    const double estimate =
        stream.bernoulli(1.0 / 3.0) ? runtime * stream.uniform(0.3, 0.9) : runtime;
    JobBuilder builder = JobBuilder(op + 1)
                             .submit(f.simulator.now())
                             .estimate(std::max(estimate, 1.0))
                             .set_runtime(runtime)
                             .deadline(runtime * stream.uniform(0.3, 4.0));
    f.executor.sync();

    if (stream.bernoulli(0.15)) {
      std::vector<const workload::Job*> gangs;
      for (const workload::Job& j : jobs)
        if (j.num_procs >= 2 && f.executor.is_running(j.id)) gangs.push_back(&j);
      if (!gangs.empty()) {
        const workload::Job& host = *gangs[static_cast<std::size_t>(
            stream.uniform_int(0, static_cast<std::int64_t>(gangs.size()) - 1))];
        std::vector<cluster::NodeId> nodes = f.executor.view(host.id).nodes;
        nodes.resize(static_cast<std::size_t>(
            stream.uniform_int(1, static_cast<std::int64_t>(nodes.size()))));
        jobs.push_back(builder.procs(static_cast<int>(nodes.size())).build());
        f.collector.record_submitted(jobs.back(), f.simulator.now());
        f.collector.record_started(jobs.back(), f.simulator.now(), runtime);
        f.executor.start(jobs.back(), std::move(nodes));
        continue;
      }
    }
    jobs.push_back(builder.procs(static_cast<int>(stream.uniform_int(1, 6))).build());
    const workload::Job& job = jobs.back();
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " job " << job.id);

    std::map<std::vector<std::int64_t>, std::vector<double>> speeds_of_list;
    for (cluster::NodeId n = 0; n < size; ++n)
      if (!f.executor.node_jobs(n).empty())
        speeds_of_list[f.executor.node_jobs(n)].push_back(f.cluster.speed_factor(n));
    bool shared = false;
    bool cross_speed = false;
    for (auto& [list, speeds] : speeds_of_list) {
      std::sort(speeds.begin(), speeds.end());
      const bool repeats =
          std::adjacent_find(speeds.begin(), speeds.end()) != speeds.end();
      shared = shared || (list.size() >= 2 && repeats);
      cross_speed = cross_speed || speeds.front() != speeds.back();
    }
    coverage.shared_lists += shared ? 1 : 0;
    coverage.cross_speed_lists += cross_speed ? 1 : 0;

    const Reference ref = reference_decision(f, job);
    int empty_covered = 0;
    for (cluster::NodeId n = 0; n < ref.covered; ++n)
      empty_covered += f.executor.node_jobs(n).empty() ? 1 : 0;
    const AdmissionStats before = f.scheduler.admission_stats();
    sink.evaluated.clear();

    f.submit(job);

    ASSERT_EQ(f.executor.is_running(job.id), ref.accepted);
    if (ref.accepted) {
      EXPECT_EQ(f.executor.view(job.id).nodes, ref.chosen);
    }
    const AdmissionStats& after = f.scheduler.admission_stats();
    const std::uint64_t scanned = after.nodes_scanned - before.nodes_scanned;
    const std::uint64_t skipped =
        after.nodes_batch_skipped - before.nodes_batch_skipped;
    EXPECT_EQ(scanned, static_cast<std::uint64_t>(ref.covered));
    EXPECT_EQ(scanned, (after.assessments - before.assessments) +
                           (after.empty_node_skips - before.empty_node_skips) +
                           skipped);
    EXPECT_EQ(after.empty_node_skips - before.empty_node_skips,
              static_cast<std::uint64_t>(empty_covered));
    EXPECT_EQ(after.early_exits - before.early_exits,
              ref.covered < size ? 1u : 0u);
    coverage.accepted += ref.accepted ? 1 : 0;
    coverage.rejected += ref.accepted ? 0 : 1;
    coverage.early_exits += ref.covered < size ? 1 : 0;
    coverage.bound_skips += static_cast<int>(skipped);
    if (!traced) continue;

    EXPECT_EQ(skipped, 0u);
    const trace::Event& verdict = sink.verdict;
    ASSERT_EQ(verdict.job, job.id);
    EXPECT_EQ(verdict.a, static_cast<double>(ref.suitable));
    if (ref.accepted) {
      const Reference::Node& first =
          ref.nodes[static_cast<std::size_t>(ref.chosen.front())];
      EXPECT_EQ(verdict.kind, trace::EventKind::JobAdmitted);
      EXPECT_EQ(verdict.node, ref.chosen.front());
      EXPECT_EQ(verdict.b, first.fit);
      EXPECT_EQ(verdict.margin, config.risk.sigma_threshold - first.sigma);
    } else {
      EXPECT_EQ(verdict.kind, trace::EventKind::JobRejected);
      EXPECT_EQ(verdict.margin, ref.margin);
      coverage.quantified_margins += ref.margin != 0.0 ? 1 : 0;
    }
    ASSERT_EQ(sink.evaluated.size(), static_cast<std::size_t>(ref.covered));
    for (cluster::NodeId n = 0; n < ref.covered; ++n) {
      const trace::Event& e = sink.evaluated[static_cast<std::size_t>(n)];
      const Reference::Node& node = ref.nodes[static_cast<std::size_t>(n)];
      EXPECT_EQ(e.node, n);
      EXPECT_EQ(e.reason, node.suitable ? trace::RejectionReason::None
                                        : trace::RejectionReason::RiskSigma);
      EXPECT_EQ(e.a, node.sigma) << "node " << n;
      EXPECT_EQ(e.b, node.fit) << "node " << n;
    }
  }
}

TEST(LibraRisk, ZeroRiskScanMatchesPerNodeReference) {
  // 12 identical nodes, and 15 nodes in 5 speed classes of 3 (gangs of up
  // to 6 span several speeds).
  std::vector<cluster::NodeSpec> specs;
  for (int i = 0; i < 15; ++i)
    specs.push_back({i, 100.0 + 20.0 * static_cast<double>(i % 5)});
  const std::pair<const char*, cluster::Cluster> machines[] = {
      {"homogeneous", cluster::Cluster::homogeneous(12, 1.0)},
      {"heterogeneous", cluster::Cluster(specs, 168.0)}};
  LibraConfig best = LibraConfig::libra_risk();
  best.selection = LibraConfig::Selection::BestFit;
  LibraConfig worst = LibraConfig::libra_risk();
  worst.selection = LibraConfig::Selection::WorstFit;
  const std::pair<const char*, LibraConfig> configs[] = {
      {"LibraRisk", LibraConfig::libra_risk()},
      {"ZeroRisk BestFit", best},
      {"ZeroRisk WorstFit", worst}};
  for (const auto& [name, machine] : machines) {
    Coverage coverage;
    for (const auto& [policy, config] : configs)
      for (const bool traced : {true, false})
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          SCOPED_TRACE(::testing::Message()
                       << name << ' ' << policy
                       << (traced ? " traced" : " untraced"));
          run_zero_risk_differential(machine, config, traced, seed, coverage);
        }
    SCOPED_TRACE(name);
    EXPECT_GT(coverage.accepted, 0);
    EXPECT_GT(coverage.rejected, 0);
    EXPECT_GT(coverage.quantified_margins, 0);
    EXPECT_GT(coverage.early_exits, 0);
    EXPECT_GT(coverage.bound_skips, 0);
    EXPECT_GT(coverage.shared_lists, 0);
    if (machine.size() == 15) {
      EXPECT_GT(coverage.cross_speed_lists, 0);
    }
  }
}

}  // namespace
}  // namespace librisk::core
