// Golden decision digests: the admission scan and the execution kernel
// pinned to frozen per-scenario hashes of the seed implementation's
// decisions, in place of live differential oracles.
//
// tests/data/golden_decisions.txt holds one `label fnv1a64` line per
// scenario. Each digest covers what a decision change would move:
//   - untraced runs: every RunSummary field plus each job's (id, fate,
//     delay, slowdown) bit patterns. Untraced LibraRisk scans arm the
//     σ-spread bound skip, so these runs are what pins that path;
//   - the chosen-node runs also hash every execution-timeline segment
//     (job, node, begin, end, rate), which pins placement;
//   - traced runs hash the .lrt bytes — every verdict, node choice,
//     overrun, kill and completion instant — plus the same fields and the
//     simulator's event count.
// The digests were recorded where the seed implementations still ran: each
// admission digest equalled its run on the full-scan allocating admission
// path, and each kernel digest its run on the whole-resident-set settle.
// Matching the file is therefore equivalence with the seed implementation.
// The overload labels (DowngradeQoS under EDF and EDF-BF, untraced and
// traced) were recorded on the separate EDF/FCFS/QoPS schedulers that the
// single space-shared dispatcher replaced. The Libra chosen-node labels
// and the traced kernel/selection labels were recorded on the per-node
// Eq. 2 scan that the occupied-node / idle-speed-class scan replaced.
//
// A mismatch prints the fresh line. An announced decision change updates
// the file by pasting the printed lines over the stale ones (docs/API.md).
// Two small .lrt fixtures compare byte for byte and report the first
// divergent event, to point a failure at a decision rather than a hash.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/timeline.hpp"
#include "core/factory.hpp"
#include "exp/scenario.hpp"
#include "trace/diff.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace librisk {
namespace {

/// FNV-1a over a little-endian byte stream; doubles enter by their bit
/// patterns, so a one-ulp drift anywhere changes the digest.
class Digest {
 public:
  void byte(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const std::string& s) noexcept {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void hash_summary(Digest& d, const metrics::RunSummary& s) {
  for (const std::size_t n : {s.submitted, s.accepted, s.rejected_at_submit,
                              s.rejected_at_dispatch, s.fulfilled,
                              s.completed_late, s.killed})
    d.u64(n);
  for (const double x :
       {s.fulfilled_pct, s.avg_slowdown_fulfilled, s.avg_slowdown_completed,
        s.avg_delay_late, s.p95_slowdown_fulfilled, s.max_delay,
        s.fulfilled_pct_high_urgency, s.fulfilled_pct_low_urgency, s.makespan,
        s.utilization})
    d.f64(x);
}

void hash_job(Digest& d, std::int64_t id, metrics::JobFate fate, double delay,
              double slowdown) {
  d.i64(id);
  d.byte(static_cast<std::uint8_t>(fate));
  d.f64(delay);
  d.f64(slowdown);
}

void hash_result(Digest& d, const exp::ScenarioResult& r) {
  hash_summary(d, r.summary);
  for (const exp::JobOutcome& o : r.outcomes)
    hash_job(d, o.id, o.fate, o.delay, o.slowdown);
}

exp::Scenario small_scenario(core::Policy policy, std::uint64_t seed) {
  exp::Scenario s;
  s.workload.trace.job_count = 300;
  s.nodes = 32;
  s.policy = policy;
  s.seed = seed;
  return s;
}

/// 24 nodes rated 100..180 in a repeating ramp, normalised to 168.
void make_heterogeneous(exp::Scenario& s) {
  for (int i = 0; i < 24; ++i)
    s.node_ratings.push_back(100.0 + 20.0 * static_cast<double>(i % 5));
  s.rating = 168.0;
}

std::string result_digest(const exp::ScenarioResult& result) {
  Digest d;
  hash_result(d, result);
  return d.hex();
}

std::string untraced_digest(const exp::Scenario& scenario) {
  return result_digest(exp::run_scenario(scenario));
}

struct TracedRun {
  std::string lrt;
  exp::ScenarioResult result;
};

/// Runs `scenario` streaming its decision trace into an in-memory .lrt.
TracedRun run_traced(exp::Scenario scenario) {
  std::ostringstream os;
  trace::BinarySink sink(
      os, {std::string(core::to_string(scenario.policy)), scenario.seed});
  trace::Recorder recorder(sink);
  scenario.options.hooks.trace = &recorder;
  TracedRun run;
  run.result = exp::run_scenario(scenario);
  sink.close();
  run.lrt = os.str();
  return run;
}

std::string traced_run_digest(const TracedRun& run) {
  Digest d;
  d.bytes(run.lrt);
  hash_result(d, run.result);
  d.u64(run.result.events_processed);
  return d.hex();
}

std::string traced_digest(const exp::Scenario& scenario) {
  return traced_run_digest(run_traced(scenario));
}

/// A digest is only a guard if the run takes the path it pins: every
/// DowngradeQoS label must see at least one degraded admission.
void expect_bend_fired(const exp::ScenarioResult& result,
                       const exp::Scenario& scenario) {
  EXPECT_GT(result.admission.degraded_admits, 0u)
      << core::to_string(scenario.policy) << " seed " << scenario.seed
      << " never bent a deadline";
}

/// make_heterogeneous's ramp as a hand-built cluster (5 speed classes).
cluster::Cluster heterogeneous_cluster() {
  exp::Scenario s;
  make_heterogeneous(s);
  std::vector<cluster::NodeSpec> specs;
  for (int i = 0; i < static_cast<int>(s.node_ratings.size()); ++i)
    specs.push_back({i, s.node_ratings[static_cast<std::size_t>(i)]});
  return cluster::Cluster(std::move(specs), s.rating);
}

/// `config` on a hand-built stack over `cluster`, recording the execution
/// timeline (placement, segment boundaries and rates).
std::string chosen_node_digest(const core::LibraConfig& config,
                               const cluster::Cluster& cluster) {
  workload::PaperWorkloadConfig w;
  w.trace.job_count = 400;
  const auto jobs = workload::make_paper_workload(w, 7);
  sim::Simulator simulator;
  metrics::Collector collector;
  cluster::TimeSharedExecutor executor(simulator, cluster, {});
  cluster::TimelineRecorder recorder;
  executor.set_timeline_recorder(&recorder);
  core::LibraScheduler scheduler(simulator, executor, collector, config,
                                 "golden");
  core::run_trace(simulator, scheduler, collector, jobs);

  Digest d;
  hash_summary(d, collector.summarize());
  for (const auto& [id, rec] : collector.records())
    hash_job(d, id, rec.fate, rec.delay, rec.slowdown());
  for (const cluster::TimelineSegment& seg : recorder.segments()) {
    d.i64(seg.job_id);
    d.i64(seg.node);
    d.f64(seg.begin);
    d.f64(seg.end);
    d.f64(seg.rate);
  }
  return d.hex();
}

struct Case {
  std::string label;
  std::function<std::string()> digest;
};

std::string policy_name(core::Policy policy) {
  return std::string(core::to_string(policy));
}

const char* selection_name(core::LibraConfig::Selection selection) {
  switch (selection) {
    case core::LibraConfig::Selection::FirstFit: return "FirstFit";
    case core::LibraConfig::Selection::BestFit: return "BestFit";
    case core::LibraConfig::Selection::WorstFit: return "WorstFit";
  }
  return "?";
}

std::string seed_tag(std::uint64_t seed) { return "/s" + std::to_string(seed); }

constexpr core::LibraConfig::Selection kSelections[] = {
    core::LibraConfig::Selection::FirstFit,
    core::LibraConfig::Selection::BestFit,
    core::LibraConfig::Selection::WorstFit};
constexpr core::Policy kLibraFamily[] = {core::Policy::Libra,
                                         core::Policy::LibraRisk};

void add_untraced(std::vector<Case>& cases, std::string label,
                  const exp::Scenario& s) {
  cases.push_back({std::move(label), [s] { return untraced_digest(s); }});
}

void add_traced(std::vector<Case>& cases, std::string label,
                const exp::Scenario& s) {
  cases.push_back({std::move(label), [s] { return traced_digest(s); }});
}

/// Every golden scenario, labelled `layer/group/...`. Building the list
/// runs nothing; each digest runs its scenario when called.
std::vector<Case> all_cases() {
  std::vector<Case> cases;

  // ---- admission: untraced, so the σ-spread bound skip is armed ----
  for (const core::Policy policy : core::all_policies())
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
      add_untraced(cases,
                   "admission/policy/" + policy_name(policy) + seed_tag(seed),
                   small_scenario(policy, seed));
  // Higher contention (16 nodes) under every selection strategy.
  for (const core::Policy policy : kLibraFamily)
    for (const core::LibraConfig::Selection selection : kSelections)
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        exp::Scenario s = small_scenario(policy, seed);
        s.nodes = 16;
        s.options.selection_override = selection;
        add_untraced(cases,
                     "admission/selection/" + policy_name(policy) + "/" +
                         selection_name(selection) + seed_tag(seed),
                     s);
      }
  for (const core::Policy policy : kLibraFamily)
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      exp::Scenario s = small_scenario(policy, seed);
      make_heterogeneous(s);
      add_untraced(cases,
                   "admission/hetero/" + policy_name(policy) + seed_tag(seed),
                   s);
    }
  // Off-default risk knobs, which take other paths through the scan (e.g.
  // the per-resident fold in place of the cached aggregates under the other
  // predictions).
  const std::pair<const char*, void (*)(exp::Scenario&)> variants[] = {
      {"processor-sharing",
       [](exp::Scenario& s) {
         s.options.share_model.mode = cluster::ExecutionMode::EqualShare;
         s.options.risk.prediction = core::RiskConfig::Prediction::ProcessorSharing;
       }},
      {"proportional-share",
       [](exp::Scenario& s) {
         s.options.risk.prediction = core::RiskConfig::Prediction::ProportionalShare;
       }},
      {"sigma-threshold",
       [](exp::Scenario& s) { s.options.risk.sigma_threshold = 0.5; }},
      {"kill-at-estimate",
       [](exp::Scenario& s) { s.options.share_model.kill_at_estimate = true; }},
  };
  for (const auto& [name, apply] : variants)
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      exp::Scenario s = small_scenario(core::Policy::LibraRisk, seed);
      apply(s);
      add_untraced(cases,
                   std::string("admission/risk/") + name + seed_tag(seed), s);
    }
  // Placement under every selection: LibraRisk (ZeroRisk scan) and Libra
  // (Eq. 2 scan), the latter also across the 5 speed classes of the ramp.
  const std::pair<const char*, core::LibraConfig (*)()> placement_policies[] = {
      {"", &core::LibraConfig::libra_risk},
      {"Libra/", &core::LibraConfig::libra}};
  for (const auto& [stem, make_config] : placement_policies)
    for (const core::LibraConfig::Selection selection : kSelections) {
      core::LibraConfig config = make_config();
      config.selection = selection;
      cases.push_back({std::string("admission/chosen-node/") + stem +
                           selection_name(selection),
                       [config] {
                         return chosen_node_digest(
                             config, cluster::Cluster::homogeneous(24, 168.0));
                       }});
    }
  for (const core::LibraConfig::Selection selection : kSelections) {
    core::LibraConfig config = core::LibraConfig::libra();
    config.selection = selection;
    cases.push_back({std::string("admission/chosen-node/Libra-hetero/") +
                         selection_name(selection),
                     [config] {
                       return chosen_node_digest(config, heterogeneous_cluster());
                     }});
  }

  // ---- kernel: traced, byte-level .lrt ----
  for (const core::Policy policy : core::all_policies())
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
      add_traced(cases, "kernel/policy/" + policy_name(policy) + seed_tag(seed),
                 small_scenario(policy, seed));
  // Accurate estimates (no overruns) and full trace inaccuracy (overrun-rich).
  for (const int inaccuracy : {0, 100})
    for (const core::Policy policy : kLibraFamily)
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        exp::Scenario s = small_scenario(policy, seed);
        s.workload.inaccuracy_pct = inaccuracy;
        add_traced(cases,
                   "kernel/inaccuracy" + std::to_string(inaccuracy) + "/" +
                       policy_name(policy) + seed_tag(seed),
                   s);
      }
  // Execution-model ablations; strict pacing forces the global recompute.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    exp::Scenario kill = small_scenario(core::Policy::LibraRisk, seed);
    kill.options.share_model.kill_at_estimate = true;
    add_traced(cases, "kernel/ablation/kill-at-estimate" + seed_tag(seed), kill);
    exp::Scenario bump = small_scenario(core::Policy::LibraRisk, seed);
    bump.options.share_model.overrun_bump_fraction = 0.5;
    add_traced(cases, "kernel/ablation/bump-0.5" + seed_tag(seed), bump);
    exp::Scenario equal = small_scenario(core::Policy::LibraRisk, seed);
    equal.options.share_model.mode = cluster::ExecutionMode::EqualShare;
    add_traced(cases, "kernel/ablation/equal-share" + seed_tag(seed), equal);
    exp::Scenario strict = small_scenario(core::Policy::Libra, seed);
    strict.options.share_model.work_conserving = false;
    add_traced(cases, "kernel/ablation/strict-pacing" + seed_tag(seed), strict);
  }
  for (const core::Policy policy : kLibraFamily)
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      exp::Scenario s = small_scenario(policy, seed);
      make_heterogeneous(s);
      add_traced(cases, "kernel/hetero/" + policy_name(policy) + seed_tag(seed),
                 s);
    }
  // Libra's Eq. 2 scan under every selection at high contention (16 nodes,
  // as admission/selection), with every per-node verdict in the trace.
  for (const core::LibraConfig::Selection selection : kSelections)
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      exp::Scenario s = small_scenario(core::Policy::Libra, seed);
      s.nodes = 16;
      s.options.selection_override = selection;
      add_traced(cases,
                 std::string("kernel/selection/Libra/") +
                     selection_name(selection) + seed_tag(seed),
                 s);
    }

  // ---- overload: DowngradeQoS, the one bend at EDF's dispatch-time test ----
  for (const core::Policy policy : {core::Policy::Edf, core::Policy::EdfBackfill})
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      exp::Scenario s = small_scenario(policy, seed);
      s.options.overload.mode = core::DegradedMode::DowngradeQoS;
      const std::string stem = "overload/" + policy_name(policy) + "/downgrade-qos/";
      cases.push_back({stem + "untraced" + seed_tag(seed), [s] {
                         const exp::ScenarioResult r = exp::run_scenario(s);
                         expect_bend_fired(r, s);
                         return result_digest(r);
                       }});
      cases.push_back({stem + "traced" + seed_tag(seed), [s] {
                         const TracedRun run = run_traced(s);
                         expect_bend_fired(run.result, s);
                         return traced_run_digest(run);
                       }});
    }
  return cases;
}

std::string data_path(const std::string& name) {
  return std::string(LIBRISK_TEST_DATA_DIR) + "/" + name;
}

/// label -> digest, from the checked-in file.
std::map<std::string, std::string> load_golden() {
  std::ifstream in(data_path("golden_decisions.txt"));
  EXPECT_TRUE(in) << "cannot open golden_decisions.txt";
  std::map<std::string, std::string> golden;
  std::string label;
  std::string digest;
  while (in >> label >> digest) {
    EXPECT_EQ(digest.size(), 16u) << label;
    EXPECT_TRUE(golden.emplace(label, digest).second) << "duplicate " << label;
  }
  return golden;
}

/// Runs every case whose label starts with `prefix` against the file.
void check_group(const std::string& prefix) {
  const std::map<std::string, std::string> golden = load_golden();
  int ran = 0;
  for (const Case& c : all_cases()) {
    if (!c.label.starts_with(prefix)) continue;
    ++ran;
    const std::string fresh = c.digest();
    const auto it = golden.find(c.label);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden line; fresh line:\n" << c.label << ' ' << fresh;
      continue;
    }
    EXPECT_EQ(it->second, fresh)
        << "decisions moved; fresh line:\n" << c.label << ' ' << fresh;
  }
  EXPECT_GT(ran, 0) << "no golden case under " << prefix;
}

TEST(GoldenDecisions, FileMatchesScenarioSet) {
  const std::map<std::string, std::string> golden = load_golden();
  std::set<std::string> labels;
  for (const Case& c : all_cases())
    EXPECT_TRUE(labels.insert(c.label).second) << "duplicate label " << c.label;
  for (const std::string& label : labels)
    EXPECT_TRUE(golden.contains(label)) << "missing golden line for " << label;
  for (const auto& entry : golden)
    EXPECT_TRUE(labels.contains(entry.first)) << "stale golden line " << entry.first;
}

// Admission: every factory policy x 10 seeds, each selection strategy at
// high contention, heterogeneous speeds, off-default risk knobs, and the
// chosen-node timelines.
TEST(AdmissionEquivalence, EveryPolicyTenSeeds) { check_group("admission/policy/"); }
TEST(AdmissionEquivalence, EverySelectionStrategy) {
  check_group("admission/selection/");
}
TEST(AdmissionEquivalence, HeterogeneousCluster) { check_group("admission/hetero/"); }
TEST(AdmissionEquivalence, RiskConfigVariants) { check_group("admission/risk/"); }
TEST(AdmissionEquivalence, ChosenNodeSequencesIdentical) {
  check_group("admission/chosen-node/");
}

// Kernel: byte-level .lrt over every policy x 10 seeds, both estimate
// regimes, the execution-model ablations and heterogeneous speeds.
TEST(KernelEquivalence, EveryPolicyTenSeedsByteIdenticalTraces) {
  check_group("kernel/policy/");
}
TEST(KernelEquivalence, BothEstimateRegimes) { check_group("kernel/inaccuracy"); }
TEST(KernelEquivalence, KillOverrunAndModeAblations) {
  check_group("kernel/ablation/");
}
TEST(KernelEquivalence, HeterogeneousCluster) { check_group("kernel/hetero/"); }
TEST(KernelEquivalence, LibraEverySelectionStrategy) {
  check_group("kernel/selection/");
}

// Overload: EDF and EDF-BF under DowngradeQoS, untraced and traced.
TEST(OverloadEquivalence, DowngradeQoSAtDispatch) { check_group("overload/"); }

// The fixtures hold two whole small traces, so a drift there is reported
// as the first divergent event rather than as a changed hash.
TEST(KernelEquivalence, TraceDiffReportsIdentical) {
  for (const core::Policy policy : kLibraFamily) {
    exp::Scenario s = small_scenario(policy, 1);
    s.workload.trace.job_count = 60;
    s.nodes = 16;
    const std::string file = "golden_" + policy_name(policy) + ".lrt";
    std::ifstream in(data_path(file), std::ios::binary);
    ASSERT_TRUE(in) << "cannot open " << file;
    std::ostringstream golden_bytes;
    golden_bytes << in.rdbuf();
    const std::string fresh_bytes = run_traced(s).lrt;
    if (fresh_bytes == golden_bytes.str()) continue;
    std::istringstream golden_in(golden_bytes.str());
    std::istringstream fresh_in(fresh_bytes);
    const trace::TraceData golden = trace::read_lrt(golden_in);
    const trace::TraceData fresh = trace::read_lrt(fresh_in);
    ADD_FAILURE() << file << " no longer reproduces (golden vs fresh):\n"
                  << trace::describe(trace::first_divergence(golden, fresh),
                                     golden, fresh);
  }
}

// The point of the incremental kernel: a settle leaves untouched residents
// alone. Work-conserving pacing never falls back to a global recompute.
TEST(KernelEquivalence, IncrementalKernelSkipsWork) {
  const exp::ScenarioResult r =
      exp::run_scenario(small_scenario(core::Policy::LibraRisk, 3));
  const cluster::KernelStats& k = r.kernel;
  EXPECT_GT(k.settles, 0u);
  EXPECT_GT(k.tasks_skipped, 0u);
  EXPECT_GT(k.tasks_recomputed, 0u);
  EXPECT_EQ(k.global_recomputes, 0u);
  EXPECT_GT(k.boundary_updates, 0u);
}

}  // namespace
}  // namespace librisk
