// Live telemetry subsystem: histogram accuracy against an exact-sort
// oracle on adversarial distributions, merge associativity, registry and
// series units, metronome semantics, and the two end-to-end guarantees:
// (1) the terminal "admission" series row equals AdmissionStats exactly,
// and (2) attaching telemetry leaves the decision-audit trace byte-identical
// — sampling observes the simulation without perturbing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "exp/scenario.hpp"
#include "obs/flight.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/render.hpp"
#include "obs/series.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace librisk {
namespace {

// ---------------------------------------------------------------------------
// Histogram: quantiles vs an exact-sort oracle.

/// The exact quantile under the histogram's own rank convention:
/// rank = max(1, ceil(q/100 * n)), value = the rank-th smallest.
double exact_quantile(std::vector<double> sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q / 100.0 * n)));
  return sorted[rank - 1];
}

/// Records `values` and asserts every tested quantile lands within the
/// histogram's advertised relative-error bound (doubled for slack against
/// representative-vs-edge conventions) of the exact-sort answer. Values
/// below min_value legitimately read back as 0.
void expect_quantiles_match(const std::vector<double>& values,
                            obs::HistogramConfig config = {}) {
  obs::Histogram h(config);
  for (const double v : values) h.record(v);

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double tol = 2.0 * h.max_relative_error();
  for (const double q : {0.5, 1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const double exact = exact_quantile(sorted, q);
    const double approx = h.quantile(q);
    if (exact < config.min_value) {
      EXPECT_EQ(approx, 0.0) << "q=" << q;
      continue;
    }
    const double clamped = std::min(exact, config.max_value);
    EXPECT_LE(std::abs(approx - clamped), tol * clamped)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(Histogram, QuantilesMatchExactSortUniform) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.001, 1000.0);
  std::vector<double> values(20000);
  for (double& v : values) v = dist(rng);
  expect_quantiles_match(values);
}

TEST(Histogram, QuantilesMatchExactSortHeavyTail) {
  // Log-uniform over 12 decades: every octave populated, the worst case for
  // a linear-bucket histogram and the natural case for a log-linear one.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> exponent(-6.0, 6.0);
  std::vector<double> values(20000);
  for (double& v : values) v = std::pow(10.0, exponent(rng));
  expect_quantiles_match(values);
}

TEST(Histogram, QuantilesMatchExactSortPointMasses) {
  // Adversarial: three point masses, one straddling a bucket edge region,
  // plus exact powers of two (octave boundaries).
  std::vector<double> values;
  values.insert(values.end(), 5000, 1.0);
  values.insert(values.end(), 3000, 2.0);
  values.insert(values.end(), 2000, 1e6);
  for (int k = -10; k <= 10; ++k)
    values.insert(values.end(), 10, std::ldexp(1.0, k));
  std::mt19937_64 rng(3);
  std::shuffle(values.begin(), values.end(), rng);
  expect_quantiles_match(values);
}

TEST(Histogram, QuantilesMatchExactSortWithUnderflowMass) {
  // Zeros, denormals and sub-min values pile into the underflow bucket;
  // quantiles that land there report 0.0 by contract, the rest stay within
  // the bound.
  std::vector<double> values;
  values.insert(values.end(), 4000, 0.0);
  values.insert(values.end(), 1000, std::numeric_limits<double>::denorm_min());
  values.insert(values.end(), 1000, 1e-12);
  values.insert(values.end(), 4000, 10.0);
  expect_quantiles_match(values);
}

TEST(Histogram, DomainEdges) {
  obs::Histogram h;
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  h.record(-5.0);
  h.record(1e20);  // above max_value: clamped into the top bucket
  h.record(42.0);

  EXPECT_EQ(h.nan_count(), 1u);
  EXPECT_EQ(h.underflow_count(), 1u);  // the negative value
  EXPECT_EQ(h.count(), 4u);            // everything except the NaN
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_EQ(h.max(), std::numeric_limits<double>::infinity());
  // The top-clamped values dominate the upper quantiles but stay finite:
  // the top bucket's edge is the power-of-two octave boundary at or above
  // max_value, so the representative is < 2 * max_value.
  EXPECT_LE(h.quantile(100.0), 2.0 * h.config().max_value);
  EXPECT_GE(h.quantile(100.0), h.config().max_value * 0.5);
}

TEST(Histogram, EmptyIsWellDefined) {
  const obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(50.0), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(Histogram, MergeIsAssociativeAndExact) {
  auto fill = [](obs::Histogram& h, std::uint64_t seed, int n) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> exponent(-3.0, 9.0);
    for (int i = 0; i < n; ++i) h.record(std::pow(10.0, exponent(rng)));
  };
  obs::Histogram a, b, c;
  fill(a, 1, 5000);
  fill(b, 2, 3000);
  fill(c, 3, 2000);

  // (a + b) + c
  obs::Histogram left;
  left.merge(a);
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  obs::Histogram bc;
  bc.merge(b);
  bc.merge(c);
  obs::Histogram right;
  right.merge(a);
  right.merge(bc);

  ASSERT_EQ(left.bucket_count(), right.bucket_count());
  for (std::size_t i = 0; i < left.bucket_count(); ++i)
    ASSERT_EQ(left.bucket_value(i), right.bucket_value(i)) << "bucket " << i;
  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.count(), 10000u);
  EXPECT_EQ(left.min(), right.min());
  EXPECT_EQ(left.max(), right.max());
  for (const double q : {1.0, 50.0, 99.0})
    EXPECT_EQ(left.quantile(q), right.quantile(q)) << "q=" << q;

  // The merged histogram equals recording everything into one directly.
  obs::Histogram direct;
  fill(direct, 1, 5000);
  fill(direct, 2, 3000);
  fill(direct, 3, 2000);
  for (std::size_t i = 0; i < direct.bucket_count(); ++i)
    ASSERT_EQ(left.bucket_value(i), direct.bucket_value(i)) << "bucket " << i;
}

TEST(Histogram, MergeRejectsMismatchedConfig) {
  obs::Histogram a;
  obs::Histogram b(obs::HistogramConfig{.min_value = 1.0});
  EXPECT_THROW(a.merge(b), CheckError);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(Registry, PushAndPullMetricsReadLive) {
  obs::Registry reg;
  obs::Counter& hits = reg.counter("hits", "hit count");
  obs::Gauge& depth = reg.gauge("depth", "queue depth");
  obs::Histogram& lat = reg.histogram("latency", "seconds");
  std::uint64_t external = 0;
  reg.counter_fn("pulled", "external counter", [&] { return external; });

  hits.inc();
  hits.inc(4);
  depth.set(2.5);
  lat.record(1.0);
  external = 17;

  EXPECT_EQ(reg.size(), 4u);
  EXPECT_TRUE(reg.contains("hits"));
  EXPECT_FALSE(reg.contains("misses"));
  EXPECT_EQ(reg.reading("hits").value, 5.0);
  EXPECT_EQ(reg.reading("depth").value, 2.5);
  EXPECT_EQ(reg.reading("pulled").value, 17.0);  // read at call time, not registration
  ASSERT_NE(reg.reading("latency").histogram, nullptr);
  EXPECT_EQ(reg.reading("latency").histogram->count(), 1u);

  // visit() preserves registration order.
  std::vector<std::string> names;
  reg.visit([&](const obs::Registry::Reading& r) { names.emplace_back(r.name); });
  EXPECT_EQ(names, (std::vector<std::string>{"hits", "depth", "latency", "pulled"}));
}

TEST(Registry, RejectsDuplicateAndUnknownNames) {
  obs::Registry reg;
  reg.counter("x", "first");
  EXPECT_THROW(reg.gauge("x", "dup across kinds"), CheckError);
  EXPECT_THROW((void)reg.reading("absent"), CheckError);
}

TEST(Registry, OpenMetricsExportIsWellFormed) {
  obs::Registry reg;
  reg.counter("requests", "total requests").inc(3);
  reg.gauge("load", "current load").set(0.5);
  reg.histogram("size", "bytes").record(100.0);

  std::ostringstream os;
  obs::write_openmetrics(os, reg);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE requests counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("load 0.5"), std::string::npos);
  EXPECT_NE(text.find("size_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("size_count 1"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(Registry, NamePrefixAppliesToEveryMetric) {
  obs::Registry reg("cluster3_");
  reg.counter("hits", "hit count").inc(2);
  reg.gauge_fn("load", "current load", [] { return 0.25; });
  EXPECT_EQ(reg.name_prefix(), "cluster3_");
  EXPECT_TRUE(reg.contains("cluster3_hits"));
  EXPECT_FALSE(reg.contains("hits"));  // lookups use the full stored name
  EXPECT_EQ(reg.reading("cluster3_hits").value, 2.0);
  EXPECT_EQ(reg.reading("cluster3_load").value, 0.25);
}

TEST(Registry, MergedExportRejectsCollidingNames) {
  // Two unprefixed registries registering the same name: concatenating their
  // exports used to silently shadow one reading with the other. The merged
  // renderers refuse instead.
  obs::Registry a;
  obs::Registry b;
  a.counter("hits", "from a").inc(1);
  b.counter("hits", "from b").inc(2);
  EXPECT_THROW((void)obs::metrics_table({&a, &b}), CheckError);
  std::ostringstream os;
  EXPECT_THROW(obs::write_openmetrics(os, {&a, &b}), CheckError);
}

TEST(Registry, PrefixedRegistriesMergeCollisionFree) {
  obs::Registry a("c0_");
  obs::Registry b("c1_");
  a.counter("hits", "hit count").inc(1);
  b.counter("hits", "hit count").inc(2);
  std::ostringstream os;
  obs::write_openmetrics(os, {&a, &b});
  const std::string text = os.str();
  EXPECT_NE(text.find("c0_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("c1_hits_total 2"), std::string::npos);
  EXPECT_EQ(obs::metrics_table({&a, &b}).rows(), 2u);
}

TEST(Telemetry, ConfigPrefixFlowsIntoRegistry) {
  obs::TelemetryConfig config;
  config.metric_prefix = "c7_";
  obs::Telemetry hub(config);
  hub.registry().counter("jobs", "jobs seen").inc(1);
  EXPECT_EQ(hub.registry().name_prefix(), "c7_");
  EXPECT_TRUE(hub.registry().contains("c7_jobs"));
}

// ---------------------------------------------------------------------------
// Series.

TEST(Series, AppendReadExport) {
  obs::Series s("demo", {"time", "value"});
  s.append({1.0, 10.0});
  s.append({2.0, 20.0});

  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.at(1, 1), 20.0);
  EXPECT_EQ(s.column_index("value"), 1u);
  EXPECT_THROW((void)s.column_index("nope"), CheckError);
  const std::span<const double> col = s.column(0);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col[1], 2.0);

  std::ostringstream csv;
  s.write_csv(csv);
  EXPECT_EQ(csv.str(), "time,value\n1,10\n2,20\n");
  std::ostringstream jsonl;
  s.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"time\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Profiler.

TEST(Profiler, ReportAggregatesAndRenders) {
  obs::PhaseProfiler p;
  p.add(obs::Phase::Run, 3'000'000'000);
  p.add(obs::Phase::Settle, 1'000'000'000);
  p.add(obs::Phase::Settle, 500'000'000);

  const obs::ProfileReport r = p.report();
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.calls(obs::Phase::Settle), 2u);
  EXPECT_DOUBLE_EQ(r.seconds(obs::Phase::Settle), 1.5);
  const std::string text = r.str();
  // Self time for run subtracts the child (settle) total: 3.0 - 1.5.
  EXPECT_NE(text.find("1.5000"), std::string::npos);
  EXPECT_NE(text.find("settle"), std::string::npos);

  EXPECT_TRUE(obs::ProfileReport{}.empty());
}

TEST(Profiler, ScopedPhaseIsNullSafe) {
  {
    obs::ScopedPhase scope(nullptr, obs::Phase::Admission);
  }
  obs::PhaseProfiler p;
  {
    obs::ScopedPhase scope(&p, obs::Phase::Admission);
  }
  EXPECT_EQ(p.report().calls(obs::Phase::Admission), 1u);
}

// ---------------------------------------------------------------------------
// Metronome.

TEST(Metronome, TicksAtNominalTimesBeforeEvents) {
  sim::Simulator s;
  std::vector<double> ticks;
  std::vector<double> event_times;
  for (const double t : {10.0, 25.0, 30.0, 100.0})
    s.at(t, sim::EventPriority::Arrival, [&, t] { event_times.push_back(t); });
  s.set_metronome(10.0, [&](sim::SimTime t) {
    EXPECT_EQ(s.now(), t);  // the clock stands at the tick while sampling
    ticks.push_back(t);
    // Every tick fires before the first event at-or-after it.
    for (const double e : event_times) EXPECT_LE(e, t);
  });
  const std::uint64_t processed = s.run();

  // Nominal times k * period up to the last event; a tick coinciding with
  // an event (t=10, 30, 100) fires before that event dispatches.
  EXPECT_EQ(ticks, (std::vector<double>{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}));
  EXPECT_EQ(s.metronome_ticks(), 10u);
  EXPECT_EQ(event_times, (std::vector<double>{10, 25, 30, 100}));
  // Ticks consume no events and never outlive the queue: the clock stops at
  // the last real event, not at some later tick.
  EXPECT_EQ(processed, 4u);
  EXPECT_EQ(s.now(), 100.0);
}

TEST(Metronome, FirstTickIsStrictlyAfterInstallTime) {
  sim::Simulator s;
  s.at(5.0, sim::EventPriority::Arrival, [] {});
  s.run_until(5.0);
  ASSERT_EQ(s.now(), 5.0);

  std::vector<double> ticks;
  s.set_metronome(5.0, [&](sim::SimTime t) { ticks.push_back(t); });
  s.at(20.0, sim::EventPriority::Arrival, [] {});
  s.run();
  // No tick at t=5 (the install time); k * period for k where tick > 5.
  EXPECT_EQ(ticks, (std::vector<double>{10, 15, 20}));
}

TEST(Metronome, RejectsBadArgumentsAndClears) {
  sim::Simulator s;
  EXPECT_THROW(s.set_metronome(0.0, [](sim::SimTime) {}), CheckError);
  EXPECT_THROW(s.set_metronome(1.0, nullptr), CheckError);
  s.set_metronome(1.0, [](sim::SimTime) { FAIL() << "cleared metronome fired"; });
  s.clear_metronome();
  s.at(3.0, sim::EventPriority::Arrival, [] {});
  s.run();
  EXPECT_EQ(s.metronome_ticks(), 0u);
}

// ---------------------------------------------------------------------------
// Telemetry end-to-end.

exp::Scenario small_scenario(core::Policy policy, std::uint64_t seed) {
  exp::Scenario s;
  s.workload.trace.job_count = 200;
  s.nodes = 32;
  s.policy = policy;
  s.seed = seed;
  return s;
}

TEST(Telemetry, TerminalAdmissionRowMatchesAdmissionStats) {
  obs::Telemetry telemetry(obs::TelemetryConfig{.sample_period = 600.0});
  exp::Scenario s = small_scenario(core::Policy::LibraRisk, 11);
  s.options.hooks.telemetry = &telemetry;
  const exp::ScenarioResult r = exp::run_scenario(s);

  const obs::Series* adm = telemetry.find_series("admission");
  ASSERT_NE(adm, nullptr);
  ASSERT_GT(adm->rows(), 2u);  // periodic ticks plus the terminal sample
  const std::size_t last = adm->rows() - 1;
  const auto col = [&](const char* name) {
    return adm->at(last, adm->column_index(name));
  };
  // The acceptance criterion: terminal cumulative counts equal the
  // authoritative AdmissionStats exactly, not approximately.
  EXPECT_EQ(col("submissions"), static_cast<double>(r.admission.submissions));
  EXPECT_EQ(col("accepted"), static_cast<double>(r.admission.accepted));
  EXPECT_EQ(col("rejections"), static_cast<double>(r.admission.rejections));
  EXPECT_EQ(col("rejected_risk_sigma"),
            static_cast<double>(r.admission.rejected_risk_sigma));

  // Pull metrics read the same source.
  EXPECT_EQ(telemetry.registry().reading("admission_accepted").value,
            static_cast<double>(r.admission.accepted));
  EXPECT_EQ(telemetry.registry().reading("kernel_settles").value,
            static_cast<double>(r.kernel.settles));

  // Scan histogram: one recording per submission that reached the node
  // scan (jobs needing more nodes than the cluster are rejected before it);
  // totals match the counter exactly.
  const obs::Registry::Reading scans =
      telemetry.registry().reading("admission_scan_nodes");
  ASSERT_NE(scans.histogram, nullptr);
  EXPECT_EQ(scans.histogram->count(),
            r.admission.submissions - r.admission.rejected_no_suitable_node);
  EXPECT_DOUBLE_EQ(scans.histogram->sum(),
                   static_cast<double>(r.admission.nodes_scanned));

  // The per-node series holds nodes * samples rows.
  const obs::Series* nodes = telemetry.find_series("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->rows(), 32u * telemetry.samples());

  // The profile made it into the result and saw the run: one Run phase per
  // eager submission plus the final drain.
  EXPECT_FALSE(r.profile.empty());
  EXPECT_EQ(r.profile.calls(obs::Phase::Run), r.admission.submissions + 1);
  EXPECT_EQ(r.profile.calls(obs::Phase::Admission), r.admission.submissions);
}

TEST(Telemetry, TraceStaysByteIdenticalWithTelemetryAttached) {
  const auto record_lrt = [](obs::Telemetry* telemetry) {
    exp::Scenario s = small_scenario(core::Policy::LibraRisk, 11);
    std::ostringstream os;
    trace::BinarySink sink(os, {"LibraRisk", 11});
    trace::Recorder recorder(sink);
    s.options.hooks.trace = &recorder;
    s.options.hooks.telemetry = telemetry;
    (void)exp::run_scenario(s);
    sink.close();
    return os.str();
  };

  const std::string plain = record_lrt(nullptr);
  obs::Telemetry sampling(obs::TelemetryConfig{.sample_period = 300.0});
  const std::string sampled = record_lrt(&sampling);
  obs::Telemetry passive;  // no metronome: registry + profiler only
  const std::string passive_lrt = record_lrt(&passive);

  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, sampled);      // sampling perturbs nothing
  EXPECT_EQ(plain, passive_lrt);  // and neither does a passive hub
  EXPECT_GT(sampling.samples(), 10u);
}

TEST(Telemetry, WriteDirEmitsAllArtifacts) {
  obs::Telemetry telemetry(obs::TelemetryConfig{.sample_period = 600.0});
  exp::Scenario s = small_scenario(core::Policy::Libra, 4);
  s.options.hooks.telemetry = &telemetry;
  (void)exp::run_scenario(s);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "librisk_test_obs_dir";
  telemetry.write_dir(dir);
  for (const char* name : {"admission.csv", "admission.jsonl", "nodes.csv",
                           "kernel.csv", "metrics.txt", "profile.txt"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / name)) << name;
    EXPECT_GT(std::filesystem::file_size(dir / name), 0u) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(Telemetry, FinishSkipsDuplicateTerminalSample) {
  obs::Telemetry telemetry;
  int calls = 0;
  telemetry.add_sampler([&](sim::SimTime) { ++calls; });
  telemetry.finish(100.0);
  telemetry.finish(100.0);  // same end time: no duplicate row
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(telemetry.samples(), 1u);
  telemetry.finish(200.0);
  EXPECT_EQ(calls, 2);
}

TEST(Telemetry, SealFreezesPullMetricsBeyondComponentLifetime) {
  obs::Telemetry telemetry;
  {
    std::uint64_t live = 7;
    telemetry.registry().counter_fn("short_lived", "dies with this scope",
                                    [&live] { return live; });
    telemetry.add_sampler([&live](sim::SimTime) { ++live; });
    live = 42;
    telemetry.seal();  // what run_trace does at end-of-run
  }
  // The closure's captures are gone; the sealed value must not need them.
  EXPECT_EQ(telemetry.registry().reading("short_lived").value, 42.0);
  const std::uint64_t samples_before = telemetry.samples();
  telemetry.finish(123.0);  // samplers were dropped: no dead-closure call
  EXPECT_EQ(telemetry.samples(), samples_before);
}

TEST(Telemetry, ArmTwiceIsAnError) {
  obs::Telemetry telemetry;
  sim::Simulator s;
  telemetry.arm(s);
  EXPECT_THROW(telemetry.arm(s), CheckError);
  EXPECT_TRUE(telemetry.registry().contains("event_queue_depth"));
}

// ---------------------------------------------------------------------------
// Flight recorder: fixed decision ring + wall-clock latency histograms.

obs::FlightEntry flight_entry(std::int64_t id) {
  obs::FlightEntry e;
  e.job_id = id;
  e.verdict = obs::FlightVerdict::Accepted;
  e.sim_time = static_cast<double>(id);
  e.queue_wait = 1e-6 * static_cast<double>(id + 1);
  e.decide_latency = 1e-6;
  return e;
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestOldestFirst) {
  obs::FlightRecorder rec(obs::FlightConfig{.capacity = 4});
  EXPECT_TRUE(rec.snapshot().empty());

  // Below capacity: insertion order, no wrap.
  for (std::int64_t id = 1; id <= 3; ++id) rec.record(flight_entry(id));
  std::vector<obs::FlightEntry> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.front().job_id, 1);
  EXPECT_EQ(snap.back().job_id, 3);

  // Past capacity: the ring holds exactly the last 4, oldest first.
  for (std::int64_t id = 4; id <= 11; ++id) rec.record(flight_entry(id));
  snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(snap[i].job_id, 8 + static_cast<std::int64_t>(i));
  EXPECT_EQ(rec.recorded(), 11u);

  // The histograms saw every record, not just the retained ones.
  EXPECT_EQ(rec.queue_wait_histogram().count(), 11u);
  EXPECT_EQ(rec.decide_histogram().count(), 11u);

  rec.clear();
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.queue_wait_histogram().count(), 0u);
}

TEST(FlightRecorder, CapacityZeroDisablesRecording) {
  obs::FlightRecorder rec(obs::FlightConfig{.capacity = 0});
  for (std::int64_t id = 1; id <= 5; ++id) rec.record(flight_entry(id));
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.queue_wait_histogram().count(), 0u);
  EXPECT_EQ(rec.decide_histogram().count(), 0u);
}

TEST(FlightRecorder, VerdictStringsAndEntryDefaults) {
  EXPECT_EQ(trace::to_string(obs::FlightVerdict::Accepted), "accepted");
  EXPECT_EQ(trace::to_string(obs::FlightVerdict::Queued), "queued");
  EXPECT_EQ(trace::to_string(obs::FlightVerdict::Rejected), "rejected");
  EXPECT_EQ(trace::to_string(obs::FlightVerdict::Shed), "shed");
  const obs::FlightEntry e;
  EXPECT_EQ(e.node, -1);
  EXPECT_EQ(e.sigma, -1.0);
}

}  // namespace
}  // namespace librisk
