#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "support/json.hpp"
#include "workload/synthetic.hpp"

namespace librisk::e2e {

std::vector<workload::Job> make_jobs(std::size_t count, double arrival_delay_factor,
                                     std::uint64_t seed) {
  workload::PaperWorkloadConfig config;
  config.trace.job_count = count;
  config.trace.arrival_delay_factor = arrival_delay_factor;
  config.inaccuracy_pct = 100.0;
  return workload::make_paper_workload(config, seed);
}

int reps_for(double seconds, double rep_seconds, int min_reps) {
  return std::max(min_reps, static_cast<int>(std::lround(seconds / rep_seconds)));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const double last = static_cast<double>(values.size());
  return values[static_cast<std::size_t>(std::clamp(rank, 1.0, last)) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double min_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

void Digest::bytes(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::uint64_t decision_digest(const metrics::Collector& collector,
                              const std::vector<Placement>& placements) {
  Digest d;
  for (const auto& [id, record] : collector.records()) {
    d.add(id);
    d.add(static_cast<std::uint8_t>(record.fate));
    d.add(static_cast<std::uint8_t>(record.reject_reason));
    d.add(static_cast<std::uint8_t>(record.started));
    d.add(std::bit_cast<std::uint64_t>(record.start_time));
    d.add(std::bit_cast<std::uint64_t>(record.finish_time));
  }
  for (const Placement& p : placements) {
    d.add(p.node);
    d.add(std::bit_cast<std::uint64_t>(p.sigma));
  }
  return d.value();
}

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double SpanLog::total_ns(SpanKind kind) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.kind == kind) total += static_cast<double>(s.end_ns - s.start_ns);
  return total;
}

namespace {

struct SpanName {
  const char* name;
  const char* parent;  ///< nullptr for a root span
};

SpanName span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Advance: return {"engine.advance_to", nullptr};
    case SpanKind::Submit: return {"engine.submit", nullptr};
    case SpanKind::Decide: return {"scheduler.on_job_submitted", "engine.submit"};
    case SpanKind::GatewaySubmit: return {"gateway.submit", nullptr};
    case SpanKind::QueueWait: return {"queue.wait", nullptr};
    case SpanKind::DriveDecide: return {"gateway.decide", "queue.wait"};
  }
  return {"?", nullptr};
}

}  // namespace

void SpanLog::write_jsonl(std::ostream& os, const std::string& phase) const {
  json::LineWriter w(os);
  for (const Span& s : spans_) {
    const SpanName n = span_name(s.kind);
    w.begin().field("phase", phase).field("job", s.job).field("span", n.name);
    if (n.parent != nullptr) w.field("parent", n.parent);
    w.field("start_ns", s.start_ns).field("end_ns", s.end_ns).end();
  }
}

void TimedScheduler::on_job_submitted(const workload::Job& job) {
  const Clock::time_point start = Clock::now();
  inner_.on_job_submitted(job);
  log_.add(job.id, SpanKind::Decide, start, Clock::now());
  const Decision& d = inner_.last_decision();
  if (d.deferred)
    note_deferred(d.job_id);
  else
    note_decision(d.job_id, d.node, d.sigma, d.margin, d.degraded);
}

namespace {

/// The replay loop proper; `engine` is ready, `log` may be null.
Replay drive(core::AdmissionEngine& engine, const std::vector<workload::Job>& jobs,
             SpanLog* log) {
  Replay r;
  std::vector<Placement> placements(jobs.size());
  if (log == nullptr) r.submit_us.resize(jobs.size());

  const Clock::time_point loop_start = Clock::now();
  if (log != nullptr) log->set_origin(loop_start);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const workload::Job& job = jobs[i];
    const Clock::time_point a0 = Clock::now();
    engine.advance_to(job.submit_time);
    const Clock::time_point a1 = Clock::now();
    const core::AdmissionOutcome outcome = engine.submit(job);
    const Clock::time_point s1 = Clock::now();
    placements[i] = Placement{outcome.node, outcome.sigma};
    if (log != nullptr) {
      log->add(job.id, SpanKind::Advance, a0, a1);
      log->add(job.id, SpanKind::Submit, a1, s1);
    } else {
      r.submit_us[i] = to_us(s1 - a1);
    }
    if (i == 0) r.first_decision = s1;
  }
  const Clock::time_point f0 = Clock::now();
  engine.finish();
  const Clock::time_point f1 = Clock::now();
  const metrics::RunSummary summary = engine.summary();
  const Clock::time_point f2 = Clock::now();

  r.loop_s = to_s(f2 - loop_start);
  r.finish_ms = to_s(f1 - f0) * 1e3;
  r.summary_ms = to_s(f2 - f1) * 1e3;
  r.digest = decision_digest(engine.collector(), placements);
  r.fulfilled_pct = summary.fulfilled_pct;
  r.events = engine.events_processed();
  r.peak_live_jobs = engine.peak_live_jobs();
  return r;
}

}  // namespace

Replay replay(const std::vector<workload::Job>& jobs, core::Policy policy, int nodes,
              SpanLog* log) {
  if (log == nullptr) {
    core::EngineConfig config;
    config.cluster = cluster::Cluster::homogeneous(nodes, kRating);
    config.policy = policy;
    const std::unique_ptr<core::AdmissionEngine> engine =
        core::make_engine(std::move(config));
    Replay r = drive(*engine, jobs, nullptr);
    r.admission = engine->admission_stats();
    r.kernel = engine->kernel_stats();
    return r;
  }
  // Borrowed mode, so the TimedScheduler can sit between engine and policy.
  // Declaration order is destruction order in reverse: the engine goes
  // first, the simulator last.
  sim::Simulator simulator;
  metrics::Collector collector;
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(nodes, kRating);
  const std::unique_ptr<core::SchedulerStack> stack =
      core::make_scheduler(policy, simulator, cluster, collector);
  TimedScheduler timed(stack->scheduler(), *log);
  core::EngineConfig config;
  config.simulator = &simulator;
  config.scheduler = &timed;
  config.collector = &collector;
  const std::unique_ptr<core::AdmissionEngine> engine =
      core::make_engine(std::move(config));
  Replay r = drive(*engine, jobs, log);
  r.admission = stack->admission_stats();
  r.kernel = stack->kernel_stats();
  return r;
}

namespace {

/// x / y, 0 when y is 0 (a counter the policy never drives).
double per(std::uint64_t x, std::uint64_t y) {
  return y > 0 ? static_cast<double>(x) / static_cast<double>(y) : 0.0;
}

}  // namespace

void add_replay_layers(RunResult& result, const Replay& traced, const SpanLog& log,
                       std::size_t jobs, double untraced_loop_s) {
  const double n = static_cast<double>(jobs);
  const double advance_ns = log.total_ns(SpanKind::Advance);
  const double submit_ns = log.total_ns(SpanKind::Submit);
  const double decide_ns = log.total_ns(SpanKind::Decide);
  const Kind L = Kind::Layer;
  const auto per_job = [n](std::uint64_t count) {
    return static_cast<double>(count) / n;
  };

  result.add("core.engine.submit_self_us", (submit_ns - decide_ns) / n / 1e3, "us", L);
  result.add("core.scheduler.decide_us_per_job", decide_ns / n / 1e3, "us", L);
  result.add("core.engine.advance_us_per_job", advance_ns / n / 1e3, "us", L);
  result.add("core.engine.finish_ms", traced.finish_ms, "ms", L);
  result.add("metrics.summary_ms", traced.summary_ms, "ms", L);
  result.add("core.engine.peak_live_jobs", static_cast<double>(traced.peak_live_jobs),
             "count", L);

  const core::AdmissionStats& a = traced.admission;
  result.add("core.scan.nodes_per_job", per(a.nodes_scanned, a.submissions), "count", L);
  result.add("core.scan.assessments_per_job", per(a.assessments, a.submissions),
             "count", L);
  result.add("core.scan.batched_pct", 100.0 * per(a.batched_assessments, a.assessments),
             "%", L);
  result.add("core.scan.bound_skip_pct",
             100.0 * per(a.nodes_batch_skipped, a.nodes_scanned), "%", L);
  result.add("core.scan.empty_skip_pct",
             100.0 * per(a.empty_node_skips, a.nodes_scanned), "%", L);
  result.add("core.scan.early_exit_pct", 100.0 * per(a.early_exits, a.submissions),
             "%", L);
  result.add("core.scan.accept_pct", 100.0 * per(a.accepted, a.submissions), "%", L);

  const cluster::KernelStats& k = traced.kernel;
  result.add("cluster.settles_per_job", per_job(k.settles), "count", L);
  result.add("cluster.recomputes_per_settle", k.recomputes_per_settle(), "count", L);
  result.add("cluster.skip_pct", k.skip_pct(), "%", L);
  result.add("cluster.reanchors_per_job", per_job(k.reanchors), "count", L);
  result.add("cluster.boundary_updates_per_job", per_job(k.boundary_updates), "count", L);
  result.add("cluster.global_recomputes", static_cast<double>(k.global_recomputes),
             "count", L);
  result.add("sim.events_per_job", per_job(traced.events), "count", L);

  // The ledger: the loop's wall time against the calls it timed.
  const double loop_ns = traced.loop_s * 1e9;
  const double accounted_ns =
      advance_ns + submit_ns + (traced.finish_ms + traced.summary_ms) * 1e6;
  result.add("ledger.unaccounted_pct", 100.0 * (loop_ns - accounted_ns) / loop_ns, "%",
             L);
  result.add("ledger.trace_overhead_pct", 100.0 * (traced.loop_s / untraced_loop_s - 1.0),
             "%", L);
}

void add_gate_layer(RunResult& result, const std::vector<workload::Job>& jobs,
                    core::Policy policy, int nodes) {
  core::GatewayConfig config;
  config.engine.cluster = cluster::Cluster::homogeneous(nodes, kRating);
  config.engine.policy = policy;
  core::AdmissionGateway gateway(std::move(config));
  // Best of a few passes: the classifier is a few nanoseconds per job.
  double best_ns = 0.0;
  std::size_t shed = 0;
  for (int pass = 0; pass < 5; ++pass) {
    shed = 0;
    const Clock::time_point start = Clock::now();
    for (const workload::Job& job : jobs)
      if (gateway.fast_reject_reason(job).has_value()) ++shed;
    const double ns = to_s(Clock::now() - start) * 1e9;
    best_ns = pass == 0 ? ns : std::min(best_ns, ns);
  }
  gateway.close();
  const double n = static_cast<double>(jobs.size());
  result.add("core.gate.classify_ns", best_ns / n, "ns", Kind::Layer);
  result.add("core.gate.shed_pct", 100.0 * static_cast<double>(shed) / n, "%",
             Kind::Layer);
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace librisk::e2e
