// The gateway-open workload (bench/e2e/README.md): the paper workload
// through core::AdmissionGateway in its default configuration (audit_shed
// on, queue 1024), Libra on 128 nodes. One repetition runs four phases on
// the same generated jobs, each through a fresh gateway:
//
//   open-10k   open loop, 10 000 jobs/s for 0.5 s (jobs [0, 5k))
//   open-30k   open loop, 30 000 jobs/s for 0.5 s (jobs [0, 15k))
//   saturate   closed loop, jobs [0, 30k) as fast as submit() returns
//   baseline   the same 30k jobs through a bare engine, one thread
//
// This thread is the generator; the gateway's drive thread is the second.
// An open-loop job is timed from when it was due: its verdict latency is
// (call - due) + the flight entry's queue_wait + decide_latency, the
// flight ring being sized to hold every decision of the phase.
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "workloads.hpp"

namespace librisk::e2e {
namespace {

constexpr core::Policy kPolicy = core::Policy::Libra;
constexpr int kNodes = 128;
constexpr double kLowRate = 10'000.0;
constexpr double kHighRate = 30'000.0;
constexpr double kPhaseSeconds = 0.5;
constexpr std::size_t kSaturationJobs = 30'000;
/// Nominal repetition time on the reference host (see reps_for).
constexpr double kRepSeconds = 1.9;

struct Phase {
  double wall_s = 0.0;                 ///< first submit .. close() returned
  Clock::time_point first_return{};    ///< when submit() of job 0 returned
  std::vector<double> late_us;         ///< every job: call - due
  // Gate-passing jobs, in decision order:
  std::vector<double> verdict_us;      ///< due .. decided
  std::vector<double> submit_call_us;  ///< producer side
  std::vector<double> queue_wait_us;
  std::vector<double> decide_us;       ///< drive side
  std::uint64_t closed = 0;            ///< submits refused as Closed
  core::GatewayStats stats;
  std::uint64_t digest = 0;
  double fulfilled_pct = 0.0;
};

/// Submits jobs[0, count) to a fresh gateway. rate > 0 is an open loop (job
/// i due at t0 + i / rate, busy-waiting for it); rate == 0 a closed loop.
Phase run_phase(const std::vector<workload::Job>& jobs, std::size_t count, double rate,
                SpanLog* log) {
  core::GatewayConfig config;
  config.engine.cluster = cluster::Cluster::homogeneous(kNodes, kRating);
  config.engine.policy = kPolicy;
  config.flight_capacity = count;
  core::AdmissionGateway gateway(std::move(config));

  Phase p;
  std::vector<Clock::time_point> due(count), call(count), back(count);
  const double period_ns = rate > 0.0 ? 1e9 / rate : 0.0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const Clock::time_point scheduled =
        t0 + std::chrono::nanoseconds(
                 static_cast<std::int64_t>(static_cast<double>(i) * period_ns));
    if (rate > 0.0)
      while (Clock::now() < scheduled) {
      }
    call[i] = Clock::now();
    due[i] = rate > 0.0 ? scheduled : call[i];
    if (gateway.submit(jobs[i]) == core::SubmitStatus::Closed) ++p.closed;
    back[i] = Clock::now();
  }
  p.first_return = back[0];
  gateway.close();
  p.wall_s = to_s(Clock::now() - t0);
  p.stats = gateway.stats();

  const std::vector<obs::FlightEntry> entries = gateway.flight().snapshot();
  if (entries.size() != count)
    throw std::runtime_error("flight ring holds " + std::to_string(entries.size()) +
                             " of " + std::to_string(count) + " decisions");
  std::vector<Placement> placements(count);
  if (log != nullptr) log->set_origin(t0);
  for (const obs::FlightEntry& e : entries) {
    const std::size_t i = static_cast<std::size_t>(e.job_id - 1);
    if (e.job_id < 1 || i >= count || jobs[i].id != e.job_id)
      throw std::runtime_error("flight entry for unexpected job " +
                               std::to_string(e.job_id));
    placements[i] = Placement{e.node, e.sigma};
    if (e.verdict == obs::FlightVerdict::Shed) continue;
    p.verdict_us.push_back(to_us(call[i] - due[i]) +
                           (e.queue_wait + e.decide_latency) * 1e6);
    p.submit_call_us.push_back(to_us(back[i] - call[i]));
    p.queue_wait_us.push_back(e.queue_wait * 1e6);
    p.decide_us.push_back(e.decide_latency * 1e6);
    if (log != nullptr) {
      // The queue-wait span is anchored at the producer's call: the
      // gateway stamps enqueue time inside submit(), which the flight
      // entry does not expose.
      const auto wait = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(e.queue_wait));
      const auto decide = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(e.decide_latency));
      log->add(e.job_id, SpanKind::GatewaySubmit, call[i], back[i]);
      log->add(e.job_id, SpanKind::QueueWait, call[i], call[i] + wait);
      log->add(e.job_id, SpanKind::DriveDecide, call[i] + wait, call[i] + wait + decide);
    }
  }
  p.late_us.reserve(count);
  for (std::size_t i = 0; i < count; ++i) p.late_us.push_back(to_us(call[i] - due[i]));
  p.digest = decision_digest(gateway.engine().collector(), placements);
  p.fulfilled_pct = gateway.engine().summary().fulfilled_pct;
  return p;
}

/// Failures a phase contributes: refused submits and audit violations.
void check_phase(RunResult& result, const Phase& p, const char* name) {
  if (p.closed > 0)
    result.fail(p.closed, std::string(name) + ": " + std::to_string(p.closed) +
                              " submits refused as Closed");
  if (p.stats.audit_violations > 0)
    result.fail(p.stats.audit_violations,
                std::string(name) + ": " + std::to_string(p.stats.audit_violations) +
                    " gateway audit violations");
}

/// The gateway hop of one open-loop phase, as detail metrics.
void add_hop_details(RunResult& result, const Phase& p, const std::string& suffix,
                     double baseline_p50_us) {
  const auto add = [&](const char* name, double value, const char* unit) {
    result.add(name + suffix, value, unit, Kind::Detail);
  };
  add("core.gateway.submit_call_us_p50", percentile(p.submit_call_us, 50.0), "us");
  add("support.queue.wait_us_p50", percentile(p.queue_wait_us, 50.0), "us");
  add("support.queue.wait_us_p99", percentile(p.queue_wait_us, 99.0), "us");
  add("support.queue.high_water", static_cast<double>(p.stats.queue_high_water), "count");
  add("core.gateway.decide_us_p50", percentile(p.decide_us, 50.0), "us");
  add("core.gateway.hop_overhead_us", percentile(p.verdict_us, 50.0) - baseline_p50_us,
      "us");
  add("gen.late_p99_us", percentile(p.late_us, 99.0), "us");
  add("gen.late_max_us", max_of(p.late_us), "us");
}

}  // namespace

RunResult run_gateway_open(const Options& opts) {
  const std::size_t scale = opts.smoke ? 10 : 1;
  const std::size_t n_low = static_cast<std::size_t>(kLowRate * kPhaseSeconds) / scale;
  const std::size_t n_high = static_cast<std::size_t>(kHighRate * kPhaseSeconds) / scale;
  const std::size_t n_sat = kSaturationJobs / scale;

  const int reps = opts.smoke ? 1 : reps_for(opts.seconds, kRepSeconds, kMinReps);
  RunResult result;
  std::vector<double> setup_s, gen_s, sustained, low_p50, high_p50, base_p50, base_loop_s;
  std::vector<double> low_verdicts, high_verdicts;  // pooled, for the tails
  std::vector<workload::Job> jobs;
  std::uint64_t low_digest = 0, high_digest = 0, base_digest = 0;
  double rss_mib = 0.0;

  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    jobs = make_jobs(n_sat, 1.0, opts.seed);
    const Clock::time_point generated = Clock::now();
    const Phase low = run_phase(jobs, n_low, kLowRate, nullptr);
    const Phase high = run_phase(jobs, n_high, kHighRate, nullptr);
    const Phase sat = run_phase(jobs, n_sat, 0.0, nullptr);
    const Replay base = replay(jobs, kPolicy, kNodes, nullptr);
    result.attempted += n_low + n_high + 2 * n_sat;
    ++result.reps;

    check_phase(result, low, "open-10k");
    check_phase(result, high, "open-30k");
    check_phase(result, sat, "saturate");
    if (sat.digest != base.digest)
      result.fail(n_sat, "saturate digest " + hex(sat.digest) +
                             " differs from the bare-engine replay " + hex(base.digest));
    Digest d;
    d.add(low.digest);
    d.add(high.digest);
    d.add(sat.digest);
    if (rep == 0) {
      // Read before later repetitions add pooled samples to the heap.
      rss_mib = peak_rss_mib();
      result.digest = d.value();
      result.fulfilled_pct = sat.fulfilled_pct;
      low_digest = low.digest;
      high_digest = high.digest;
      base_digest = base.digest;
    } else if (d.value() != result.digest) {
      result.fail(n_low + n_high + n_sat,
                  "repetition " + std::to_string(rep) + " digest " + hex(d.value()) +
                      " differs from " + hex(result.digest));
    }

    setup_s.push_back(to_s(low.first_return - start));
    gen_s.push_back(to_s(generated - start));
    sustained.push_back(static_cast<double>(n_sat) / sat.wall_s);
    low_p50.push_back(percentile(low.verdict_us, 50.0));
    high_p50.push_back(percentile(high.verdict_us, 50.0));
    base_p50.push_back(percentile(base.submit_us, 50.0));
    base_loop_s.push_back(base.loop_s);
    const auto pool = [](std::vector<double>& into, const std::vector<double>& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    pool(low_verdicts, low.verdict_us);
    pool(high_verdicts, high.verdict_us);
  }

  // Best repetition: the one least disturbed by the rest of the host.
  result.add("setup_s", median(setup_s), "s", Kind::EndToEnd);
  result.add("jobs_per_s", max_of(sustained), "1/s", Kind::EndToEnd);
  result.add("verdict_p50_us", min_of(low_p50), "us", Kind::EndToEnd);
  result.add("peak_rss_mib", rss_mib, "MiB", Kind::EndToEnd);
  result.add("jobs_per_s_median", median(sustained), "1/s", Kind::Detail);
  result.add("verdict_p99_us", percentile(low_verdicts, 99.0), "us", Kind::Detail);
  result.add("verdict_p999_us", percentile(low_verdicts, 99.9), "us", Kind::Detail);
  result.add("verdict_samples", static_cast<double>(low_verdicts.size()), "count",
             Kind::Detail);
  result.add("verdict_p50_us_30k", min_of(high_p50), "us", Kind::Detail);
  result.add("verdict_p99_us_30k", percentile(high_verdicts, 99.0), "us", Kind::Detail);
  result.add("verdict_p999_us_30k", percentile(high_verdicts, 99.9), "us", Kind::Detail);
  result.add("verdict_samples_30k", static_cast<double>(high_verdicts.size()), "count",
             Kind::Detail);
  const double baseline_p50_us = min_of(base_p50);
  result.add("core.gateway.baseline_submit_p50_us", baseline_p50_us, "us", Kind::Detail);

  if (opts.trace) {
    // Layers of the engine path come from a traced bare-engine replay of
    // the saturation jobs; the gateway hop from traced open-loop phases.
    SpanLog base_log(3 * n_sat);
    const Replay traced = replay(jobs, kPolicy, kNodes, &base_log);
    SpanLog low_log(3 * n_low);
    const Phase low = run_phase(jobs, n_low, kLowRate, &low_log);
    SpanLog high_log(3 * n_high);
    const Phase high = run_phase(jobs, n_high, kHighRate, &high_log);
    result.attempted += n_sat + n_low + n_high;
    check_phase(result, low, "traced open-10k");
    check_phase(result, high, "traced open-30k");
    const auto same = [&result](std::uint64_t traced_digest, std::uint64_t untraced,
                                std::size_t jobs_in, const char* what) {
      if (traced_digest != untraced)
        result.fail(jobs_in, std::string("traced ") + what + " digest " +
                                 hex(traced_digest) + " differs from untraced " +
                                 hex(untraced));
    };
    same(traced.digest, base_digest, n_sat, "baseline");
    same(low.digest, low_digest, n_low, "open-10k");
    same(high.digest, high_digest, n_high, "open-30k");
    result.add("workload.gen_s", median(gen_s), "s", Kind::Layer);
    add_replay_layers(result, traced, base_log, n_sat, min_of(base_loop_s));
    add_gate_layer(result, jobs, kPolicy, kNodes);
    add_hop_details(result, low, "", baseline_p50_us);
    add_hop_details(result, high, "_30k", baseline_p50_us);
    std::ofstream os(opts.out_dir + "/" + opts.workload + ".spans.jsonl");
    base_log.write_jsonl(os, "baseline");
    low_log.write_jsonl(os, "open-10k");
    high_log.write_jsonl(os, "open-30k");
  }
  return result;
}

}  // namespace librisk::e2e
