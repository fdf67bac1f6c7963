// The three closed-loop streaming-replay workloads (bench/e2e/README.md):
//
//   paper-128        LibraRisk, 128 nodes, 60k jobs per repetition
//   libra-1024       Libra (BestFit, scalar Eq. 2), 1024 nodes, 25k jobs
//   risk-heavy-1024  LibraRisk, 1024 nodes, arrival delay factor 0.1, 15k jobs
//
// One repetition generates the workload, builds an engine and replays every
// job with advance_to + submit, then finish() and summary().
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "workloads.hpp"

namespace librisk::e2e {
namespace {

struct ReplaySpec {
  const char* name;
  core::Policy policy;
  int nodes;
  std::size_t jobs;
  double arrival_delay_factor;
  double rep_seconds;  ///< nominal repetition time on the reference host
};

constexpr ReplaySpec kReplays[] = {
    {"paper-128", core::Policy::LibraRisk, 128, 60'000, 1.0, 0.75},
    {"libra-1024", core::Policy::Libra, 1024, 25'000, 1.0, 0.95},
    {"risk-heavy-1024", core::Policy::LibraRisk, 1024, 15'000, 0.1, 1.8},
};

const ReplaySpec* find_replay(const std::string& name) {
  for (const ReplaySpec& spec : kReplays)
    if (name == spec.name) return &spec;
  return nullptr;
}

}  // namespace

bool is_replay_workload(const std::string& name) { return find_replay(name) != nullptr; }

RunResult run_replay_workload(const Options& opts) {
  const ReplaySpec* spec = find_replay(opts.workload);
  if (spec == nullptr) throw std::invalid_argument("unknown workload " + opts.workload);

  const std::size_t n = opts.smoke ? spec->jobs / 10 : spec->jobs;
  const int reps = opts.smoke ? 1 : reps_for(opts.seconds, spec->rep_seconds, kMinReps);
  RunResult result;
  std::vector<double> setup_s, gen_s, loop_s, jobs_per_s, p50_us, all_submit_us;
  std::vector<workload::Job> jobs;
  double rss_mib = 0.0;

  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    jobs = make_jobs(n, spec->arrival_delay_factor, opts.seed);
    const Clock::time_point generated = Clock::now();
    const Replay r = replay(jobs, spec->policy, spec->nodes, nullptr);
    result.attempted += n;
    ++result.reps;

    setup_s.push_back(to_s(r.first_decision - start));
    gen_s.push_back(to_s(generated - start));
    loop_s.push_back(r.loop_s);
    jobs_per_s.push_back(static_cast<double>(n) / r.loop_s);
    p50_us.push_back(percentile(r.submit_us, 50.0));
    all_submit_us.insert(all_submit_us.end(), r.submit_us.begin(), r.submit_us.end());
    if (rep == 0) {
      // Read before later repetitions add pooled samples to the heap.
      rss_mib = peak_rss_mib();
      result.digest = r.digest;
      result.fulfilled_pct = r.fulfilled_pct;
    } else if (r.digest != result.digest) {
      result.fail(n, "repetition " + std::to_string(rep) + " digest " + hex(r.digest) +
                         " differs from " + hex(result.digest));
    }
  }

  // Best repetition: the one least disturbed by the rest of the host.
  result.add("setup_s", median(setup_s), "s", Kind::EndToEnd);
  result.add("jobs_per_s", max_of(jobs_per_s), "1/s", Kind::EndToEnd);
  result.add("verdict_p50_us", min_of(p50_us), "us", Kind::EndToEnd);
  result.add("peak_rss_mib", rss_mib, "MiB", Kind::EndToEnd);
  result.add("jobs_per_s_median", median(jobs_per_s), "1/s", Kind::Detail);
  result.add("verdict_p99_us", percentile(all_submit_us, 99.0), "us", Kind::Detail);
  result.add("verdict_p999_us", percentile(all_submit_us, 99.9), "us", Kind::Detail);
  result.add("verdict_samples", static_cast<double>(all_submit_us.size()), "count",
             Kind::Detail);

  if (opts.trace) {
    SpanLog log(3 * n);
    const Replay traced = replay(jobs, spec->policy, spec->nodes, &log);
    result.attempted += n;
    if (traced.digest != result.digest)
      result.fail(n, "traced digest " + hex(traced.digest) + " differs from untraced " +
                         hex(result.digest));
    result.add("workload.gen_s", median(gen_s), "s", Kind::Layer);
    add_replay_layers(result, traced, log, n, min_of(loop_s));
    add_gate_layer(result, jobs, spec->policy, spec->nodes);
    std::ofstream os(opts.out_dir + "/" + opts.workload + ".spans.jsonl");
    log.write_jsonl(os, "replay");
  }
  return result;
}

}  // namespace librisk::e2e
