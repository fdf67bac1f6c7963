// Gateway throughput: sustained admission decisions per second through the
// concurrent frontend, swept over 1..16+ producer threads.
//
// Two mixes, bracketing the pipeline:
//
//   gate  — every job is certifiably hopeless (Libra C2-share: the share on
//           the fastest node already exceeds a whole processor), and
//           audit_shed is off, so each submit() resolves entirely at the
//           lock-free fast-reject stage: predicate + two relaxed counter
//           bumps, no queue, no engine. This is the headline number the
//           gateway's design targets (>= 1e6 decisions/sec).
//   mixed — half the jobs shed at the gate, half pass through the bounded
//           queue into the single-threaded engine and a real simulation.
//           The engine serialises this mix, so it measures the whole
//           pipeline under backpressure, not the gate.
//
// The mixed mix runs twice: once under Libra (C2-share certificate sheds
// the hopeless half) and once under LibraRisk ("mixed-risk"; the sigma-only
// salvage lane admits any share on an empty node, so no C2 certificate
// exists and the shed half is C1-impossible instead — more processors than
// the cluster). The mixed-risk rows drive the batched sigma-risk admission
// scan end to end behind the queue.
//
// Results go to BENCH_gateway.json (--out overrides); EXPERIMENTS.md
// "Concurrent admission gateway" carries the narrative. --quick shrinks the
// job counts ~20x for the bench-smoke ctest label.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/gateway.hpp"
#include "support/bounded_queue.hpp"
#include "support/cli.hpp"

namespace {

using namespace librisk;

constexpr std::size_t kQueueCapacity = 4096;

struct MixResult {
  std::string mix;
  int threads = 0;
  std::uint64_t jobs = 0;
  double seconds = 0.0;
  double decisions_per_sec = 0.0;
  std::uint64_t fast_rejected = 0;
  std::uint64_t engine_decided = 0;
  std::uint64_t queue_high_water = 0;
};

/// A job the Libra C2-share certificate sheds: share on a unit-speed node
/// is estimate/deadline = 50 processors.
workload::Job hopeless_job() {
  workload::Job job;
  job.actual_runtime = 100.0;
  job.user_estimate = 100.0;
  job.scheduler_estimate = 100.0;
  job.deadline = 2.0;
  job.num_procs = 1;
  return job;
}

/// A job Libra admits easily: share 100/250 = 0.4 of one node.
workload::Job easy_job() {
  workload::Job job;
  job.actual_runtime = 100.0;
  job.user_estimate = 100.0;
  job.scheduler_estimate = 100.0;
  job.deadline = 250.0;
  job.num_procs = 1;
  return job;
}

/// A job the C1 certificate sheds on every policy: wider than the cluster.
/// LibraRisk's salvage lane voids the C2-share certificate, so this is the
/// only sound gate-shed shape for the mixed-risk rows.
workload::Job impossible_job() {
  workload::Job job = hopeless_job();
  job.deadline = 250.0;
  job.num_procs = 4096;
  return job;
}

core::GatewayConfig bench_config(core::Policy policy) {
  core::GatewayConfig config;
  config.engine.cluster = cluster::Cluster::homogeneous(128, 168.0);
  config.engine.policy = policy;
  config.audit_shed = false;  // drop at the gate: measure the gate itself
  config.queue_capacity = kQueueCapacity;
  return config;
}

/// Each producer submits `jobs_per_thread` jobs; ids are globally unique
/// and submit times monotone per producer (the drive thread's watermark
/// clamp handles the interleaving). `shed_every` = 1 sheds everything
/// (gate mix); 2 sheds every other job (mixed).
MixResult run_mix(const std::string& mix, int threads,
                  std::uint64_t jobs_per_thread, int shed_every,
                  core::Policy policy, const workload::Job& shed_proto) {
  core::AdmissionGateway gateway(bench_config(policy));

  // Per-producer arrival spacing stretches with the thread count so the
  // *global* arrival rate (one job per sim-second) and horizon are the same
  // in every row — otherwise more threads would mean shorter, denser
  // simulated traces and the mixed rows would not be comparable.
  const double spacing = static_cast<double>(threads);
  const auto produce = [&gateway, jobs_per_thread, shed_every, spacing,
                        &shed_proto](int lane) {
    workload::Job shed = shed_proto;
    workload::Job pass = easy_job();
    for (std::uint64_t i = 0; i < jobs_per_thread; ++i) {
      const bool is_shed = shed_every == 1 || i % 2 == 0;
      workload::Job& job = is_shed ? shed : pass;
      job.id = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(lane) * jobs_per_thread + i + 1);
      job.submit_time = static_cast<double>(i) * spacing;
      gateway.submit(job);
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(threads));
  for (int lane = 0; lane < threads; ++lane) producers.emplace_back(produce, lane);
  for (std::thread& thread : producers) thread.join();
  gateway.close();  // mixed: decisions are not done until the queue drains
  const auto stop = std::chrono::steady_clock::now();

  const core::GatewayStats stats = gateway.stats();
  MixResult r;
  r.mix = mix;
  r.threads = threads;
  r.jobs = static_cast<std::uint64_t>(threads) * jobs_per_thread;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.decisions_per_sec = static_cast<double>(r.jobs) / r.seconds;
  r.fast_rejected = stats.fast_rejected;
  r.engine_decided = stats.decided;
  r.queue_high_water = stats.queue_high_water;
  return r;
}

void write_json(const std::string& path, const std::vector<MixResult>& results) {
  std::ofstream os(path);
  os << "{\n"
     << " \"note\": \"Regenerated by build/bench/throughput_gateway; see "
        "EXPERIMENTS.md 'Concurrent admission gateway' for the narrative. "
        "gate = 100% fast-reject in drop mode (the lock-free stage alone); "
        "mixed = 50% shed, rest through the queue + engine; mixed-risk = "
        "the same 50/50 split under LibraRisk (C1 sheds, batched sigma-risk "
        "scan behind the queue).\",\n"
     << " \"context\": {\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"usable_cpus\": " << support::usable_cpus() << ",\n"
     << "  \"policy\": \"Libra (gate, mixed); LibraRisk (mixed-risk)\",\n"
     << "  \"cluster\": \"homogeneous 128 x 168\",\n"
     << "  \"queue_capacity\": " << kQueueCapacity << "\n"
     << " },\n"
     << " \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MixResult& r = results[i];
    os << "  {\"mix\": \"" << r.mix << "\", \"threads\": " << r.threads
       << ", \"jobs\": " << r.jobs << ", \"seconds\": " << r.seconds
       << ", \"decisions_per_sec\": " << r.decisions_per_sec
       << ", \"fast_rejected\": " << r.fast_rejected
       << ", \"engine_decided\": " << r.engine_decided
       << ", \"queue_high_water\": " << r.queue_high_water << "}"
       << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << " ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  cli::Parser parser("throughput_gateway",
                     "Gateway decisions/sec over 1..16 producer threads");
  auto& quick_opt = parser.add<bool>("quick", "smoke mode: ~20x fewer jobs", false);
  auto& out_opt = parser.add<std::string>("out", "JSON output path",
                                          "BENCH_gateway.json");
  parser.parse(argc, argv);

  const std::uint64_t gate_jobs = quick_opt.value ? 50'000 : 1'000'000;
  const std::uint64_t mixed_jobs = quick_opt.value ? 2'000 : 20'000;
  const int thread_counts[] = {1, 2, 4, 8, 16};

  std::vector<MixResult> results;
  std::cout << "mix    threads       jobs   seconds   decisions/sec\n";
  for (const int threads : thread_counts) {
    // Fixed total work per row: scaling shows up as falling seconds.
    using Row = std::tuple<const char*, std::uint64_t, int, core::Policy,
                           workload::Job>;
    for (const auto& [mix, total, shed_every, policy, shed_proto] :
         {Row{"gate", gate_jobs, 1, core::Policy::Libra, hopeless_job()},
          Row{"mixed", mixed_jobs, 2, core::Policy::Libra, hopeless_job()},
          Row{"mixed-risk", mixed_jobs, 2, core::Policy::LibraRisk,
              impossible_job()}}) {
      const std::uint64_t per_thread =
          total / static_cast<std::uint64_t>(threads);
      MixResult r = run_mix(mix, threads, per_thread, shed_every, policy,
                            shed_proto);
      const std::size_t width = std::string(mix).size();
      std::cout << mix << std::string(width < 11 ? 11 - width : 1, ' ')
                << "  " << threads << "  " << r.jobs << "  " << r.seconds
                << "  " << static_cast<std::uint64_t>(r.decisions_per_sec)
                << '\n';
      results.push_back(std::move(r));
    }
  }
  write_json(out_opt.value, results);
  std::cout << "written to " << out_opt.value << '\n';
  return 0;
}
