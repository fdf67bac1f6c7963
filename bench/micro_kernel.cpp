// Microbenchmark M5: execution-kernel throughput of the incremental
// dirty-set settle. The whole-resident-set recompute it replaced is gone;
// its numbers are frozen history in EXPERIMENTS.md.
//
//   - Residents scaling: R singleton-resident jobs draining one completion
//     at a time. The kernel touches only the completing node's residents
//     (O(R log R) drain; a whole-resident recompute would be O(R^2)).
//   - Whole trace: full SDSC SP2 simulations as the cluster grows, the
//     headline end-to-end number (one iteration = one simulation,
//     workload generation included).
//   - Alloc audit: this TU overrides global operator new/delete to count
//     heap allocations; the steady-state leg reports allocations per
//     settle, which must be zero once the executor workspaces have grown.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/timeshared.hpp"
#include "exp/scenario.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The replacement operator new above is malloc-backed, so freeing in the
// matching operator delete is correct; GCC cannot see the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace librisk;

/// R jobs, one per node, accurate estimates, far deadlines: rates are the
/// isolation-lemma constant 1.0 and every settle is a single completion.
std::vector<workload::Job> singleton_jobs(int residents) {
  std::vector<workload::Job> jobs(static_cast<std::size_t>(residents));
  for (int i = 0; i < residents; ++i) {
    workload::Job& job = jobs[static_cast<std::size_t>(i)];
    job.id = i + 1;
    job.actual_runtime = 1000.0 + 0.5 * static_cast<double>(i);
    job.user_estimate = job.actual_runtime;
    job.scheduler_estimate = job.actual_runtime;
    job.deadline = 1e9;
    job.num_procs = 1;
  }
  return jobs;
}

void run_residents(benchmark::State& state) {
  const int residents = static_cast<int>(state.range(0));
  const std::vector<workload::Job> jobs = singleton_jobs(residents);
  cluster::ShareModelConfig config;
  config.work_conserving = true;
  const auto cl = cluster::Cluster::homogeneous(residents, 1.0);
  std::uint64_t recomputed = 0;
  std::uint64_t settles = 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    cluster::TimeSharedExecutor executor(simulator, cl, config);
    std::uint64_t completions = 0;
    executor.set_completion_handler(
        [&completions](const workload::Job&, sim::SimTime) { ++completions; });
    for (int i = 0; i < residents; ++i)
      executor.start(jobs[static_cast<std::size_t>(i)], {i});
    simulator.run();
    benchmark::DoNotOptimize(completions);
    recomputed += executor.kernel_stats().tasks_recomputed;
    settles += executor.kernel_stats().settles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          residents);
  state.counters["recomp_per_settle"] = benchmark::Counter(
      settles > 0 ? static_cast<double>(recomputed) / static_cast<double>(settles)
                  : 0.0);
}

void BM_KernelResidentsScaling(benchmark::State& state) { run_residents(state); }
BENCHMARK(BM_KernelResidentsScaling)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

/// Steady-state allocation audit: after the first half of the drain has
/// grown every workspace (event slab, boundary heap, dirty/demand
/// scratch), the second half must run entirely allocation-free. Timing is
/// incidental here; the counter is the result.
void BM_KernelSteadyStateAllocPerSettle(benchmark::State& state) {
  const int residents = static_cast<int>(state.range(0));
  const std::vector<workload::Job> jobs = singleton_jobs(residents);
  cluster::ShareModelConfig config;
  config.work_conserving = true;
  const auto cl = cluster::Cluster::homogeneous(residents, 1.0);
  double allocs_per_settle = 0.0;
  for (auto _ : state) {
    sim::Simulator simulator;
    cluster::TimeSharedExecutor executor(simulator, cl, config);
    std::uint64_t completions = 0;
    executor.set_completion_handler(
        [&completions](const workload::Job&, sim::SimTime) { ++completions; });
    for (int i = 0; i < residents; ++i)
      executor.start(jobs[static_cast<std::size_t>(i)], {i});
    // Warm up: drain the first half of the completions.
    simulator.run_until(1000.0 + 0.25 * static_cast<double>(residents));
    const std::uint64_t settles_before = executor.kernel_stats().settles;
    const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    simulator.run();
    const std::uint64_t settles =
        executor.kernel_stats().settles - settles_before;
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    allocs_per_settle = settles > 0 ? static_cast<double>(allocs) /
                                          static_cast<double>(settles)
                                    : 0.0;
    benchmark::DoNotOptimize(completions);
  }
  state.counters["allocs_per_settle"] = benchmark::Counter(allocs_per_settle);
}
BENCHMARK(BM_KernelSteadyStateAllocPerSettle)->Arg(64)->Arg(512);

void run_whole_trace(benchmark::State& state, core::Policy policy) {
  exp::Scenario scenario;
  scenario.workload.trace.job_count = 3000;
  scenario.nodes = static_cast<int>(state.range(0));
  scenario.policy = policy;
  std::uint64_t seed = 1;
  std::uint64_t settles = 0;
  std::uint64_t recomputed = 0;
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    scenario.seed = seed++;
    const exp::ScenarioResult result = exp::run_scenario(scenario);
    settles += result.kernel.settles;
    recomputed += result.kernel.tasks_recomputed;
    skipped += result.kernel.tasks_skipped;
    benchmark::DoNotOptimize(result.summary.fulfilled_pct);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * scenario.workload.trace.job_count));
  state.counters["recomp_per_settle"] = benchmark::Counter(
      settles > 0 ? static_cast<double>(recomputed) / static_cast<double>(settles)
                  : 0.0);
  const std::uint64_t touched = recomputed + skipped;
  state.counters["skip_pct"] = benchmark::Counter(
      touched > 0 ? 100.0 * static_cast<double>(skipped) /
                        static_cast<double>(touched)
                  : 0.0);
}

void BM_KernelWholeTrace_LibraRisk(benchmark::State& state) {
  run_whole_trace(state, core::Policy::LibraRisk);
}
void BM_KernelWholeTrace_Libra(benchmark::State& state) {
  run_whole_trace(state, core::Policy::Libra);
}
BENCHMARK(BM_KernelWholeTrace_LibraRisk)
    ->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KernelWholeTrace_Libra)
    ->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
