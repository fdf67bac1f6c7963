// Microbenchmark M4: whole-trace admission throughput as the cluster
// grows. Admission is O(nodes) per submission, so this is where the
// workspace + NodeStateView cache + selection early-exit pay off — the
// paper's 128-node cluster is the small end. The seed path these rows were
// once compared against is frozen history (EXPERIMENTS.md).
//
// One iteration = a full SDSC SP2 simulation (workload generation
// included); the accepted and nodes_scanned counters come from
// AdmissionStats.
#include <benchmark/benchmark.h>

#include "exp/scenario.hpp"

namespace {

using namespace librisk;

void run_admission(benchmark::State& state, core::Policy policy) {
  exp::Scenario scenario;
  scenario.workload.trace.job_count = 3000;
  scenario.nodes = static_cast<int>(state.range(0));
  scenario.policy = policy;
  std::uint64_t seed = 1;
  std::uint64_t accepted = 0;
  std::uint64_t nodes_scanned = 0;
  for (auto _ : state) {
    scenario.seed = seed++;
    const exp::ScenarioResult result = exp::run_scenario(scenario);
    accepted += result.admission.accepted;
    nodes_scanned += result.admission.nodes_scanned;
    benchmark::DoNotOptimize(result.summary.fulfilled_pct);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * scenario.workload.trace.job_count));
  state.counters["accepted"] =
      benchmark::Counter(static_cast<double>(accepted) /
                         static_cast<double>(state.iterations()));
  state.counters["nodes_scanned"] =
      benchmark::Counter(static_cast<double>(nodes_scanned) /
                         static_cast<double>(state.iterations()));
}

void BM_AdmissionEndToEnd_LibraRisk(benchmark::State& state) {
  run_admission(state, core::Policy::LibraRisk);
}
void BM_AdmissionEndToEnd_Libra(benchmark::State& state) {
  run_admission(state, core::Policy::Libra);
}

BENCHMARK(BM_AdmissionEndToEnd_LibraRisk)
    ->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdmissionEndToEnd_Libra)
    ->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
