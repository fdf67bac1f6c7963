// Microbenchmark M2: admission-control decision cost.
//
// LibraRisk evaluates every node per submission (Algorithm 1 is O(m * n_j));
// this measures the per-decision cost of the share test and the risk
// assessment at realistic node populations.
#include <benchmark/benchmark.h>

#include "core/risk.hpp"
#include "cluster/share_model.hpp"
#include "support/rng.hpp"

namespace {

using namespace librisk;

std::vector<core::RiskJobInput> make_inputs(std::size_t n, std::uint64_t seed) {
  rng::Stream stream(seed);
  std::vector<core::RiskJobInput> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::RiskJobInput in;
    in.remaining_work = stream.uniform(100.0, 50000.0);
    in.remaining_deadline = stream.uniform(200.0, 100000.0);
    in.current_rate = stream.uniform(0.05, 1.0);
    inputs.push_back(in);
  }
  if (!inputs.empty()) inputs.back().current_rate = core::RiskJobInput::kNewJob;
  return inputs;
}

// Allocating baseline: a cold workspace per call reproduces the retired
// convenience overload's cost profile (fresh result vectors every
// assessment) without keeping a call site for it outside the tests.
void BM_RiskAssessNode(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)), 7);
  const core::RiskConfig config;
  for (auto _ : state) {
    core::RiskWorkspace workspace;
    const core::RiskAssessmentView a =
        core::assess_node(inputs, config, 1.0, 0.3, workspace);
    benchmark::DoNotOptimize(a.sigma);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * inputs.size()));
}
BENCHMARK(BM_RiskAssessNode)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// The hot path the scheduler actually takes: one long-lived workspace,
// zero allocations per assessment.
void BM_RiskAssessNodeWorkspace(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)), 7);
  const core::RiskConfig config;
  core::RiskWorkspace workspace;
  for (auto _ : state) {
    const core::RiskAssessmentView a =
        core::assess_node(inputs, config, 1.0, 0.3, workspace);
    benchmark::DoNotOptimize(a.sigma);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * inputs.size()));
}
BENCHMARK(BM_RiskAssessNodeWorkspace)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_RiskAssessNodeProcessorSharing(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)), 7);
  core::RiskConfig config;
  config.prediction = core::RiskConfig::Prediction::ProcessorSharing;
  for (auto _ : state) {
    core::RiskWorkspace workspace;  // cold per call, like the old overload
    const core::RiskAssessmentView a =
        core::assess_node(inputs, config, 1.0, 0.3, workspace);
    benchmark::DoNotOptimize(a.sigma);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * inputs.size()));
}
BENCHMARK(BM_RiskAssessNodeProcessorSharing)->Arg(8)->Arg(128);

void BM_RiskAssessNodeProcessorSharingWorkspace(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)), 7);
  core::RiskConfig config;
  config.prediction = core::RiskConfig::Prediction::ProcessorSharing;
  core::RiskWorkspace workspace;
  for (auto _ : state) {
    const core::RiskAssessmentView a =
        core::assess_node(inputs, config, 1.0, 0.3, workspace);
    benchmark::DoNotOptimize(a.sigma);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * inputs.size()));
}
BENCHMARK(BM_RiskAssessNodeProcessorSharingWorkspace)->Arg(8)->Arg(128);

// SoA population for the batched kernel: the same jobs make_inputs draws,
// split into resident columns plus the admission candidate (the kNewJob
// entry), the way the executor's node cache now hands them over.
struct SoaPopulation {
  std::vector<double> work;
  std::vector<double> deadline;
  std::vector<double> rate;
  double cand_work = 0.0;
  double cand_deadline = 0.0;

  [[nodiscard]] core::NodeRiskInput node(double available_capacity) const {
    core::NodeRiskInput in;
    in.remaining_work = work;
    in.remaining_deadline = deadline;
    in.rate = rate;
    in.available_capacity = available_capacity;
    return in;
  }
};

SoaPopulation make_soa(std::size_t n, std::uint64_t seed) {
  const auto inputs = make_inputs(n, seed);
  SoaPopulation p;
  for (std::size_t i = 0; i + 1 < inputs.size(); ++i) {
    p.work.push_back(inputs[i].remaining_work);
    p.deadline.push_back(inputs[i].remaining_deadline);
    p.rate.push_back(inputs[i].current_rate);
  }
  if (!inputs.empty()) {
    p.cand_work = inputs.back().remaining_work;
    p.cand_deadline = inputs.back().remaining_deadline;
  }
  return p;
}

// The batched SoA kernel (bit-identical to the scalar kernel), one node per
// call — head-to-head with BM_RiskAssessNodeWorkspace on the same jobs.
void BM_RiskAssessNodesBatched(benchmark::State& state) {
  const SoaPopulation p = make_soa(static_cast<std::size_t>(state.range(0)), 7);
  const core::RiskConfig config;
  core::RiskWorkspace workspace;
  const core::NodeRiskInput node = p.node(0.3);
  core::NodeRiskVerdict verdict;
  for (auto _ : state) {
    core::assess_nodes({&node, 1}, p.cand_work, p.cand_deadline, config,
                       workspace, {&verdict, 1});
    benchmark::DoNotOptimize(verdict.sigma);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (p.work.size() + 1)));
}
BENCHMARK(BM_RiskAssessNodesBatched)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// The scheduler's steady-state path: the executor's epoch cache has already
// folded the residents into power sums, so the per-node assessment is O(1)
// in the population — only the candidate's terms are appended.
void BM_RiskAssessNodesAggregates(benchmark::State& state) {
  const SoaPopulation p = make_soa(static_cast<std::size_t>(state.range(0)), 7);
  const core::RiskConfig config;
  core::RiskWorkspace workspace;
  core::ResidentRiskAggregates agg;
  for (std::size_t i = 0; i < p.work.size(); ++i) {
    const double share = cluster::required_share(p.work[i], p.deadline[i],
                                                 config.deadline_clamp, 1.0);
    agg.fold(share, p.work[i], p.deadline[i], p.rate[i],
             config.deadline_clamp);
  }
  agg.computed = true;
  core::NodeRiskInput node = p.node(0.3);
  node.aggregates = &agg;
  core::NodeRiskVerdict verdict;
  for (auto _ : state) {
    core::assess_nodes({&node, 1}, p.cand_work, p.cand_deadline, config,
                       workspace, {&verdict, 1});
    benchmark::DoNotOptimize(verdict.sigma);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (p.work.size() + 1)));
}
BENCHMARK(BM_RiskAssessNodesAggregates)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// Aggregates path including the fold itself (what one cache rebuild plus
// one assessment costs): bounds how much of the O(1) win the epoch cache's
// amortization is responsible for.
void BM_RiskAssessNodesAggregatesWithFold(benchmark::State& state) {
  const SoaPopulation p = make_soa(static_cast<std::size_t>(state.range(0)), 7);
  const core::RiskConfig config;
  core::RiskWorkspace workspace;
  core::NodeRiskInput node = p.node(0.3);
  core::NodeRiskVerdict verdict;
  for (auto _ : state) {
    core::ResidentRiskAggregates agg;
    for (std::size_t i = 0; i < p.work.size(); ++i) {
      const double share = cluster::required_share(p.work[i], p.deadline[i],
                                                   config.deadline_clamp, 1.0);
      agg.fold(share, p.work[i], p.deadline[i], p.rate[i],
               config.deadline_clamp);
    }
    agg.computed = true;
    node.aggregates = &agg;
    core::assess_nodes({&node, 1}, p.cand_work, p.cand_deadline, config,
                       workspace, {&verdict, 1});
    benchmark::DoNotOptimize(verdict.sigma);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (p.work.size() + 1)));
}
BENCHMARK(BM_RiskAssessNodesAggregatesWithFold)->Arg(8)->Arg(128);

void BM_TotalShare(benchmark::State& state) {
  rng::Stream stream(11);
  std::vector<double> shares(static_cast<std::size_t>(state.range(0)));
  for (auto& s : shares) s = stream.uniform(0.0, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::total_share(shares));
  }
}
BENCHMARK(BM_TotalShare)->Arg(8)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
