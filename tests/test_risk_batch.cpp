// Differential coverage for the batched SoA risk kernel (core::assess_nodes)
// against the scalar workspace kernel and the seed implementation
// (tests/risk_oracle.cpp), plus
// the conservativeness property of the batch early-exit σ-spread bound
// (same shape as the GatewayConservative.* certificate tests).
//
// Populations 0-256, heterogeneous speed factors, negative/past remaining
// deadlines, zero-rate (starved) residents, zero-spare-capacity nodes, and
// all three RiskConfig::Prediction modes. The batched kernel must be
// bitwise the scalar kernel.
#include "core/risk.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/share_model.hpp"
#include "risk_oracle.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace librisk::core {
namespace {

struct NodeCase {
  std::vector<double> work;
  std::vector<double> deadline;
  std::vector<double> rate;
  double speed = 1.0;
  double capacity = 0.3;
};

NodeCase random_node(rng::Stream& s, std::size_t population) {
  NodeCase node;
  node.work.reserve(population);
  node.deadline.reserve(population);
  node.rate.reserve(population);
  for (std::size_t i = 0; i < population; ++i) {
    // ~10% of residents have exhausted their believed work (share 0), ~10%
    // are starved (rate 0), and deadlines dip well past due.
    node.work.push_back(s.bernoulli(0.1) ? 0.0 : s.uniform(1.0, 50000.0));
    node.deadline.push_back(s.uniform(-500.0, 100000.0));
    node.rate.push_back(s.bernoulli(0.1) ? 0.0 : s.uniform(0.05, 1.0));
  }
  node.speed = s.uniform(0.25, 4.0);
  node.capacity = s.bernoulli(0.2) ? 0.0 : s.uniform(0.0, 1.0);
  return node;
}

RiskConfig random_config(rng::Stream& s, RiskConfig::Prediction prediction) {
  RiskConfig config;
  config.prediction = prediction;
  // Mix thresholds that mostly reject, mostly accept, and sit at zero.
  const double pick = s.uniform();
  config.sigma_threshold =
      pick < 0.2 ? 0.0 : (pick < 0.6 ? s.uniform(0.0, 0.5) : s.uniform(0.5, 10.0));
  return config;
}

std::vector<RiskJobInput> to_inputs(const NodeCase& node, double cand_work,
                                    double cand_deadline) {
  std::vector<RiskJobInput> inputs;
  inputs.reserve(node.work.size() + 1);
  for (std::size_t i = 0; i < node.work.size(); ++i)
    inputs.push_back(
        RiskJobInput{node.work[i], node.deadline[i], node.rate[i]});
  inputs.push_back(
      RiskJobInput{cand_work, cand_deadline, RiskJobInput::kNewJob});
  return inputs;
}

NodeRiskInput to_batch_input(const NodeCase& node) {
  NodeRiskInput input;
  input.remaining_work = node.work;
  input.remaining_deadline = node.deadline;
  input.rate = node.rate;
  input.speed_factor = node.speed;
  input.available_capacity = node.capacity;
  return input;
}

/// The executor-side fold (fill_view's arithmetic), reproduced so
/// the aggregate path is tested against an independently built cache.
ResidentRiskAggregates fold_aggregates(const NodeCase& node,
                                       const RiskConfig& config) {
  ResidentRiskAggregates agg;
  for (std::size_t i = 0; i < node.work.size(); ++i) {
    const double share = cluster::required_share(
        node.work[i], node.deadline[i], config.deadline_clamp, node.speed);
    agg.fold(share, node.work[i], node.deadline[i], node.rate[i],
             config.deadline_clamp);
  }
  agg.computed = true;
  return agg;
}

std::size_t population_for_trial(rng::Stream& s, int trial) {
  // Dense coverage of small populations (where branches and the n<2 sigma
  // rule live), sparse coverage up to 256.
  if (trial % 4 == 0) return static_cast<std::size_t>(trial / 4 % 5);
  return static_cast<std::size_t>(s.uniform_int(0, 256));
}

constexpr RiskConfig::Prediction kPredictions[] = {
    RiskConfig::Prediction::CurrentRate,
    RiskConfig::Prediction::ProcessorSharing,
    RiskConfig::Prediction::ProportionalShare,
};

// ---- Batched kernel: bitwise the scalar kernel, all modes --------------

TEST(RiskBatch, StrictMatchesScalarAndLegacyBitwise) {
  rng::Stream s(20260807);
  RiskWorkspace scalar_ws;
  RiskWorkspace batch_ws;
  for (int trial = 0; trial < 240; ++trial) {
    const RiskConfig config =
        random_config(s, kPredictions[trial % 3]);
    const double cand_work = s.bernoulli(0.05) ? 0.0 : s.uniform(1.0, 50000.0);
    const double cand_deadline = s.uniform(-100.0, 100000.0);

    // A batch of several nodes at once, like the admission scan's chunks.
    const std::size_t batch = static_cast<std::size_t>(s.uniform_int(1, 6));
    std::vector<NodeCase> nodes;
    std::vector<NodeRiskInput> batch_inputs;
    for (std::size_t b = 0; b < batch; ++b)
      nodes.push_back(random_node(s, population_for_trial(s, trial)));
    for (const NodeCase& node : nodes)
      batch_inputs.push_back(to_batch_input(node));
    std::vector<NodeRiskVerdict> verdicts(batch);
    assess_nodes(batch_inputs, cand_work, cand_deadline, config, batch_ws,
                 verdicts);

    for (std::size_t b = 0; b < batch; ++b) {
      const auto inputs = to_inputs(nodes[b], cand_work, cand_deadline);
      const RiskAssessmentView scalar =
          assess_node(inputs, config, nodes[b].speed, nodes[b].capacity,
                      scalar_ws);
      const RiskAssessment seed = assess_node_reference(
          inputs, config, nodes[b].speed, nodes[b].capacity);
      const NodeRiskVerdict& v = verdicts[b];
      ASSERT_EQ(v.suitable, scalar.zero_risk(config))
          << "trial " << trial << " node " << b << " pop "
          << nodes[b].work.size();
      EXPECT_EQ(v.sigma, scalar.sigma);
      EXPECT_EQ(v.total_share, scalar.total_share);
      EXPECT_EQ(v.mu, scalar.mu);
      EXPECT_EQ(v.max_deadline_delay, scalar.max_deadline_delay);
      EXPECT_FALSE(v.bound_skipped);
      // Seed oracle triangulation (scalar == seed is pinned in test_risk;
      // keep the batched kernel honest against the seed directly too).
      EXPECT_EQ(v.sigma, seed.sigma);
      EXPECT_EQ(v.total_share, seed.total_share);
    }
  }
}

// ---- Aggregate (O(1) per node) path: bitwise too ------------------------

TEST(RiskBatch, AggregatePathMatchesScalarBitwise) {
  rng::Stream s(771);
  RiskWorkspace scalar_ws;
  RiskWorkspace batch_ws;
  for (int trial = 0; trial < 200; ++trial) {
    // Aggregates are only sound for CurrentRate (resident terms must be
    // candidate-independent), which is exactly when the scheduler arms them.
    const RiskConfig config =
        random_config(s, RiskConfig::Prediction::CurrentRate);
    const NodeCase node = random_node(s, population_for_trial(s, trial));
    const double cand_work = s.uniform(1.0, 50000.0);
    const double cand_deadline = s.uniform(-100.0, 100000.0);

    const ResidentRiskAggregates agg = fold_aggregates(node, config);
    NodeRiskInput input = to_batch_input(node);
    input.aggregates = &agg;
    NodeRiskVerdict verdict;
    assess_nodes({&input, 1}, cand_work, cand_deadline, config, batch_ws,
                 {&verdict, 1});

    const auto inputs = to_inputs(node, cand_work, cand_deadline);
    const RiskAssessmentView scalar =
        assess_node(inputs, config, node.speed, node.capacity, scalar_ws);
    EXPECT_TRUE(verdict.aggregate_path);
    ASSERT_EQ(verdict.suitable, scalar.zero_risk(config))
        << "trial " << trial << " pop " << node.work.size();
    EXPECT_EQ(verdict.sigma, scalar.sigma);
    EXPECT_EQ(verdict.total_share, scalar.total_share);
    EXPECT_EQ(verdict.mu, scalar.mu);
    EXPECT_EQ(verdict.max_deadline_delay, scalar.max_deadline_delay);

    // An aggregate-only input (no columns, as the executor's aggregate-only
    // node views give) takes its resident count from the aggregates.
    NodeRiskInput bare = input;
    bare.remaining_work = {};
    bare.remaining_deadline = {};
    bare.rate = {};
    NodeRiskVerdict bare_verdict;
    assess_nodes({&bare, 1}, cand_work, cand_deadline, config, batch_ws,
                 {&bare_verdict, 1});
    EXPECT_EQ(bare_verdict.suitable, verdict.suitable);
    EXPECT_EQ(bare_verdict.sigma, verdict.sigma);
    EXPECT_EQ(bare_verdict.total_share, verdict.total_share);
    EXPECT_EQ(bare_verdict.mu, verdict.mu);
  }
}

// Columns that an input does carry must align with its resident count,
// with or without aggregates.
TEST(RiskBatch, MisalignedColumnsThrowWithOrWithoutAggregates) {
  rng::Stream s(19);
  const RiskConfig config = random_config(s, RiskConfig::Prediction::CurrentRate);
  const NodeCase node = random_node(s, 5);
  const ResidentRiskAggregates agg = fold_aggregates(node, config);
  RiskWorkspace ws;
  NodeRiskVerdict verdict;
  NodeRiskInput input = to_batch_input(node);
  input.rate = input.rate.first(4);
  EXPECT_THROW(assess_nodes({&input, 1}, 10.0, 100.0, config, ws, {&verdict, 1}),
               CheckError);
  input.aggregates = &agg;
  EXPECT_THROW(assess_nodes({&input, 1}, 10.0, 100.0, config, ws, {&verdict, 1}),
               CheckError);
  // Aligned columns that disagree with the aggregates' count are misaligned too.
  input = to_batch_input(node);
  input.remaining_work = input.remaining_work.first(4);
  input.remaining_deadline = input.remaining_deadline.first(4);
  input.rate = input.rate.first(4);
  input.aggregates = &agg;
  EXPECT_THROW(assess_nodes({&input, 1}, 10.0, 100.0, config, ws, {&verdict, 1}),
               CheckError);
}

// ---- Early-exit bound: conservative, never skips an acceptable node -----

TEST(RiskBatchBound, NeverSkipsANodeTheScalarTestAccepts) {
  rng::Stream s(9090);
  RiskWorkspace scalar_ws;
  for (int trial = 0; trial < 400; ++trial) {
    const RiskConfig config =
        random_config(s, RiskConfig::Prediction::CurrentRate);
    const NodeCase node = random_node(
        s, static_cast<std::size_t>(s.uniform_int(2, 64)));
    const ResidentRiskAggregates agg = fold_aggregates(node, config);
    if (!sigma_bound_rejects(agg.dd_max, agg.dd_min, node.work.size() + 1,
                             config))
      continue;
    // The bound fired on the residents alone: whatever candidate arrives,
    // the exact test must also reject.
    for (int c = 0; c < 5; ++c) {
      const double cand_work = s.uniform(1.0, 50000.0);
      const double cand_deadline = s.uniform(-100.0, 100000.0);
      const auto inputs = to_inputs(node, cand_work, cand_deadline);
      const RiskAssessmentView scalar =
          assess_node(inputs, config, node.speed, node.capacity, scalar_ws);
      EXPECT_FALSE(scalar.zero_risk(config))
          << "bound skipped an acceptable node: trial " << trial << " sigma "
          << scalar.sigma << " threshold " << config.sigma_threshold;
    }
  }
}

TEST(RiskBatchBound, KernelSkipImpliesScalarReject) {
  rng::Stream s(100703);
  RiskWorkspace scalar_ws;
  RiskWorkspace batch_ws;
  AssessNodesOptions options;
  options.allow_bound_skip = true;
  int skips_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const RiskConfig config =
        random_config(s, kPredictions[trial % 3]);
    const NodeCase node = random_node(s, population_for_trial(s, trial));
    const double cand_work = s.uniform(1.0, 50000.0);
    const double cand_deadline = s.uniform(-100.0, 100000.0);

    NodeRiskInput input = to_batch_input(node);
    NodeRiskVerdict verdict;
    assess_nodes({&input, 1}, cand_work, cand_deadline, config, batch_ws,
                 {&verdict, 1}, options);

    const auto inputs = to_inputs(node, cand_work, cand_deadline);
    const RiskAssessmentView scalar =
        assess_node(inputs, config, node.speed, node.capacity, scalar_ws);
    if (verdict.bound_skipped) {
      ++skips_seen;
      EXPECT_FALSE(verdict.suitable);
      EXPECT_FALSE(scalar.zero_risk(config));
    } else {
      // No skip: the verdict must be the full, bitwise-exact assessment.
      EXPECT_EQ(verdict.suitable, scalar.zero_risk(config));
      EXPECT_EQ(verdict.sigma, scalar.sigma);
    }
  }
  // The generator must actually exercise the skip arm for the property to
  // mean anything.
  EXPECT_GT(skips_seen, 10);
}

// ---- Degenerate shapes pinned explicitly --------------------------------

TEST(RiskBatch, EmptyNodeMatchesCandidateOnlyAssessment) {
  const RiskConfig config;
  RiskWorkspace scalar_ws;
  RiskWorkspace batch_ws;
  NodeRiskInput input;  // no residents
  input.speed_factor = 2.0;
  input.available_capacity = 1.0;
  NodeRiskVerdict verdict;
  assess_nodes({&input, 1}, 1000.0, 500.0, config, batch_ws, {&verdict, 1});

  const std::vector<RiskJobInput> inputs{
      RiskJobInput{1000.0, 500.0, RiskJobInput::kNewJob}};
  const RiskAssessmentView scalar =
      assess_node(inputs, config, 2.0, 1.0, scalar_ws);
  EXPECT_EQ(verdict.suitable, scalar.zero_risk(config));
  EXPECT_EQ(verdict.sigma, scalar.sigma);
  EXPECT_EQ(verdict.total_share, scalar.total_share);
  EXPECT_EQ(verdict.sigma, 0.0);  // n = 1: sigma is 0 by definition
}

TEST(RiskBatch, VerdictSpanShorterThanBatchThrows) {
  const RiskConfig config;
  RiskWorkspace ws;
  std::vector<NodeRiskInput> inputs(2);
  inputs[0].speed_factor = inputs[1].speed_factor = 1.0;
  NodeRiskVerdict one;
  const std::span<NodeRiskVerdict> short_span{&one, 1};
  EXPECT_THROW(assess_nodes(inputs, 10.0, 100.0, config, ws, short_span),
               CheckError);
}

}  // namespace
}  // namespace librisk::core
