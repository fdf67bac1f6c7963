#include "core/risk.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/share_model.hpp"
#include "support/check.hpp"

namespace librisk::core {

namespace {

// Eq. 6 acceptance shared by the owning and the view result types.
bool zero_risk_test(double sigma, const RiskConfig& config) noexcept {
  return sigma <= config.sigma_threshold + RiskConfig::kTolerance;
}

}  // namespace

bool RiskAssessment::zero_risk(const RiskConfig& config) const noexcept {
  return zero_risk_test(sigma, config);
}

bool RiskAssessmentView::zero_risk(const RiskConfig& config) const noexcept {
  return zero_risk_test(sigma, config);
}

void processor_sharing_finish_times_into(std::span<const double> works,
                                         double speed_factor,
                                         std::vector<std::size_t>& order_scratch,
                                         std::vector<double>& finish) {
  LIBRISK_CHECK(speed_factor > 0.0, "speed factor must be positive");
  const std::size_t n = works.size();
  order_scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) order_scratch[i] = i;
  std::sort(order_scratch.begin(), order_scratch.end(),
            [&](std::size_t a, std::size_t b) { return works[a] < works[b]; });

  // Under equal splitting, the k-th job (by remaining work) finishes after
  // the previous one plus (n-k) shares of the work difference:
  //   F(k) = F(k-1) + (n - k + 1) * (w(k) - w(k-1)) / speed.
  finish.assign(n, 0.0);
  double clock = 0.0;
  double prev_work = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double w = works[order_scratch[k]];
    LIBRISK_CHECK(w >= 0.0, "negative remaining work");
    clock += static_cast<double>(n - k) * (w - prev_work) / speed_factor;
    prev_work = w;
    finish[order_scratch[k]] = clock;
  }
}

std::vector<double> processor_sharing_finish_times(std::span<const double> works,
                                                   double speed_factor) {
  std::vector<std::size_t> order;
  std::vector<double> finish;
  processor_sharing_finish_times_into(works, speed_factor, order, finish);
  return finish;
}

namespace {

// Predicted delay (Algorithm 1, line 4) from a finish offset; the shared
// inline helper carries the arithmetic (see risk.hpp).
double delay_from_finish(const RiskJobInput& j, double finish_offset) noexcept {
  return delay_from_finish_offset(j.remaining_work, j.remaining_deadline,
                                  finish_offset);
}

}  // namespace

RiskAssessmentView assess_node(std::span<const RiskJobInput> jobs,
                               const RiskConfig& config, double speed_factor,
                               double available_capacity,
                               RiskWorkspace& ws) {
  LIBRISK_CHECK(speed_factor > 0.0, "speed factor must be positive");
  RiskAssessmentView out;
  if (jobs.empty()) {
    out.max_deadline_delay = 1.0;  // empty node: ideal by definition
    return out;
  }

  const std::size_t n = jobs.size();
  ws.predicted_delay_.resize(n);
  ws.deadline_delay_.resize(n);

  // Accumulators fused into the per-job loops. Each is an in-order sum over
  // index 0..n-1 — the order stats::mean and stats::stddev_population_eq6
  // use — which the batched kernel's left-folds reproduce bit for bit.
  double total = 0.0;
  double dd_sum = 0.0;
  double dd_sum_sq = 0.0;
  double dd_max = 0.0;

  if (config.prediction == RiskConfig::Prediction::CurrentRate) {
    // Hot path: everything per job is local, so one fused pass suffices —
    // no shares/finish arrays at all.
    const double spare = std::max(available_capacity, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const RiskJobInput& j = jobs[i];
      LIBRISK_CHECK(j.remaining_work >= 0.0, "negative remaining work");
      const double share = cluster::required_share(
          j.remaining_work, j.remaining_deadline, config.deadline_clamp,
          speed_factor);
      total += share;
      double finish = 0.0;
      if (j.remaining_work > 0.0) {
        const double rate = j.current_rate == RiskJobInput::kNewJob
                                ? std::min(std::min(share, spare), 1.0) * speed_factor
                                : j.current_rate;
        finish = rate > 0.0 ? j.remaining_work / rate : kStarvedFinish;
        finish = std::min(finish, kStarvedFinish);
      }
      const double delay = delay_from_finish(j, finish);
      const double dd = deadline_delay_metric(delay, j.remaining_deadline,
                                              config.deadline_clamp);
      ws.predicted_delay_[i] = delay;
      ws.deadline_delay_[i] = dd;
      dd_sum += dd;
      dd_sum_sq += dd * dd;
      dd_max = std::max(dd_max, dd);
    }
  } else {
    // ProcessorSharing / ProportionalShare predictions need the whole node
    // population before any finish time is known: a shares pass, a finish
    // pass, then the delay pass, over workspace buffers.
    ws.shares_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      LIBRISK_CHECK(jobs[i].remaining_work >= 0.0, "negative remaining work");
      ws.shares_[i] = cluster::required_share(jobs[i].remaining_work,
                                              jobs[i].remaining_deadline,
                                              config.deadline_clamp, speed_factor);
      total += ws.shares_[i];
    }

    if (config.prediction == RiskConfig::Prediction::ProcessorSharing) {
      // Stage remaining works in the predicted-delay buffer (overwritten by
      // the delay pass below) to avoid a dedicated works array.
      for (std::size_t i = 0; i < n; ++i)
        ws.predicted_delay_[i] = jobs[i].remaining_work;
      processor_sharing_finish_times_into(ws.predicted_delay_, speed_factor,
                                          ws.order_, ws.finish_);
    } else {
      ws.finish_.assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (jobs[i].remaining_work <= 0.0) continue;
        const double alloc = cluster::allocate_one(
            ws.shares_[i], total - ws.shares_[i], /*work_conserving=*/false);
        // alloc > 0 because remaining_work > 0 forces shares_[i] > 0.
        ws.finish_[i] = jobs[i].remaining_work / (alloc * speed_factor);
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      const double delay = delay_from_finish(jobs[i], ws.finish_[i]);
      const double dd = deadline_delay_metric(delay, jobs[i].remaining_deadline,
                                              config.deadline_clamp);
      ws.predicted_delay_[i] = delay;
      ws.deadline_delay_[i] = dd;
      dd_sum += dd;
      dd_sum_sq += dd * dd;
      dd_max = std::max(dd_max, dd);
    }
  }

  out.total_share = total;
  out.predicted_delay = ws.predicted_delay_;
  out.deadline_delay = ws.deadline_delay_;
  const double dn = static_cast<double>(n);
  out.mu = dd_sum / dn;  // == stats::mean: in-order sum, then divide
  // == stats::stddev_population_eq6 (0 below two samples).
  if (n >= 2) {
    const double m = dd_sum / dn;
    out.sigma = std::sqrt(std::max(0.0, dd_sum_sq / dn - m * m));
  }
  out.max_deadline_delay = dd_max;
  return out;
}

RiskAssessment assess_node(std::span<const RiskJobInput> jobs,
                           const RiskConfig& config, double speed_factor,
                           double available_capacity) {
  RiskWorkspace ws;
  const RiskAssessmentView view =
      assess_node(jobs, config, speed_factor, available_capacity, ws);
  RiskAssessment out;
  out.predicted_delay.assign(view.predicted_delay.begin(),
                             view.predicted_delay.end());
  out.deadline_delay.assign(view.deadline_delay.begin(),
                            view.deadline_delay.end());
  out.total_share = view.total_share;
  out.mu = view.mu;
  out.sigma = view.sigma;
  out.max_deadline_delay = view.max_deadline_delay;
  return out;
}

// ---- batched kernel (assess_nodes) ----------------------------------------

namespace {

// The admission candidate's contribution, appended after the residents' fold
// in every path — exactly the kNewJob iteration of the scalar fused loop.
struct CandidateTerms {
  double share = 0.0;
  double dd = 0.0;
};

CandidateTerms candidate_terms(double work, double deadline,
                               const RiskConfig& config, double speed_factor,
                               double available_capacity) noexcept {
  CandidateTerms t;
  t.share = cluster::required_share(work, deadline, config.deadline_clamp,
                                    speed_factor);
  double finish = 0.0;
  if (work > 0.0) {
    const double spare = std::max(available_capacity, 0.0);
    const double rate = std::min(std::min(t.share, spare), 1.0) * speed_factor;
    finish = rate > 0.0 ? work / rate : kStarvedFinish;
    finish = std::min(finish, kStarvedFinish);
  }
  const double delay = delay_from_finish_offset(work, deadline, finish);
  t.dd = deadline_delay_metric(delay, deadline, config.deadline_clamp);
  return t;
}

// Resident power sums of one node, strict order: the scalar fused loop's
// left-fold over the SoA spans, accumulator for accumulator.
ResidentRiskAggregates fold_residents(const NodeRiskInput& node,
                                      const RiskConfig& config) noexcept {
  ResidentRiskAggregates agg;
  const std::size_t n = node.remaining_work.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double share = cluster::required_share(node.remaining_work[i],
                                                 node.remaining_deadline[i],
                                                 config.deadline_clamp,
                                                 node.speed_factor);
    agg.fold(share, node.remaining_work[i], node.remaining_deadline[i],
             node.rate[i], config.deadline_clamp);
  }
  agg.computed = true;
  return agg;
}

}  // namespace

void assess_nodes(std::span<const NodeRiskInput> nodes, double candidate_work,
                  double candidate_deadline, const RiskConfig& config,
                  RiskWorkspace& workspace, std::span<NodeRiskVerdict> verdicts,
                  const AssessNodesOptions& options) {
  LIBRISK_CHECK(verdicts.size() >= nodes.size(),
                "verdict span shorter than node batch");
  LIBRISK_CHECK(candidate_work >= 0.0, "negative remaining work");
  const bool current_rate =
      config.prediction == RiskConfig::Prediction::CurrentRate;

  for (std::size_t v = 0; v < nodes.size(); ++v) {
    const NodeRiskInput& node = nodes[v];
    NodeRiskVerdict& verdict = verdicts[v];
    verdict = NodeRiskVerdict{};
    LIBRISK_CHECK(node.speed_factor > 0.0, "speed factor must be positive");
    // Computed aggregates stand in for the per-resident fold (CurrentRate
    // only) and carry the resident count, so such an input may come without
    // columns; any input that carries them must align them.
    const bool cached = current_rate && node.aggregates != nullptr &&
                        node.aggregates->computed;
    const std::size_t n_res =
        cached ? node.aggregates->count : node.remaining_work.size();
    if (!cached || !node.remaining_work.empty() ||
        !node.remaining_deadline.empty() || !node.rate.empty())
      LIBRISK_CHECK(node.remaining_work.size() == n_res &&
                        node.remaining_deadline.size() == n_res &&
                        node.rate.size() == n_res,
                    "SoA spans must be index-aligned");

    if (!current_rate) {
      // ProcessorSharing / ProportionalShare need the whole population at
      // once anyway: stage into the workspace and reuse the scalar kernel
      // (bit-identical by construction).
      workspace.inputs.clear();
      for (std::size_t i = 0; i < n_res; ++i)
        workspace.inputs.push_back(RiskJobInput{node.remaining_work[i],
                                                node.remaining_deadline[i],
                                                node.rate[i]});
      workspace.inputs.push_back(RiskJobInput{candidate_work,
                                              candidate_deadline,
                                              RiskJobInput::kNewJob});
      const RiskAssessmentView a =
          assess_node(workspace.inputs, config, node.speed_factor,
                      node.available_capacity, workspace);
      verdict.suitable = a.zero_risk(config);
      verdict.sigma = a.sigma;
      verdict.total_share = a.total_share;
      verdict.mu = a.mu;
      verdict.max_deadline_delay = a.max_deadline_delay;
      continue;
    }

    ResidentRiskAggregates folded;
    const ResidentRiskAggregates* agg = node.aggregates;
    if (!cached) {
      folded = fold_residents(node, config);
      agg = &folded;
    }
    verdict.aggregate_path = cached;

    // Batch-level early exit: the residents' dd spread alone can force
    // sigma past the threshold whatever the candidate adds.
    if (options.allow_bound_skip && n_res >= 2 &&
        sigma_bound_rejects(agg->dd_max, agg->dd_min, n_res + 1, config)) {
      verdict.bound_skipped = true;
      verdict.suitable = false;
      continue;
    }

    // Candidate terms appended last — the scalar loop's accumulation order.
    const CandidateTerms cand =
        candidate_terms(candidate_work, candidate_deadline, config,
                        node.speed_factor, node.available_capacity);
    const double total = agg->share_sum + cand.share;
    const double dd_sum = agg->dd_sum + cand.dd;
    const double dd_sum_sq = agg->dd_sum_sq + cand.dd * cand.dd;
    const double dd_max = std::max(agg->dd_max, cand.dd);
    const std::size_t n = n_res + 1;
    verdict.total_share = total;
    verdict.mu = dd_sum / static_cast<double>(n);
    verdict.sigma = sigma_from_sums(dd_sum, dd_sum_sq, n);
    verdict.max_deadline_delay = dd_max;
    verdict.suitable = zero_risk_test(verdict.sigma, config);
  }
}

}  // namespace librisk::core
