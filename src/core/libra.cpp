#include "core/libra.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"
#include "support/log.hpp"

namespace librisk::core {

LibraConfig LibraConfig::libra() {
  LibraConfig c;
  c.admission = Admission::TotalShare;
  c.selection = Selection::BestFit;
  c.estimate_kind = cluster::TimeSharedExecutor::EstimateKind::Raw;
  return c;
}

LibraConfig LibraConfig::libra_risk() {
  LibraConfig c;
  c.admission = Admission::ZeroRisk;
  c.selection = Selection::FirstFit;
  c.estimate_kind = cluster::TimeSharedExecutor::EstimateKind::Current;
  return c;
}

LibraScheduler::LibraScheduler(sim::Simulator& simulator,
                               cluster::TimeSharedExecutor& executor,
                               Collector& collector, LibraConfig config,
                               std::string name)
    : sim_(simulator),
      executor_(executor),
      collector_(collector),
      config_(config),
      name_(std::move(name)) {
  LIBRISK_CHECK(config_.capacity > 0.0, "node capacity must be positive");
  // The executor's cached risk aggregates reuse is sound only when the
  // admission test reads exactly what the executor folded: current-estimate
  // remaining work, CurrentRate completion prediction, and the same
  // deadline clamp on both sides (the factory guarantees clamp equality;
  // hand-built configs may not).
  use_aggregates_ =
      config_.admission == LibraConfig::Admission::ZeroRisk &&
      config_.risk.prediction == RiskConfig::Prediction::CurrentRate &&
      config_.estimate_kind ==
          cluster::TimeSharedExecutor::EstimateKind::Current &&
      config_.risk.deadline_clamp == executor_.config().deadline_clamp;
  // Both scans read aggregate-only views unless the ZeroRisk assessment
  // must fold the per-resident columns itself.
  if (config_.admission == LibraConfig::Admission::ZeroRisk) {
    scan_parts_ = use_aggregates_
                      ? (cluster::kStateCapacity | cluster::kStateRiskAggregates)
                      : (cluster::kStateCapacity | cluster::kStateColumns);
  } else {
    scan_parts_ =
        config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw
            ? cluster::kStateSharesRaw
            : cluster::kStateSharesCurrent;
  }
  executor_.set_completion_handler(
      [this](const Job& job, sim::SimTime finish) {
        if (response_hist_ != nullptr)
          response_hist_->record(finish - job.submit_time);
        collector_.record_completed(job, finish);
      });
  executor_.set_kill_handler([this](const Job& job, sim::SimTime when) {
    collector_.record_killed(job, when);
  });
}

double LibraScheduler::new_job_share(const Job& job, cluster::NodeId node) const {
  return cluster::required_share(job.scheduler_estimate, job.deadline,
                                 executor_.config().deadline_clamp,
                                 executor_.cluster().speed_factor(node));
}

trace::RejectionReason LibraScheduler::scan_reason() const noexcept {
  return config_.admission == LibraConfig::Admission::TotalShare
             ? trace::RejectionReason::ShareOverflow
             : trace::RejectionReason::RiskSigma;
}

bool LibraScheduler::node_suitable(cluster::NodeId node, const Job& job,
                                   double& fit, double* sigma_out) const {
  switch (config_.admission) {
    case LibraConfig::Admission::TotalShare: {
      const cluster::NodeStateView& state =
          executor_.node_state(node, scan_parts_);
      ++stats_.assessments;
      const double resident_total =
          config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw
              ? state.total_share_raw
              : state.total_share_current;
      const double total = resident_total + new_job_share(job, node);
      fit = total;
      if (sigma_out != nullptr) *sigma_out = -1.0;  // no sigma in Eq. 2
      return total <= config_.capacity + config_.tolerance;
    }
    case LibraConfig::Admission::ZeroRisk: {
      const cluster::NodeStateView& state =
          executor_.node_state(node, scan_parts_);
      // Empty-node fast path: the assessment would see a single job, whose
      // sigma (Eq. 6) is 0 by definition, so under the paper's sigma-only
      // rule the node is suitable and the fit key collapses to the new
      // job's own share — exactly what the full assessment returns.
      if (state.empty() && config_.risk.rule == RiskConfig::Rule::SigmaOnly &&
          0.0 <= config_.risk.sigma_threshold + config_.risk.tolerance) {
        ++stats_.empty_node_skips;
        // The assessment's total_share over [new job] alone, with the risk
        // config's own clamp (it can differ from the executor's).
        fit = cluster::required_share(job.scheduler_estimate, job.deadline,
                                      config_.risk.deadline_clamp,
                                      executor_.cluster().speed_factor(node));
        if (sigma_out != nullptr) *sigma_out = 0.0;
        return true;
      }
      ++stats_.assessments;
      ++stats_.batched_assessments;
      const bool raw =
          config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw;
      // Batch of one through the SoA kernel (the scan path batches wider;
      // this keeps introspection and the scan on the same arithmetic).
      NodeRiskInput input;
      input.remaining_work = raw ? state.remaining_raw : state.remaining_current;
      input.remaining_deadline = state.remaining_deadline;
      input.rate = state.rate;
      input.speed_factor = executor_.cluster().speed_factor(node);
      input.available_capacity = state.available_capacity;
      if (use_aggregates_) input.aggregates = &state.risk_current;
      NodeRiskVerdict verdict;
      assess_nodes({&input, 1}, job.scheduler_estimate, job.deadline,
                   config_.risk, workspace_, {&verdict, 1});
      fit = verdict.total_share;
      if (sigma_out != nullptr) *sigma_out = verdict.sigma;
      return verdict.suitable;
    }
  }
  return false;
}

void LibraScheduler::select_prefix(int count) {
  // (fit, node id) is a strict total order, so the unstable partial
  // selection below is deterministic: equal fits go to the lower node id.
  const auto best = [](const Candidate& a, const Candidate& b) {
    return a.fit != b.fit ? a.fit > b.fit : a.node < b.node;
  };
  const auto worst = [](const Candidate& a, const Candidate& b) {
    return a.fit != b.fit ? a.fit < b.fit : a.node < b.node;
  };
  const auto by_node = [](const Candidate& a, const Candidate& b) {
    return a.node < b.node;
  };
  switch (config_.selection) {
    case LibraConfig::Selection::FirstFit:
      if (config_.admission == LibraConfig::Admission::ZeroRisk)
        return;  // the scan stopped at count suitable nodes, in node order
      if (static_cast<std::size_t>(count) < suitable_.size())
        std::nth_element(suitable_.begin(), suitable_.begin() + count,
                         suitable_.end(), by_node);
      std::sort(suitable_.begin(), suitable_.begin() + count, by_node);
      return;
    case LibraConfig::Selection::BestFit:
      if (static_cast<std::size_t>(count) < suitable_.size())
        std::nth_element(suitable_.begin(), suitable_.begin() + count,
                         suitable_.end(), best);
      std::sort(suitable_.begin(), suitable_.begin() + count, best);
      return;
    case LibraConfig::Selection::WorstFit:
      if (static_cast<std::size_t>(count) < suitable_.size())
        std::nth_element(suitable_.begin(), suitable_.begin() + count,
                         suitable_.end(), worst);
      std::sort(suitable_.begin(), suitable_.begin() + count, worst);
      return;
  }
}

void LibraScheduler::on_telemetry(obs::Telemetry& telemetry) {
  obs::Registry& reg = telemetry.registry();
  reg.counter_fn("admission_submissions", "jobs offered to the admission test",
                 [this] { return stats_.submissions; });
  reg.counter_fn("admission_accepted", "jobs accepted",
                 [this] { return stats_.accepted; });
  reg.counter_fn("admission_rejections", "jobs rejected",
                 [this] { return stats_.rejections; });
  reg.counter_fn("admission_nodes_scanned", "nodes examined for suitability",
                 [this] { return stats_.nodes_scanned; });
  reg.counter_fn("admission_assessments", "full share/risk evaluations run",
                 [this] { return stats_.assessments; });
  reg.counter_fn("admission_empty_node_skips",
                 "idle nodes decided without reading their view",
                 [this] { return stats_.empty_node_skips; });
  reg.counter_fn("admission_early_exits",
                 "FirstFit scans stopped before the last node",
                 [this] { return stats_.early_exits; });
  reg.counter_fn("admission_batched_assessments",
                 "assessments served by the batched risk kernel",
                 [this] { return stats_.batched_assessments; });
  reg.counter_fn("admission_nodes_batch_skipped",
                 "nodes rejected by the batch sigma-spread bound",
                 [this] { return stats_.nodes_batch_skipped; });
  reg.counter_fn("admission_rejected_share_overflow",
                 "rejections: Eq. 2 total-share shortfall",
                 [this] { return stats_.rejected_share_overflow; });
  reg.counter_fn("admission_rejected_risk_sigma",
                 "rejections: sigma-test shortfall",
                 [this] { return stats_.rejected_risk_sigma; });
  reg.counter_fn("admission_rejected_no_suitable_node",
                 "rejections: needs more nodes than the cluster has",
                 [this] { return stats_.rejected_no_suitable_node; });
  reg.counter_fn("admission_near_miss_5pct",
                 "rejections within 5% margin of the decisive test",
                 [this] { return stats_.near_miss_5(); });
  reg.counter_fn("admission_near_miss_10pct",
                 "rejections within 10% margin of the decisive test",
                 [this] { return stats_.near_miss_10(); });

  obs::HistogramConfig scan_cfg;
  scan_cfg.min_value = 1.0;
  scan_cfg.max_value = 1e6;
  scan_nodes_hist_ = &reg.histogram("admission_scan_nodes",
                                    "nodes scanned per submission", scan_cfg);
  response_hist_ = &reg.histogram("job_response_seconds",
                                  "submission-to-completion sim seconds");

  obs::Series& admission = telemetry.add_series(
      "admission",
      {"time", "submissions", "accepted", "rejections",
       "rejected_share_overflow", "rejected_risk_sigma",
       "rejected_no_suitable_node", "accept_rate"});
  telemetry.add_sampler([this, &admission](sim::SimTime now) {
    const double subs = static_cast<double>(stats_.submissions);
    admission.append(
        {now, subs, static_cast<double>(stats_.accepted),
         static_cast<double>(stats_.rejections),
         static_cast<double>(stats_.rejected_share_overflow),
         static_cast<double>(stats_.rejected_risk_sigma),
         static_cast<double>(stats_.rejected_no_suitable_node),
         subs > 0.0 ? static_cast<double>(stats_.accepted) / subs : 0.0});
  });

  obs::Series& nodes = telemetry.add_series(
      "nodes", {"time", "node", "residents", "share_raw", "share_current",
                "utilization", "sigma"});
  telemetry.add_sampler(
      [this, &nodes](sim::SimTime now) { sample_nodes(nodes, now); });
}

void LibraScheduler::sample_nodes(obs::Series& series, sim::SimTime now) const {
  // Pre-event observation: node_state() reads anchored lazy work at `now`
  // without settling, so sampling mutates nothing the decisions depend on
  // (the byte-identical-trace test pins this down). Sigma is the paper's
  // Eq. 6 delay deviation over the node's residents as currently known —
  // *tentative* in the sense that no new job is added.
  const int cluster_size = executor_.cluster().size();
  const bool raw =
      config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw;
  for (cluster::NodeId n = 0; n < cluster_size; ++n) {
    const cluster::NodeStateView& state = executor_.node_state(n);
    double sigma = 0.0;
    if (!state.empty()) {
      if (use_aggregates_ && state.risk_current.computed) {
        // The executor's fold is the same left-fold over the same resident
        // terms the scalar assessment would run, so the closed-form σ over
        // its power sums is bitwise the assessment's σ.
        sigma = sigma_from_sums(state.risk_current.dd_sum,
                                state.risk_current.dd_sum_sq, state.count());
      } else {
        workspace_.inputs.clear();
        for (std::size_t i = 0; i < state.count(); ++i)
          workspace_.inputs.push_back(RiskJobInput{
              raw ? state.remaining_raw[i] : state.remaining_current[i],
              state.remaining_deadline[i], state.rate[i]});
        const RiskAssessmentView assessment = assess_node(
            workspace_.inputs, config_.risk,
            executor_.cluster().speed_factor(n), state.available_capacity,
            workspace_);
        sigma = assessment.sigma;
      }
    }
    series.append({now, static_cast<double>(n),
                   static_cast<double>(state.count()), state.total_share_raw,
                   state.total_share_current,
                   std::min(1.0, state.total_share_current), sigma});
  }
}

double LibraScheduler::reject_job_margin(const Job& job, int suitable_count) {
  // Rebuild the failing-node deficits from the scan's per-node metrics. A
  // node failed its decisive test iff the metric exceeds the configured
  // tolerance band — the same comparison the scan ran — and an
  // unquantifiable shortfall (bound-skipped sigma, stored as +inf, or a
  // delay failure whose sigma passed) contributes no finite deficit, so
  // the near-miss counters undercount, never over.
  const bool share = config_.admission == LibraConfig::Admission::TotalShare;
  const double floor = share ? config_.capacity : config_.risk.sigma_threshold;
  const double tol = share ? config_.tolerance : config_.risk.tolerance;
  // The smallest per-node improvement that would have admitted the job:
  // it needed k = num_procs - suitable more suitable nodes, so the k-th
  // smallest failing-node deficit is decisive. nth_element scrambles
  // fail_deficit_, which is dead after this call.
  const int k = job.num_procs - suitable_count;
  fail_deficit_.clear();
  // A class contributes its deficit once per member, but copies beyond the
  // k-th cannot move the k-th smallest. A bound-skipped class's shortfall
  // is unquantifiable (+inf).
  for (const cluster::TimeSharedExecutor::ClassId c : scanned_) {
    const ClassVerdict& v = class_verdict_[c];
    const double metric = share              ? v.fit
                          : v.bound_skipped ? std::numeric_limits<double>::infinity()
                                            : v.sigma;
    const double d = metric - floor;
    if (d > tol)
      fail_deficit_.insert(fail_deficit_.end(),
                           static_cast<std::size_t>(
                               std::min(executor_.class_size(c), k)),
                           d);
  }
  double deficit = std::numeric_limits<double>::infinity();
  if (k >= 1 && static_cast<int>(fail_deficit_.size()) >= k) {
    std::nth_element(fail_deficit_.begin(), fail_deficit_.begin() + (k - 1),
                     fail_deficit_.end());
    deficit = fail_deficit_[static_cast<std::size_t>(k) - 1];
  }
  const double scale =
      share ? config_.capacity : std::max(config_.risk.sigma_threshold, 1.0);
  if (deficit <= 0.05 * scale)
    ++(share ? stats_.near_miss_share_5 : stats_.near_miss_sigma_5);
  if (deficit <= 0.10 * scale)
    ++(share ? stats_.near_miss_share_10 : stats_.near_miss_sigma_10);
  // A rejection's quantified deficit is strictly positive (it exceeded the
  // tolerance), so 0.0 unambiguously means "no margin computed".
  return std::isfinite(deficit) ? -deficit : 0.0;
}

void LibraScheduler::on_job_submitted(const Job& job) {
  obs::ScopedPhase phase(profiler_, obs::Phase::Admission);
  submit(job);
}

void LibraScheduler::submit(const Job& job) {
  const sim::SimTime now = sim_.now();
  ++stats_.submissions;
  const int cluster_size = executor_.cluster().size();
  if (job.num_procs > cluster_size) {
    ++stats_.rejections;
    ++stats_.rejected_no_suitable_node;
    collector_.record_rejected(job, now, /*at_dispatch=*/false,
                               trace::RejectionReason::NoSuitableNode);
    if (trace_ != nullptr)
      trace_->job_rejected(now, job.id, trace::RejectionReason::NoSuitableNode,
                           0, job.num_procs);
    return;
  }
  executor_.sync();

  suitable_.clear();
  scanned_.clear();
  if (class_verdict_.size() < executor_.class_count())
    class_verdict_.resize(executor_.class_count());
  if (suitable_.capacity() < static_cast<std::size_t>(cluster_size))
    suitable_.reserve(cluster_size);
  const bool tracing = trace_ != nullptr && trace_->enabled();
  const bool total_share =
      config_.admission == LibraConfig::Admission::TotalShare;
  const std::uint64_t scanned_before = stats_.nodes_scanned;
  int suitable = 0;
  if (total_share) {
    suitable = scan_total_share(job);
  } else {
    // FirstFit takes suitable nodes in node order, so the scan can stop at
    // num_procs hits: acceptance and the chosen sequence are already
    // decided, and a rejection (< num_procs suitable anywhere) still scans
    // everything.
    scan_zero_risk_batched(job, now, tracing,
                           config_.selection == LibraConfig::Selection::FirstFit);
    suitable = static_cast<int>(suitable_.size());
  }
  const bool accepted = suitable >= job.num_procs;
  if (accepted) select_prefix(job.num_procs);
  if (total_share) cover_total_share(job, now, tracing, accepted);
  if (scan_nodes_hist_ != nullptr)
    scan_nodes_hist_->record(
        static_cast<double>(stats_.nodes_scanned - scanned_before));

  if (!accepted) {
    ++stats_.rejections;
    if (total_share)
      ++stats_.rejected_share_overflow;
    else
      ++stats_.rejected_risk_sigma;
    const double margin = reject_job_margin(job, suitable);
    collector_.record_rejected(job, now, /*at_dispatch=*/false, scan_reason());
    if (trace_ != nullptr)
      trace_->job_rejected(now, job.id, scan_reason(), suitable, job.num_procs,
                           margin);
    LIBRISK_LOG(Debug) << name_ << ": rejected job " << job.id << " ("
                       << suitable << '/' << job.num_procs
                       << " suitable nodes)";
    return;
  }

  std::vector<cluster::NodeId> chosen;
  chosen.reserve(job.num_procs);
  double slowest = sim::kTimeInfinity;
  for (int i = 0; i < job.num_procs; ++i) {
    chosen.push_back(suitable_[i].node);
    slowest = std::min(slowest, executor_.cluster().speed_factor(suitable_[i].node));
  }
  ++stats_.accepted;
  const double margin = node_margin(suitable_[0].fit, suitable_[0].sigma);
  note_decision(job.id, suitable_[0].node, suitable_[0].sigma, margin);
  // A FirstFit decision stops at its num_procs-th suitable node, so that is
  // the suitable count it saw.
  if (trace_ != nullptr)
    trace_->job_admitted(
        now, job.id, suitable_[0].node,
        config_.selection == LibraConfig::Selection::FirstFit ? job.num_procs
                                                              : suitable,
        suitable_[0].fit, margin);
  collector_.record_started(job, now, job.actual_runtime / slowest);
  executor_.start(job, std::move(chosen));
}

int LibraScheduler::scan_total_share(const Job& job) {
  const bool raw =
      config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw;
  const double limit = config_.capacity + config_.tolerance;
  const std::uint64_t submission = stats_.submissions;
  // new_job_share depends on the node only through its speed: one division
  // per run of classes of one speed serves all their nodes.
  double share_speed = 0.0;
  double share = 0.0;
  const auto share_at = [&](double speed) {
    if (speed != share_speed) {
      share_speed = speed;
      share = cluster::required_share(job.scheduler_estimate, job.deadline,
                                      executor_.config().deadline_clamp, speed);
    }
    return share;
  };
  int suitable = 0;
  for (const cluster::NodeId n : executor_.occupied_nodes()) {
    const cluster::TimeSharedExecutor::ClassId c = executor_.node_class(n);
    ClassVerdict& v = class_verdict_[c];
    if (v.submission != submission) {
      const cluster::NodeStateView& state = executor_.node_state(n, scan_parts_);
      v.submission = submission;
      v.fit = (raw ? state.total_share_raw : state.total_share_current) +
              share_at(executor_.class_speed(c));
      v.suitable = v.fit <= limit;
      v.offer = 0;
      scanned_.push_back(c);
    }
    if (v.suitable) {
      suitable_.push_back(Candidate{n, v.fit, -1.0});
      ++suitable;
    }
  }
  // Every idle node of a suitable speed is suitable, but only the empty
  // class's num_procs lowest-id members can be chosen: any other one has
  // num_procs rivals with the same fit and lower ids, which precede it in
  // the (fit, id) order and in node order alike.
  int offers = 0;
  for (const cluster::TimeSharedExecutor::ClassId c : executor_.empty_classes()) {
    ClassVerdict& v = class_verdict_[c];
    const int idle = executor_.class_size(c);
    v.submission = submission;
    v.fit = 0.0 + share_at(executor_.class_speed(c));  // an empty view's total is 0.0
    v.suitable = v.fit <= limit;
    v.offer = v.suitable ? std::min(idle, job.num_procs) : 0;
    if (idle > 0) scanned_.push_back(c);
    if (v.suitable) suitable += idle;
    offers += v.offer;
  }
  for (cluster::NodeId n = 0; offers > 0; ++n) {
    ClassVerdict& v =
        class_verdict_[executor_.node_class(n)];
    if (v.offer == 0) continue;
    suitable_.push_back(Candidate{n, v.fit, -1.0});
    --v.offer;
    --offers;
  }
  return suitable;
}

void LibraScheduler::cover_total_share(const Job& job, sim::SimTime now,
                                       bool tracing, bool accepted) {
  const int cluster_size = executor_.cluster().size();
  const std::span<const cluster::NodeId> occupied = executor_.occupied_nodes();
  int covered = cluster_size;
  auto assessed = static_cast<std::uint64_t>(occupied.size());
  if (accepted && config_.selection == LibraConfig::Selection::FirstFit) {
    // select_prefix put the chosen nodes in node order.
    covered = suitable_[static_cast<std::size_t>(job.num_procs) - 1].node + 1;
    assessed = static_cast<std::uint64_t>(std::ranges::count_if(
        occupied, [covered](cluster::NodeId n) { return n < covered; }));
  }
  stats_.nodes_scanned += static_cast<std::uint64_t>(covered);
  stats_.assessments += assessed;
  stats_.empty_node_skips += static_cast<std::uint64_t>(covered) - assessed;
  if (covered < cluster_size) ++stats_.early_exits;
  if (!tracing) return;
  const double limit = config_.capacity + config_.tolerance;
  for (cluster::NodeId n = 0; n < covered; ++n) {
    const double fit =
        class_verdict_[executor_.node_class(n)].fit;
    trace_->node_evaluated(
        now, job.id, n,
        fit <= limit ? trace::RejectionReason::None : scan_reason(),
        /*sigma=*/-1.0, fit, config_.capacity - fit);  // Eq. 2 headroom
  }
}

namespace {
/// Adaptive batch sizing for the ZeroRisk scan: start small so a FirstFit
/// hit in the cluster's head discards little speculative work, then double
/// toward the sweet spot for long rejection scans.
constexpr std::size_t kBatchChunkMin = 4;
constexpr std::size_t kBatchChunkMax = 64;
}  // namespace

void LibraScheduler::scan_zero_risk_batched(const Job& job, sim::SimTime now,
                                            bool tracing, bool can_stop_early) {
  const int cluster_size = executor_.cluster().size();
  const bool raw =
      config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw;
  // node_suitable's empty-node fast-path condition, hoisted: under it an
  // empty node's verdict counts as a skip, not an assessment.
  const bool empty_fast =
      config_.risk.rule == RiskConfig::Rule::SigmaOnly &&
      0.0 <= config_.risk.sigma_threshold + config_.risk.tolerance;
  AssessNodesOptions options;
  // The σ-spread bound rejects without computing the exact σ the
  // node_evaluated event must carry, so it only arms when no trace sink is
  // attached (decisions are identical either way — the bound is
  // conservative).
  options.allow_bound_skip = !tracing;

  const std::uint64_t submission = stats_.submissions;
  std::size_t chunk = kBatchChunkMin;
  int next = 0;
  while (next < cluster_size) {
    const int end =
        std::min(next + static_cast<int>(chunk), cluster_size);
    // Queue each class the chunk meets for the first time this submission:
    // its members share the one verdict.
    batch_inputs_.clear();
    const std::size_t first = scanned_.size();
    for (int n = next; n < end; ++n) {
      const cluster::TimeSharedExecutor::ClassId c = executor_.node_class(n);
      ClassVerdict& v = class_verdict_[c];
      if (v.submission == submission) continue;
      v.submission = submission;
      const cluster::NodeStateView& state =
          executor_.node_state(n, scan_parts_);
      v.empty = state.empty();
      NodeRiskInput input;
      input.remaining_work =
          raw ? state.remaining_raw : state.remaining_current;
      input.remaining_deadline = state.remaining_deadline;
      input.rate = state.rate;
      input.speed_factor = executor_.class_speed(c);
      input.available_capacity = state.available_capacity;
      if (use_aggregates_) input.aggregates = &state.risk_current;
      batch_inputs_.push_back(input);
      scanned_.push_back(c);
    }
    batch_verdicts_.resize(batch_inputs_.size());
    assess_nodes(batch_inputs_, job.scheduler_estimate, job.deadline,
                 config_.risk, workspace_, batch_verdicts_, options);
    for (std::size_t i = 0; i < batch_verdicts_.size(); ++i) {
      const NodeRiskVerdict& verdict = batch_verdicts_[i];
      ClassVerdict& v = class_verdict_[scanned_[first + i]];
      v.suitable = verdict.suitable;
      v.bound_skipped = verdict.bound_skipped;
      v.fit = verdict.total_share;
      v.sigma = verdict.sigma;
    }

    // Consume verdicts in node order; counters and trace events fire per
    // consumed node only, so a FirstFit stop mid-batch leaves the rest of
    // the batch uncounted — exactly as if the scalar scan never got there.
    for (int n = next; n < end; ++n) {
      const ClassVerdict& v =
          class_verdict_[executor_.node_class(n)];
      ++stats_.nodes_scanned;
      if (v.empty && empty_fast)
        ++stats_.empty_node_skips;
      else if (v.bound_skipped)
        ++stats_.nodes_batch_skipped;
      else {
        ++stats_.assessments;
        ++stats_.batched_assessments;
      }
      if (tracing)
        trace_->node_evaluated(
            now, job.id, n,
            v.suitable ? trace::RejectionReason::None : scan_reason(),
            v.sigma, v.fit, config_.risk.sigma_threshold - v.sigma);
      if (v.suitable) {
        suitable_.push_back(Candidate{n, v.fit, v.sigma});
        if (can_stop_early &&
            static_cast<int>(suitable_.size()) == job.num_procs) {
          if (n + 1 < cluster_size) ++stats_.early_exits;
          return;
        }
      }
    }
    next = end;
    chunk = std::min(chunk * 2, kBatchChunkMax);
  }
}

}  // namespace librisk::core
