#include "obs/explain.hpp"

#include <algorithm>
#include <sstream>

#include "support/table.hpp"

namespace librisk::obs {

ExplainRecorder::ExplainRecorder(ExplainConfig config) : config_(config) {}

void ExplainRecorder::write(const trace::Event& e) {
  switch (e.kind) {
    case trace::EventKind::JobSubmitted: {
      if (config_.capacity == 0 ||
          (config_.only_job >= 0 && e.job != config_.only_job))
        return;  // never retained: the decision only counts
      DecisionExplain& d = pending_[e.job];
      d = DecisionExplain{};
      d.job_id = e.job;
      d.num_procs = e.node;  // JobSubmitted stores num_procs in `node`
      d.deadline = e.a;
      d.estimate = e.b;
      return;
    }
    case trace::EventKind::NodeEvaluated: {
      const NodeMargin m{e.node, e.reason == trace::RejectionReason::None,
                         e.reason, e.a, e.b, e.margin};
      // Extremes fold every sigma evaluation, retained or not: the
      // stability interval must certify the complete verdict sequence.
      if (m.sigma >= 0.0) {
        if (m.suitable) {
          extremes_.pass_max = std::max(extremes_.pass_max, m.sigma);
          ++extremes_.passes;
        } else if (m.test == trace::RejectionReason::RiskSigma) {
          extremes_.fail_min = std::min(extremes_.fail_min, m.sigma);
          ++extremes_.fails;
        }
      }
      const auto it = pending_.find(e.job);
      if (it != pending_.end()) it->second.nodes.push_back(m);
      return;
    }
    case trace::EventKind::JobAdmitted:
    case trace::EventKind::JobRejected:
      decide(e);
      return;
    case trace::EventKind::JobStarted:
      pending_.erase(e.job);
      return;
    default:
      return;  // lifecycle events past the decision carry no margin context
  }
}

void ExplainRecorder::decide(const trace::Event& e) {
  ++recorded_;
  const bool accepted = e.kind == trace::EventKind::JobAdmitted;
  auto pending = pending_.extract(e.job);
  if (pending.empty() || (config_.only_rejections && accepted)) {
    ++dropped_;
    return;
  }
  DecisionExplain& d = pending.mapped();
  d.time = e.time;
  d.suitable = static_cast<int>(e.a);
  d.margin = e.margin;
  if (accepted) {
    d.verdict = trace::Verdict::Accepted;
    d.node = e.node;
    for (const NodeMargin& m : d.nodes)
      if (m.node == d.node) d.sigma = m.sigma;
  } else {
    d.verdict = trace::Verdict::Rejected;
    d.reason = e.reason;
  }
  if (!config_.keep_nodes) d.nodes = {};
  ring_.push_back(std::move(d));
  while (ring_.size() > config_.capacity) {
    ring_.pop_front();
    ++dropped_;
  }
}

const DecisionExplain* ExplainRecorder::find(std::int64_t job_id) const noexcept {
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it)
    if (it->job_id == job_id) return &*it;
  return nullptr;
}

void ExplainRecorder::clear() {
  ring_.clear();
  pending_.clear();
  extremes_ = SigmaExtremes{};
  recorded_ = 0;
  dropped_ = 0;
}

double required_improvement(const DecisionExplain& d) noexcept {
  return d.accepted() ? 0.0 : std::max(0.0, -d.margin);
}

std::string describe(const DecisionExplain& d) {
  std::ostringstream os;
  os << "job " << d.job_id << " @ t=" << d.time << "  (procs=" << d.num_procs
     << ", deadline=" << d.deadline << ", estimate=" << d.estimate << ")\n";
  if (d.accepted()) {
    os << "  ACCEPTED on node " << d.node << " (" << d.suitable
       << " suitable node(s); chosen-node margin " << d.margin << ")\n";
  } else {
    os << "  REJECTED: " << trace::to_string(d.reason) << " (" << d.suitable
       << '/' << d.num_procs << " suitable nodes; job margin " << d.margin
       << ")\n";
    const double need = required_improvement(d);
    if (need > 0.0)
      os << "  to admit: the decisive test needed " << need
         << " more headroom on " << (d.num_procs - d.suitable)
         << " more node(s)\n";
  }
  if (!d.nodes.empty()) {
    table::Table t({"node", "verdict", "test", "sigma", "share", "margin"});
    for (const NodeMargin& m : d.nodes) {
      t.add_row({std::to_string(m.node), m.suitable ? "ok" : "fail",
                 m.suitable ? "-" : std::string(trace::to_string(m.test)),
                 m.sigma >= 0.0 ? table::num(m.sigma, 4) : "-",
                 m.share >= 0.0 ? table::num(m.share, 4) : "-",
                 table::num(m.margin, 4)});
    }
    os << t.str();
  }
  return os.str();
}

}  // namespace librisk::obs
