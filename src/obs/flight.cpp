#include "obs/flight.hpp"

#include <sstream>

#include "support/table.hpp"

namespace librisk::obs {

const char* to_string(FlightVerdict verdict) noexcept {
  switch (verdict) {
    case FlightVerdict::Accepted: return "accepted";
    case FlightVerdict::Queued: return "queued";
    case FlightVerdict::Rejected: return "rejected";
    case FlightVerdict::Shed: return "shed";
    case FlightVerdict::DegradedAdmit: return "degraded_admit";
  }
  return "?";
}

FlightRecorder::FlightRecorder(FlightConfig config)
    : config_(config),
      queue_wait_(config_.latency),
      decide_(config_.latency) {
  ring_.reserve(config_.capacity);
}

void FlightRecorder::record(const FlightEntry& entry) {
  if (config_.capacity == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  queue_wait_.record(entry.queue_wait);
  decide_.record(entry.decide_latency);
  if (ring_.size() < config_.capacity) {
    ring_.push_back(entry);
    return;
  }
  ring_[next_] = entry;
  next_ = (next_ + 1) % config_.capacity;
}

std::vector<FlightEntry> FlightRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlightEntry> out;
  out.reserve(ring_.size());
  // Before the first wrap next_ is 0 and the ring is already oldest-first;
  // after it, the oldest entry is at next_.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

Histogram FlightRecorder::queue_wait_histogram() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_wait_;
}

Histogram FlightRecorder::decide_histogram() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return decide_;
}

std::string FlightRecorder::dump() const {
  // Copy out under the lock, render outside it.
  const std::vector<FlightEntry> entries = snapshot();
  Histogram waits = queue_wait_histogram();
  Histogram decides = decide_histogram();
  std::uint64_t total = recorded();

  std::ostringstream os;
  os << "flight recorder: last " << entries.size() << " of " << total
     << " decisions\n";
  if (waits.count() > 0)
    os << "  queue-wait  p50 " << table::num(waits.quantile(50.0) * 1e6, 1)
       << " us  p99 " << table::num(waits.quantile(99.0) * 1e6, 1)
       << " us  max " << table::num(waits.max() * 1e6, 1) << " us\n";
  if (decides.count() > 0)
    os << "  decide      p50 " << table::num(decides.quantile(50.0) * 1e6, 1)
       << " us  p99 " << table::num(decides.quantile(99.0) * 1e6, 1)
       << " us  max " << table::num(decides.max() * 1e6, 1) << " us\n";
  if (entries.empty()) return os.str();

  table::Table t({"job", "verdict", "reason", "node", "sigma", "margin",
                  "sim_t", "wait_us", "decide_us"});
  for (const FlightEntry& e : entries) {
    t.add_row({std::to_string(e.job_id), to_string(e.verdict),
               e.reason == trace::RejectionReason::None
                   ? "-"
                   : std::string(trace::to_string(e.reason)),
               std::to_string(e.node),
               e.sigma >= 0.0 ? table::num(e.sigma, 4) : "-",
               table::num(e.margin, 4), table::num(e.sim_time, 2),
               table::num(e.queue_wait * 1e6, 1),
               table::num(e.decide_latency * 1e6, 1)});
  }
  os << t.str();
  return os.str();
}

void FlightRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  queue_wait_ = Histogram(config_.latency);
  decide_ = Histogram(config_.latency);
}

}  // namespace librisk::obs
