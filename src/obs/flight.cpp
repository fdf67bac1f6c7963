#include "obs/flight.hpp"

namespace librisk::obs {

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

void FlightRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  queue_wait_ = Histogram(config_.latency);
  decide_ = Histogram(config_.latency);
}

}  // namespace librisk::obs
