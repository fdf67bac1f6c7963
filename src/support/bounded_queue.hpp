// Bounded multi-producer, single-consumer queue with blocking push/pop,
// used as the handoff between the gateway's submitter threads and its
// single drive thread.
//
// A mutex-guarded ring whose waits are arranged so that a steady stream
// makes no system call on either side:
//
//   * Spin, then park. A consumer that finds the queue empty first spins
//     for up to kSpinBound on an atomic mirror of the occupancy and the
//     closed flag, touching nothing under the lock. Only if nothing
//     arrives does it take the mutex, record `consumer_parked_` and wait
//     on `not_empty_`. push() notifies only when that flag is set, so
//     while the consumer is busy or spinning a push is a short critical
//     section and no futex wake. No wake-up is lost: the flag, the
//     emptiness check and the item all live under the mutex, and the wait
//     releases it atomically, so a push either lands before the consumer's
//     check (which then sees the item and does not park) or after the
//     consumer is registered as a waiter (and the pusher sees the flag).
//     With one usable CPU a spin could only steal the producer's time
//     slice, so the consumer then parks at once.
//   * Low-water backpressure. A producer that finds the queue full records
//     `producers_blocked_` and waits for the consumer to drain the queue
//     to capacity / kLowWaterDivisor. The consumer wakes every blocked
//     producer once, when it crosses that mark, not on every pop; a woken
//     producer that finds the queue refilled blocks for the next crossing.
//
// Deliberately not lock-free: the lock-free stage of the gateway is the
// certificate gate, which runs *before* a job reaches this queue and reads
// no aggregate state. By the time a job is enqueued it has survived the
// cheap shed test, and the bound is doing its real work (backpressure on
// producers so an engine running slower than the submit rate cannot grow
// memory without limit).
// The payload still changes hands under the mutex (release/acquire); the
// atomics are only hints that tell a spinning consumer when to take it.
// docs/CONCURRENCY.md §1 prices the spin; bench/e2e gateway-open and
// bench/throughput_gateway measure the whole pipeline.
//
// close() wakes everyone: producers get `false` from push (the run is
// over), the consumer drains what is left and then gets `false` from pop;
// a spinning consumer sees the closed flag within one spin iteration.
#pragma once

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace librisk::support {

/// CPUs this process may run on: its affinity mask where the platform has
/// one (so `taskset -c 0` counts as one), else the hardware thread count.
inline unsigned usable_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace detail {

/// One spin-wait hint to the core; a no-op where the architecture has none.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

}  // namespace detail

template <typename T>
class BoundedQueue {
 public:
  /// How long pop() spins on an empty queue before parking. The spin only
  /// pays when it outlasts the idle gap it is meant to hide: at 10 k jobs/s
  /// the gateway's drive thread idles ~83 µs between decisions, and a
  /// 50 µs spin left the queue wait where parking had it; 200 µs keeps a
  /// 2x margin there. The cost is CPU: a consumer fed faster than once per
  /// kSpinBound never parks. (EXPERIMENTS.md "Gateway handoff" has the
  /// sweep.)
  static constexpr std::chrono::microseconds kSpinBound{200};
  /// Producers blocked on a full queue resume once it has drained to
  /// capacity / kLowWaterDivisor.
  static constexpr std::size_t kLowWaterDivisor = 2;

  explicit BoundedQueue(std::size_t capacity)
      : ring_(capacity),
        low_water_(capacity / kLowWaterDivisor),
        spin_(usable_cpus() > 1) {
    LIBRISK_CHECK(capacity > 0, "queue capacity must be positive");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full (until the consumer drains to the low-water mark).
  /// Returns false (and drops `value`) iff the queue was closed — the
  /// element is NOT enqueued then.
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (size_ == ring_.size() && !closed_.load(std::memory_order_relaxed)) {
      producers_blocked_ = true;
      not_full_.wait(lock, [this] {
        return !producers_blocked_ || closed_.load(std::memory_order_relaxed);
      });
    }
    if (closed_.load(std::memory_order_relaxed)) return false;
    ring_[(head_ + size_) % ring_.size()] = std::move(value);
    ++size_;
    occupancy_.store(size_, std::memory_order_relaxed);
    high_water_ = std::max(high_water_, size_);
    const bool wake = std::exchange(consumer_parked_, false);
    lock.unlock();
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty (spinning first, then parked). Returns false iff
  /// the queue is closed AND drained — elements pushed before close() are
  /// always delivered.
  bool pop(T& out) {
    if (spin_ && occupancy_.load(std::memory_order_relaxed) == 0)
      spin_while_empty();
    std::unique_lock<std::mutex> lock(mutex_);
    while (size_ == 0 && !closed_.load(std::memory_order_relaxed)) {
      consumer_parked_ = true;
      not_empty_.wait(lock);
    }
    consumer_parked_ = false;
    if (size_ == 0) return false;  // closed and drained
    out = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --size_;
    occupancy_.store(size_, std::memory_order_relaxed);
    const bool wake = producers_blocked_ && size_ <= low_water_;
    if (wake) producers_blocked_ = false;
    lock.unlock();
    if (wake) not_full_.notify_all();
    return true;
  }

  /// Ends the stream: all blocked and future pushes fail, pops drain the
  /// remainder then fail. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_.store(true, std::memory_order_relaxed);
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return occupancy_.load(std::memory_order_relaxed);
  }
  /// Peak occupancy since construction (backpressure diagnostics).
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_relaxed);
  }

 private:
  /// Returns once an item or the close is visible, or kSpinBound has gone.
  void spin_while_empty() const noexcept {
    const auto give_up = std::chrono::steady_clock::now() + kSpinBound;
    while (occupancy_.load(std::memory_order_relaxed) == 0 &&
           !closed_.load(std::memory_order_relaxed)) {
      if (std::chrono::steady_clock::now() >= give_up) return;
      detail::cpu_relax();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  // Under mutex_:
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
  bool consumer_parked_ = false;    ///< the consumer waits on not_empty_
  bool producers_blocked_ = false;  ///< some producer waits on not_full_
  // Written under mutex_, read anywhere (the spin's and accessors' hints):
  std::atomic<std::size_t> occupancy_{0};  ///< mirrors size_
  std::atomic<bool> closed_{false};
  const std::size_t low_water_;
  const bool spin_;  ///< false when the process can use only one CPU
};

}  // namespace librisk::support
