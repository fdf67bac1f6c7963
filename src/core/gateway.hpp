// Concurrent admission gateway: a thread-safe multi-producer frontend for
// the single-threaded AdmissionEngine.
//
// N submitter threads call submit() concurrently. Each job passes through
// two stages:
//
//   1. Lock-free fast reject. A handful of pure reads decides whether the
//      job is *certifiably* hopeless — a certificate being a predicate,
//      derived from the policy's own admission test, that is monotone in
//      everything the engine's state can change, so "no now" implies "no
//      whenever the engine gets to it" (docs/CONCURRENCY.md states the
//      lemma; tests/test_gateway.cpp proves it differentially):
//        C1 (every policy)  num_procs > cluster size;
//        C2-share (Libra)   the job's share on the *fastest* node already
//                           exceeds a whole processor — no resident set can
//                           make Eq. 2 pass;
//        C2-deadline (EDF, EDF-backfill, QoPS)
//                           best-case runtime on the fastest node misses
//                           the (slack-scaled) deadline — the dispatch-time
//                           feasibility test only sees later `now`s. EDF
//                           and EDF-backfill keep it under HardReject only:
//                           DowngradeQoS re-tests against a later deadline.
//      Policies whose admission test is state-dependent in both directions
//      (LibraRisk's sigma-only salvage lane admits anything on an empty
//      node) get no C2 certificate: the gateway never sheds a job the exact
//      path might admit. Aggregate in-flight load is no certificate either
//      — admission is per node, so an overloaded cluster says nothing about
//      the resident set at this job's nodes — and the gate never reads it.
//
//   2. A bounded MPSC queue (support::BoundedQueue) draining into the
//      engine, whose clock a dedicated drive thread advances. The drive
//      thread is the only thread that touches the engine and the hooks.
//      Between jobs it spins on the queue's occupancy for up to
//      BoundedQueue::kSpinBound (200 µs) before it parks, and a producer
//      pays a wake-up only when it has parked: at a steady 10 k jobs/s a
//      submit is a short critical section and the job is picked up within
//      a microsecond. The price is CPU, up to a whole core while jobs
//      arrive faster than one per spin bound; an idle gateway parks. The
//      queue bounds memory and applies backpressure: a producer that finds
//      it full sleeps until the drive thread has drained it to half its
//      capacity.
//
// Determinism: with a single producer submitting a monotone stream, the
// drive thread replays exactly `advance_to + submit` per job — byte-
// identical at the .lrt level to `librisk-sim replay --stream`. With
// several producers, arrival *interleaving* at the queue is the only
// nondeterminism: the engine's decisions are a pure function of the queue
// order (submit times are clamped to the watermark so a late-pushed early
// job cannot violate engine monotonicity).
//
// Shed accounting vs. exactness: by default (audit_shed = true) a
// fast-rejected job is still enqueued, pre-decided, and replayed through
// the exact path — the decision trace and summary stay byte-identical to
// an ungated run, and every shed is audited against the engine's own
// verdict (stats().audit_violations counts disagreements: always 0 unless
// a certificate is wrong). audit_shed = false drops shed jobs at the
// gate — the throughput configuration bench/throughput_gateway measures.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "core/engine.hpp"
#include "obs/flight.hpp"
#include "support/bounded_queue.hpp"

namespace librisk::core {

struct GatewayConfig {
  /// Engine recipe; owning mode (cluster set) is required — the gateway's
  /// drive thread must be the engine's only user.
  EngineConfig engine;
  /// Capacity of the producer→drive queue (backpressure bound).
  std::size_t queue_capacity = 1024;
  /// Keep replaying fast-rejected jobs through the exact path (byte-identity
  /// + self-audit). Disable only to measure gate throughput.
  bool audit_shed = true;
  /// Flight-recorder ring capacity (last N decisions with wall-clock
  /// timing, obs::FlightRecorder); 0 disables it entirely.
  std::size_t flight_capacity = 256;
};

/// What a producer learns synchronously. The admission *decision* is made
/// later on the drive thread; per-job verdicts live in the engine's
/// collector once the gateway is closed.
enum class SubmitStatus : std::uint8_t {
  Enqueued,      ///< handed to the drive thread
  FastRejected,  ///< shed at the gate (still replayed when audit_shed)
  Closed,        ///< gateway closed; job not taken
};

/// Monotone counters and watermarks, readable live from any thread.
struct GatewayStats {
  std::uint64_t submitted = 0;      ///< submit() calls that were not Closed
  std::uint64_t fast_rejected = 0;  ///< shed by the gate
  std::uint64_t enqueued = 0;       ///< pushed to the drive queue
  std::uint64_t decided = 0;        ///< engine decisions made so far
  /// Fast-shed jobs the exact path admitted — started or completed
  /// (audit_shed mode). A shed job the exact path merely *queues* is not a
  /// violation yet: the EDF family tests feasibility at dispatch, so its
  /// sheds resolve as dispatch-time rejections; the audit follows each
  /// queued shed to resolution. Any nonzero value falsifies a certificate.
  std::uint64_t audit_violations = 0;
  std::uint64_t queue_high_water = 0;     ///< peak drive-queue occupancy
  /// `fast_rejected` attributed by certificate (sums to it):
  std::uint64_t shed_no_suitable_node = 0;  ///< C1
  std::uint64_t shed_share = 0;             ///< C2-share (Libra)
  std::uint64_t shed_deadline = 0;          ///< C2-deadline (EDF family, QoPS)
  std::uint64_t flight_recorded = 0;  ///< decisions offered to the recorder
  /// Engine decisions that came back as DowngradeQoS admissions
  /// (core/overload.hpp); 0 under HardReject. Also counted in the engine's
  /// accepted totals — this attributes, it does not add.
  std::uint64_t degraded_admits = 0;
};

class AdmissionGateway {
 public:
  /// Builds the engine, derives the fast-reject certificates from the
  /// policy, registers the shed-audit resolution observer and the gateway's
  /// telemetry (when hooks carry a hub), and starts the drive thread.
  explicit AdmissionGateway(GatewayConfig config);
  AdmissionGateway(const AdmissionGateway&) = delete;
  AdmissionGateway& operator=(const AdmissionGateway&) = delete;
  /// Closes (joining the drive thread) if close() was not called; any
  /// drive-thread error is swallowed here — call close() to receive it.
  ~AdmissionGateway();

  /// Thread-safe; callable from any number of producer threads. Blocks
  /// only when the drive queue is full (backpressure), and then until the
  /// drive thread has drained it to half its capacity. Wakes the drive
  /// thread only if it has parked.
  SubmitStatus submit(const workload::Job& job);

  /// Stops intake, drains the queue, joins the drive thread, finishes the
  /// engine (terminal telemetry sample + all-resolved check) and rethrows
  /// any error the drive thread hit. Idempotent.
  void close();

  /// The fast-reject predicate by itself: the reason the gate would shed
  /// `job`, or nullopt if it would pass. Pure: it reads only parameters
  /// fixed at construction. Exposed for the differential conservativeness
  /// tests.
  [[nodiscard]] std::optional<trace::RejectionReason> fast_reject_reason(
      const workload::Job& job) const noexcept;

  [[nodiscard]] GatewayStats stats() const;

  /// The wall-clock flight recorder (last `flight_capacity` decisions +
  /// queue-wait / decide-latency histograms). Snapshot-safe from any thread
  /// during the run; its histograms are merged into the telemetry registry
  /// (OpenMetrics export) at close().
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept {
    return flight_;
  }

  /// The underlying engine. During the run it belongs to the drive thread
  /// — only touch it after close(); results (summary, collector records,
  /// admission stats) are read through it.
  [[nodiscard]] AdmissionEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const AdmissionEngine& engine() const noexcept { return *engine_; }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  struct QueueItem {
    workload::Job job;
    /// Set when the gate shed this job and audit mode re-enqueued it: the
    /// drive thread checks the engine agrees.
    bool pre_shed = false;
    /// Wall clock at push, for the flight recorder's queue-wait histogram.
    std::chrono::steady_clock::time_point enqueued_at{};
  };

  /// Which fast-reject certificate fires for a job (None = passes the
  /// gate). The public fast_reject_reason() maps it to the trace
  /// vocabulary.
  enum class Certificate : std::uint8_t {
    None,
    NoNode,    ///< C1
    Share,     ///< C2-share
    Deadline,  ///< C2-deadline
  };
  [[nodiscard]] Certificate classify(const workload::Job& job) const noexcept;

  /// Certificate parameters, derived once from policy + options; const
  /// after construction, so producer reads need no synchronisation.
  struct FastRejectModel {
    int cluster_size = 0;
    double max_speed = 1.0;
    bool share_test = false;  ///< C2-share (Libra/TotalShare)
    double deadline_clamp = 1.0;
    bool deadline_test = false;  ///< C2-deadline (EDF family, QoPS)
    double slack_factor = 1.0;
  };

  void drive();

  GatewayConfig config_;
  FastRejectModel model_;
  std::unique_ptr<AdmissionEngine> engine_;
  support::BoundedQueue<QueueItem> queue_;

  /// Drive-thread-only: pre-shed jobs the engine queued rather than decided
  /// at submit (EDF-family sheds reject at dispatch time); the resolution
  /// observer audits each one's final fate.
  std::unordered_set<std::int64_t> shed_pending_;
  metrics::Collector::ObserverId observer_id_ = 0;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> fast_rejected_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> decided_{0};
  std::atomic<std::uint64_t> audit_violations_{0};
  // Per-certificate shed attribution (producer-side, relaxed).
  std::atomic<std::uint64_t> shed_no_node_{0};
  std::atomic<std::uint64_t> shed_share_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  // Degraded-admit attribution (drive-thread writes, any reader).
  std::atomic<std::uint64_t> degraded_admits_{0};

  /// Decision flight recorder; drive thread writes, any thread snapshots.
  obs::FlightRecorder flight_;
  /// Registry-owned histogram sinks the flight histograms merge into at
  /// close() (null without telemetry).
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* decide_hist_ = nullptr;
  bool flight_merged_ = false;

  /// Drive-thread-only submit-time watermark: with several producers a job
  /// can reach the queue behind one with a later stamp; clamping to the
  /// watermark keeps the engine's monotonicity contract.
  sim::SimTime last_submit_ = 0.0;

  std::exception_ptr drive_error_;
  std::atomic<bool> closed_{false};
  bool join_done_ = false;
  std::thread drive_thread_;
};

}  // namespace librisk::core
