// The long-lived online admission engine.
//
// Every driver before this one was a batch loop: materialize a full,
// submit-ordered job vector, pre-schedule all arrivals, run the simulator
// to drain. The paper's admission control is inherently online — one
// accept/reject decision per arriving job, evaluated at submit time
// (Eq. 1–6) — and real RMS front-ends deliver jobs incrementally. The
// AdmissionEngine inverts the batch shape into an explicit lifecycle:
//
//   auto engine = make_engine({.cluster = cluster, .policy = Policy::LibraRisk});
//   while (stream.next(job)) {
//     engine->advance_to(job.submit_time);      // bounded stepping
//     auto outcome = engine->submit(job);       // one decision per arrival
//     if (outcome.rejected()) log(outcome.reason);
//   }
//   engine->finish();                           // drain + seal telemetry
//
// submit() is *eager*: it schedules the arrival and steps the simulator
// through it (and through everything that precedes it in the deterministic
// event order — equal-time completions first), so the admission decision is
// known when submit() returns and comes back as a typed AdmissionOutcome.
// The stepping is exactly the prefix the batch driver would have run before
// that arrival, so interleaving submissions with stepping stays
// byte-identical — at the .lrt decision-trace level — to the batch driver
// (tests/test_engine_equivalence.cpp and docs/MODEL.md §"engine stepping").
// enqueue() is the lazy sibling: schedule-only, no stepping, no outcome —
// the batch drivers use it to keep the whole-trace-resident memory shape
// that bench/mem_streaming_replay measures.
//
// Jobs may arrive one at a time, monotone in submit time; the engine copies
// each into its own slab and reclaims the slot the moment the job resolves
// (rejected, completed, or killed), so replay memory is bounded by the
// resident/pending set, not the trace length (live_jobs()/peak_live_jobs()
// expose the claim).
//
// The batch entry points still exist — core::run_trace and exp::run_jobs
// are thin loops over this class — and the engine is the seam the
// concurrent gateway (core/gateway.hpp) drives from its single consumer
// thread: the engine itself is strictly single-threaded.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/factory.hpp"

namespace librisk::core {

/// Typed result of one eager admission decision (AdmissionEngine::submit).
/// What used to require diffing AdmissionStats counters around a submission
/// — or parsing the .lrt trace — is now returned in-band, per job.
struct AdmissionOutcome {
  enum class Verdict : std::uint8_t {
    Accepted,      ///< started execution at its arrival instant
    Queued,        ///< admitted to a wait queue; fate still pending
    Rejected,      ///< shed at submit or at dispatch within the arrival step
    /// Only produced under DowngradeQoS (core/overload.hpp): the job failed
    /// the normal test and the relaxed deadline admitted it.
    DegradedAdmit,
  };

  std::int64_t job_id = -1;
  Verdict verdict = Verdict::Queued;
  /// Which admission test said no. None unless verdict == Rejected.
  trace::RejectionReason reason = trace::RejectionReason::None;
  /// First node the job was placed on; -1 when not accepted or when the
  /// policy does not report placement at admission (space-shared family).
  std::int32_t node = -1;
  /// Tentative sigma (Eq. 6) the admission test saw; -1 when no sigma test
  /// ran (non-ZeroRisk policies, or node == -1).
  double sigma = -1.0;
  /// Chosen-node admission margin (signed headroom of the decisive test,
  /// obs::NodeMargin convention); 0.0 when the policy computes none.
  double margin = 0.0;

  /// DegradedAdmit counts as accepted: the job IS running — every
  /// share-accounting guard upstream (gateway, federation) treats it like a
  /// normal admission, it just carries the degraded provenance.
  [[nodiscard]] bool accepted() const noexcept {
    return verdict == Verdict::Accepted || verdict == Verdict::DegradedAdmit;
  }
  [[nodiscard]] bool rejected() const noexcept { return verdict == Verdict::Rejected; }
};

[[nodiscard]] const char* to_string(AdmissionOutcome::Verdict verdict) noexcept;

struct EngineConfig;

class AdmissionEngine {
 public:
  AdmissionEngine(const AdmissionEngine&) = delete;
  AdmissionEngine& operator=(const AdmissionEngine&) = delete;
  ~AdmissionEngine();

  // ---- lifecycle ----

  /// Accepts one job and decides it: validates, copies into engine-owned
  /// storage, schedules the arrival, then steps the simulator through the
  /// arrival event — running exactly the events that precede it in the
  /// deterministic total order first — and returns the decision. Jobs must
  /// arrive monotone in submit time and not before now(). The clock is at
  /// job.submit_time when this returns; an explicit advance_to() before
  /// submitting is allowed but no longer required. Deliberately not
  /// [[nodiscard]]: pre-outcome call sites that ignore the result remain
  /// correct, the decision is also in the collector.
  AdmissionOutcome submit(const workload::Job& job);

  /// Schedule-only sibling of submit(): same validation and storage, but
  /// never advances the clock and returns only the arrival's event id. The
  /// batch drivers (run_trace, the materialized leg of
  /// bench/mem_streaming_replay) use it to pre-schedule every arrival
  /// before running anything — the shape the seed driver had.
  sim::EventId enqueue(const workload::Job& job);

  /// Runs events strictly before `t` and reclaims resolved jobs. This is
  /// the streaming driver's step: advancing to the next arrival's submit
  /// time before submitting it preserves batch byte-identity (events *at*
  /// t must not fire before the arrival is scheduled — an equal-time
  /// Control event would otherwise overtake it).
  std::uint64_t advance_to(sim::SimTime t);

  /// Runs events with time <= t (inclusive) and reclaims resolved jobs.
  std::uint64_t step_until(sim::SimTime t);

  /// Runs until the event set is empty and reclaims resolved jobs.
  std::uint64_t drain();

  /// Ends the run: drains, takes the terminal telemetry sample, seals the
  /// telemetry hub, and checks every submitted job resolved. Idempotent;
  /// submit() afterwards is an error.
  void finish();

  // ---- incremental snapshots ----

  [[nodiscard]] sim::SimTime now() const noexcept;
  [[nodiscard]] bool idle() const noexcept;
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept;

  [[nodiscard]] const Collector& collector() const noexcept { return collector_; }
  /// Mutable access for observer registration (the gateway's
  /// subtract-on-resolve hook); the engine remains the collector's owner
  /// or borrower exactly as before.
  [[nodiscard]] Collector& collector() noexcept { return collector_; }
  /// Summary of everything resolved so far (cheap enough mid-run; equals
  /// the end-of-run summary once finished). Utilization is filled in when
  /// the engine owns its stack.
  [[nodiscard]] metrics::RunSummary summary() const;

  /// Owning mode only (all-zero / 0.0 in borrowed mode, where the engine
  /// cannot see past the Scheduler interface).
  [[nodiscard]] AdmissionStats admission_stats() const;
  [[nodiscard]] cluster::KernelStats kernel_stats() const;
  [[nodiscard]] double busy_node_seconds() const;
  [[nodiscard]] int cluster_size() const noexcept { return cluster_size_; }

  // ---- job-storage accounting (the bounded-memory claim) ----

  [[nodiscard]] std::size_t jobs_submitted() const noexcept { return submitted_; }
  /// Job objects currently held by the engine (submitted, not yet
  /// resolved-and-reclaimed).
  [[nodiscard]] std::size_t live_jobs() const noexcept { return index_.size(); }
  /// High-water mark of live_jobs(): for a streaming replay this tracks the
  /// peak resident/pending set, not the trace length.
  [[nodiscard]] std::size_t peak_live_jobs() const noexcept { return peak_live_; }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }

 private:
  /// Owning mode: builds the simulator, collector and policy stack, and
  /// attaches `options.hooks` to every component plus the engine's own
  /// driver-level emissions — the single attach point. The cluster is
  /// copied; the engine is self-contained and long-lived.
  AdmissionEngine(cluster::Cluster cluster, Policy policy,
                  const PolicyOptions& options);

  /// Borrowed mode (the run_trace compatibility path): drives caller-owned
  /// components. `hooks` must be the same ones already attached to the
  /// scheduler stack; the engine uses them only for its own emissions
  /// (JobSubmitted events, telemetry arm/finish/seal) and does NOT attach
  /// them to `scheduler` — a factory-built stack has done that already.
  AdmissionEngine(sim::Simulator& simulator, Scheduler& scheduler,
                  Collector& collector, const Hooks& hooks);

  /// make_engine is the only way to construct an engine: it validates the
  /// exactly-one-mode contract before dispatching to a constructor.
  friend std::unique_ptr<AdmissionEngine> make_engine(EngineConfig config);

  void reclaim();
  /// Reads the decision the arrival step just produced for `job_id` out of
  /// the collector record (fate + reason) and the scheduler's last placement
  /// note (node + sigma, id-guarded).
  [[nodiscard]] AdmissionOutcome outcome_of(std::int64_t job_id) const;

  // Owning-mode storage (null in borrowed mode). Declaration order matters:
  // the stack borrows the simulator/collector and must die first.
  std::unique_ptr<cluster::Cluster> owned_cluster_;
  std::unique_ptr<sim::Simulator> owned_sim_;
  std::unique_ptr<Collector> owned_collector_;
  std::unique_ptr<SchedulerStack> stack_;

  sim::Simulator& sim_;
  Collector& collector_;
  Scheduler& scheduler_;
  Hooks hooks_;
  int cluster_size_ = 0;

  // Job slab: deque for pointer stability, free list for slot reuse, id
  // index for reclaim. Steady-state submissions allocate nothing once the
  // slab has grown to the peak resident set.
  std::deque<workload::Job> slab_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::int64_t, std::uint32_t> index_;
  /// Ids resolved inside the last stepping call, pending slot reclaim (the
  /// collector's observer fires mid-event, when the executor may still hold
  /// the Job pointer; slots are only recycled between stepping calls).
  std::vector<std::int64_t> resolved_backlog_;
  metrics::Collector::ObserverId observer_id_ = 0;

  std::size_t submitted_ = 0;
  std::size_t peak_live_ = 0;
  sim::SimTime last_submit_ = 0.0;
  bool finished_ = false;
};

/// One-struct construction for both engine modes. Exactly one of the two
/// mode sections must be filled in:
///   owning:   `cluster` set — the engine builds simulator + collector +
///             policy stack itself; `policy`/`options` apply, and
///             `options.hooks` is the single observation attach point.
///   borrowed: `simulator`/`scheduler`/`collector` all non-null — the
///             engine drives a caller-owned stack; `hooks` must be the
///             ones already attached to it.
/// This is the only way to build an engine — the mode-specific constructors
/// are private so every call site states its mode explicitly.
struct EngineConfig {
  // -- owning mode --
  std::optional<cluster::Cluster> cluster;
  Policy policy = Policy::LibraRisk;
  PolicyOptions options;

  // -- borrowed mode --
  sim::Simulator* simulator = nullptr;
  Scheduler* scheduler = nullptr;
  Collector* collector = nullptr;
  Hooks hooks;
};

/// Builds an engine from an EngineConfig, validating that the config names
/// exactly one mode. The heap indirection keeps the (immovable) engine easy
/// to hand around; the engine itself is identical to one built directly.
[[nodiscard]] std::unique_ptr<AdmissionEngine> make_engine(EngineConfig config);

}  // namespace librisk::core
