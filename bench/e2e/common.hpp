// Shared pieces of the end-to-end benchmark (bench/e2e/README.md): metric
// records, the decision digest, the per-call span log, the timing decorator
// around the scheduler, and the replay loop every workload reuses.
//
// Everything here sits *outside* the library: spans are taken around calls
// into the public API (AdmissionEngine, Scheduler, AdmissionGateway), never
// inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/gateway.hpp"
#include "workload/job.hpp"

namespace librisk::e2e {

using Clock = std::chrono::steady_clock;

/// Which list a metric belongs to. End-to-end metrics come from untraced
/// repetitions, layer metrics from the traced one; details are printed and
/// written to the result file but not part of BENCHMARK.json.
enum class Kind : std::uint8_t { EndToEnd, Layer, Detail };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::Detail;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< run length; sets the repetition count (reps_for)
  bool trace = false;     ///< add the traced repetition (layer metrics)
  bool smoke = false;     ///< one repetition at a tenth of the jobs
  std::string out_dir;
};

/// What one workload run hands back to main().
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< jobs offered, all repetitions
  std::uint64_t failed = 0;     ///< see README "failed_pct"
  std::uint64_t digest = 0;     ///< decision digest every repetition reproduced
  double fulfilled_pct = 0.0;
  int reps = 0;
  std::vector<std::string> problems;  ///< one line per failure, for stderr

  void add(std::string name, double value, std::string unit, Kind kind) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), kind});
  }
  void fail(std::uint64_t jobs, std::string why) {
    failed += jobs;
    problems.push_back(std::move(why));
  }
};

// ---- workload ----

/// The SDSC-SP2 paper workload (inaccuracy 100) with `count` jobs.
[[nodiscard]] std::vector<workload::Job> make_jobs(std::size_t count,
                                                   double arrival_delay_factor,
                                                   std::uint64_t seed);

/// The paper's node rating (SDSC SP2 SPEC rating).
inline constexpr double kRating = 168.0;

// ---- repetitions ----

/// Untraced repetitions in a run of `seconds`: the budget over the
/// workload's nominal repetition time on the 4-vCPU Xeon reference host
/// (README), at least `min_reps`. It depends on the arguments only, never
/// on measured speed, so two versions of the code make the same number of
/// repetitions.
[[nodiscard]] int reps_for(double seconds, double rep_seconds, int min_reps);

// ---- statistics ----

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double max_of(const std::vector<double>& values);
[[nodiscard]] double min_of(const std::vector<double>& values);

[[nodiscard]] inline double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
[[nodiscard]] inline double to_s(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---- decision digest ----

/// FNV-1a, 64 bit.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) noexcept;
  template <typename T>
  void add(const T& value) noexcept {
    bytes(&value, sizeof(value));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Placement part of a decision, as AdmissionOutcome or FlightEntry carry it.
struct Placement {
  std::int32_t node = -1;
  double sigma = -1.0;
};

/// Digest over every job's fate, reason and start/finish bits (collector,
/// id order) followed by each decision's node and sigma bits (submit order).
[[nodiscard]] std::uint64_t decision_digest(
    const metrics::Collector& collector, const std::vector<Placement>& placements);

[[nodiscard]] std::string hex(std::uint64_t value);

// ---- spans ----

enum class SpanKind : std::uint8_t {
  Advance,        ///< AdmissionEngine::advance_to
  Submit,         ///< AdmissionEngine::submit
  Decide,         ///< Scheduler::on_job_submitted, child of Submit
  GatewaySubmit,  ///< AdmissionGateway::submit, producer side
  QueueWait,      ///< flight entry queue_wait (push to pop)
  DriveDecide,    ///< flight entry decide_latency (drive thread)
};

struct Span {
  std::int64_t job = 0;
  SpanKind kind = SpanKind::Advance;
  std::int64_t start_ns = 0;  ///< relative to the log's origin
  std::int64_t end_ns = 0;
};

/// In-memory span store; written out once, after the timed work.
class SpanLog {
 public:
  explicit SpanLog(std::size_t expected) { spans_.reserve(expected); }
  void set_origin(Clock::time_point origin) noexcept { origin_ = origin; }
  void add(std::int64_t job, SpanKind kind, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back(Span{job, kind, ns(start), ns(end)});
  }
  /// Sum of durations of one kind, in nanoseconds.
  [[nodiscard]] double total_ns(SpanKind kind) const;
  /// Appends one JSON line per span, tagged with `phase`.
  void write_jsonl(std::ostream& os, const std::string& phase) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Forwarding Scheduler that times each on_job_submitted call into a
/// SpanLog and re-notes the inner scheduler's last_decision(), so the
/// engine's AdmissionOutcome is unchanged. Used in borrowed engine mode.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(core::Scheduler& inner, SpanLog& log) : inner_(inner), log_(log) {}
  void on_job_submitted(const workload::Job& job) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }

 private:
  core::Scheduler& inner_;
  SpanLog& log_;
};

// ---- the replay loop ----

/// One closed-loop streaming replay: advance_to + submit per job, then
/// finish() and summary(). With a span log the engine runs in borrowed mode
/// behind a TimedScheduler and every call is recorded; without one it runs
/// in owning mode and only submit() is timed.
struct Replay {
  Clock::time_point first_decision{};  ///< when submit() of job 0 returned
  double loop_s = 0.0;                 ///< first advance_to .. summary()
  double finish_ms = 0.0;
  double summary_ms = 0.0;
  std::vector<double> submit_us;  ///< per job, untraced replays only
  std::uint64_t digest = 0;
  double fulfilled_pct = 0.0;
  core::AdmissionStats admission;
  cluster::KernelStats kernel;
  std::uint64_t events = 0;
  std::size_t peak_live_jobs = 0;
};

[[nodiscard]] Replay replay(const std::vector<workload::Job>& jobs,
                            core::Policy policy, int nodes, SpanLog* log);

/// Layer metrics of a traced replay (engine, scheduler, scan, cluster, sim
/// and the ledger), appended to `result`. `untraced_loop_s` is the best
/// untraced loop time of the same run, for the tracing overhead.
void add_replay_layers(RunResult& result, const Replay& traced,
                       const SpanLog& log, std::size_t jobs,
                       double untraced_loop_s);

/// Gate layer: the mean cost of AdmissionGateway::fast_reject_reason over
/// `jobs` and the share it sheds, for a gateway with this policy and size.
void add_gate_layer(RunResult& result, const std::vector<workload::Job>& jobs,
                    core::Policy policy, int nodes);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace librisk::e2e
