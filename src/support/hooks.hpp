// The one attachment point for optional observation hooks.
//
// A decision-audit recorder (docs/TRACING.md) and a live-telemetry hub
// (docs/OBSERVABILITY.md) share the same ownership model: borrowed by the
// scheduler stack for the duration of a run, null by default, and free when
// absent. Before this struct existed each component exposed a separate
// setter pair and every driver wired them independently — which made it
// possible to attach a recorder to the scheduler but not its executor.
// Hooks travel as one value (PolicyOptions::hooks is the single attach
// point; core::AdmissionEngine fans it out), so a partially-wired stack can
// no longer be expressed.
//
// Thread affinity: hook implementations are single-threaded and are only
// ever called from the thread driving the simulator they observe. In a
// concurrent front-end (core::AdmissionGateway) that is the gateway's drive
// thread — producers never touch hooks, so recorders and telemetry need no
// locking (docs/CONCURRENCY.md).
//
// This header only forward-declares the hook types so layers below
// trace/obs can carry a Hooks value without inheriting their dependencies.
#pragma once

namespace librisk::trace {
class Recorder;
}
namespace librisk::obs {
class Telemetry;
}

namespace librisk {

struct Hooks {
  /// Decision-audit event recorder; null emits nothing and perturbs nothing.
  /// Every consumer of the decision record is a sink behind it: the .lrt
  /// and JSONL writers, and obs::ExplainRecorder for margin records.
  trace::Recorder* trace = nullptr;
  /// Live metrics/series/profiling hub; null costs one branch per hook site.
  obs::Telemetry* telemetry = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return trace != nullptr || telemetry != nullptr;
  }
};

}  // namespace librisk
