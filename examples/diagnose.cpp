// Diagnosis: where do deadline violations come from under each policy?
//
// Breaks late and rejected jobs down by whether the user under-estimated
// the runtime (a self-inflicted overrun nothing can save under strict
// pacing) or estimated honestly (a victim of co-located overruns /
// queueing). This is the tool that shows *why* LibraRisk beats Libra — the
// victims column — rather than just that it does.
//
//   $ diagnose --inaccuracy 100 --work-conserving
//
// A bad flag value prints one "error:" line and exits 2.
#include <iostream>
#include <stdexcept>

#include "core/overload.hpp"
#include "exp/scenario.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "workload/synthetic.hpp"

namespace {

int diagnose(int argc, char** argv) {
  using namespace librisk;

  cli::Parser parser("diagnose", "Late/rejected-job breakdown per policy");
  auto& jobs_opt = parser.add<int>("jobs", "number of jobs", 3000);
  auto& seed_opt = parser.add<std::uint64_t>("seed", "workload seed", 1);
  auto& inaccuracy_opt = parser.add<double>("inaccuracy", "estimate inaccuracy %", 100.0);
  auto& wc_opt = parser.add<bool>("work-conserving",
                                  "redistribute spare node capacity", true);
  auto& equal_opt = parser.add<bool>("equal-share",
                                     "equal-share execution instead of proportional pacing", false);
  auto& hu_opt = parser.add<double>("high-urgency", "high-urgency fraction", 0.20);
  auto& overload_opt = parser.add<std::string>(
      "overload-mode", "overload mode: hard-reject | downgrade-qos",
      "hard-reject");
  auto& load_scale_opt = parser.add<double>(
      "load-scale", "inter-arrival gap factor (< 1 raises offered load)", 1.0);
  parser.parse(argc, argv);
  if (!(load_scale_opt.value > 0.0))
    throw cli::ParseError("--load-scale must be > 0");

  exp::Scenario base;
  base.workload.trace.job_count = static_cast<std::size_t>(jobs_opt.value);
  base.workload.inaccuracy_pct = inaccuracy_opt.value;
  base.workload.deadlines.high_urgency_fraction = hu_opt.value;
  base.options.share_model.work_conserving = wc_opt.set ? wc_opt.value : true;
  base.options.share_model.mode = equal_opt.value
                                      ? cluster::ExecutionMode::EqualShare
                                      : cluster::ExecutionMode::ProportionalPacing;
  if (equal_opt.value)
    base.options.risk.prediction = core::RiskConfig::Prediction::ProcessorSharing;
  try {
    base.options.overload.mode = core::parse_degraded_mode(overload_opt.value);
  } catch (const std::invalid_argument& e) {
    throw cli::ParseError(e.what());
  }
  base.seed = seed_opt.value;
  std::vector<workload::Job> jobs =
      workload::make_paper_workload(base.workload, base.seed);
  if (load_scale_opt.value != 1.0)
    workload::scale_interarrivals(jobs, load_scale_opt.value);

  table::Table t({"policy", "fulfilled %", "slowdown", "rejected", "rej(share)",
                  "rej(sigma)", "rej(deadline)", "rej(no-node)", "degraded",
                  "near5%", "near10%", "late(under-est)", "late(victims)",
                  "ful(under-est)", "doomable", "scans/job", "skips", "batched",
                  "bound-skip", "recomp/settle", "kern-skip%", "views/job"});
  for (const core::Policy policy : core::all_policies()) {
    exp::Scenario scenario = base;
    scenario.policy = policy;
    const exp::ScenarioResult r = exp::run_jobs(scenario, jobs);

    std::size_t late_under = 0, late_victim = 0, ful_under = 0, under_total = 0;
    std::size_t rejected = 0;
    // A DegradedAdmit is its own column, not a plain accept (it rode the
    // DowngradeQoS bend); folding it would misattribute exactly the jobs
    // this breakdown exists to explain.
    std::size_t degraded = 0;
    // Rejection attribution from the per-job outcome reasons (the typed
    // AdmissionOutcome surface), which every policy fills alike.
    std::size_t rej_share = 0, rej_sigma = 0, rej_deadline = 0, rej_node = 0;
    for (const exp::JobOutcome& o : r.outcomes) {
      if (o.underestimated) ++under_total;
      if (o.verdict == core::AdmissionOutcome::Verdict::DegradedAdmit)
        ++degraded;
      switch (o.fate) {
        case metrics::JobFate::RejectedAtSubmit:
        case metrics::JobFate::RejectedAtDispatch:
          ++rejected;
          switch (o.reason) {
            case trace::RejectionReason::ShareOverflow: ++rej_share; break;
            case trace::RejectionReason::RiskSigma: ++rej_sigma; break;
            case trace::RejectionReason::DeadlineInfeasible: ++rej_deadline; break;
            case trace::RejectionReason::NoSuitableNode: ++rej_node; break;
            case trace::RejectionReason::None: break;
          }
          break;
        case metrics::JobFate::CompletedLate:
          (o.underestimated ? late_under : late_victim) += 1;
          break;
        case metrics::JobFate::FulfilledInTime:
          if (o.underestimated) ++ful_under;
          break;
        default:
          break;
      }
    }
    // Admission/kernel effort via the shared derived-stat helpers. The
    // space-shared policies fill the near-miss columns (the dispatch-time
    // deadline test) but leave the scan and kernel columns at zero: they
    // use neither the Libra admission scan nor the time-shared executor.
    const core::AdmissionStats& adm = r.admission;
    const cluster::KernelStats& kern = r.kernel;
    t.add_row({std::string(core::to_string(policy)),
               table::pct(r.summary.fulfilled_pct),
               table::num(r.summary.avg_slowdown_fulfilled),
               std::to_string(rejected),
               std::to_string(rej_share),
               std::to_string(rej_sigma),
               std::to_string(rej_deadline),
               std::to_string(rej_node),
               std::to_string(degraded),
               // Near-miss rejections: within 5%/10% of flipping the
               // decisive test (conservative undercount when the batch
               // spread bound skipped exact sigmas).
               std::to_string(adm.near_miss_5()),
               std::to_string(adm.near_miss_10()),
               std::to_string(late_under),
               std::to_string(late_victim), std::to_string(ful_under),
               std::to_string(under_total),
               table::num(adm.scans_per_submission()),
               std::to_string(adm.empty_node_skips),
               std::to_string(adm.batched_assessments),
               std::to_string(adm.nodes_batch_skipped),
               table::num(kern.recomputes_per_settle()),
               table::num(kern.skip_pct(), 1),
               // Node-view cache rebuilds per job: the admission scan's
               // executor-side cost (idle nodes are served cached).
               table::num(r.outcomes.empty()
                              ? 0.0
                              : static_cast<double>(kern.view_rebuilds) /
                                    static_cast<double>(r.outcomes.size()))});
  }
  std::cout << "inaccuracy " << inaccuracy_opt.value << "%, work-conserving "
            << (wc_opt.value ? "on" : "off") << ":\n"
            << t.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return diagnose(argc, argv);
  } catch (const librisk::cli::ParseError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
