// Decision-audit trace subsystem: sink round-trips, determinism oracles,
// corrupt-input handling, and rejection-reason attribution.
//
// The two load-bearing guarantees here are (1) a NullSink-backed recorder
// leaves every decision bit-identical to running with no recorder at all,
// and (2) the binary format is a determinism oracle: same seed + policy
// produce byte-identical .lrt files, so `trace diff` reporting the first
// divergent event is a meaningful regression signal.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/factory.hpp"
#include "exp/scenario.hpp"
#include "tools/commands.hpp"
#include "trace/diff.hpp"
#include "trace/event.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "trace/summary.hpp"

namespace librisk {
namespace {

exp::Scenario small_scenario(core::Policy policy, std::uint64_t seed) {
  exp::Scenario s;
  s.workload.trace.job_count = 200;
  s.nodes = 32;
  s.policy = policy;
  s.seed = seed;
  return s;
}

/// Runs the scenario with `sink` attached; returns the scenario result.
exp::ScenarioResult record_into(trace::Sink& sink, core::Policy policy,
                                std::uint64_t seed) {
  exp::Scenario s = small_scenario(policy, seed);
  trace::Recorder recorder(sink);
  s.options.hooks.trace = &recorder;
  const exp::ScenarioResult r = exp::run_scenario(s);
  sink.close();
  return r;
}

std::string record_lrt(core::Policy policy, std::uint64_t seed) {
  std::ostringstream os;
  trace::BinarySink sink(os, {std::string(core::to_string(policy)), seed});
  record_into(sink, policy, seed);
  return os.str();
}

std::string record_jsonl(core::Policy policy, std::uint64_t seed) {
  std::ostringstream os;
  trace::JsonlSink sink(os, {std::string(core::to_string(policy)), seed});
  record_into(sink, policy, seed);
  return os.str();
}

TEST(TraceEvent, KindAndReasonStringsRoundTrip) {
  for (int k = 1; k <= static_cast<int>(trace::kEventKindCount); ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    EXPECT_EQ(trace::parse_event_kind(trace::to_string(kind)), kind);
  }
  for (int r = 0; r < static_cast<int>(trace::kRejectionReasonCount); ++r) {
    const auto reason = static_cast<trace::RejectionReason>(r);
    EXPECT_EQ(trace::parse_rejection_reason(trace::to_string(reason)), reason);
  }
  EXPECT_THROW((void)trace::parse_event_kind("nope"), std::invalid_argument);
  EXPECT_THROW((void)trace::parse_rejection_reason("nope"), std::invalid_argument);
}

TEST(TraceSink, BinaryAndJsonlRoundTripIdentically) {
  const std::string lrt = record_lrt(core::Policy::LibraRisk, 11);
  const std::string jsonl = record_jsonl(core::Policy::LibraRisk, 11);

  std::istringstream lrt_in(lrt);
  std::istringstream jsonl_in(jsonl);
  const trace::TraceData a = trace::read_lrt(lrt_in);
  const trace::TraceData b = trace::read_jsonl(jsonl_in);

  EXPECT_EQ(a.meta, b.meta);
  EXPECT_EQ(a.meta.policy, "LibraRisk");
  EXPECT_EQ(a.meta.seed, 11u);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_FALSE(a.events.empty());
  // Event-by-event: doubles survive both the raw-bits binary encoding and
  // the shortest-round-trip JSONL text encoding exactly.
  for (std::size_t i = 0; i < a.events.size(); ++i)
    ASSERT_EQ(a.events[i], b.events[i]) << "event " << i;
  EXPECT_TRUE(trace::first_divergence(a, b).identical());
}

TEST(TraceSink, SameSeedIsByteIdenticalAcrossAllPolicies) {
  for (const core::Policy policy : core::all_policies()) {
    const std::string first = record_lrt(policy, 5);
    const std::string second = record_lrt(policy, 5);
    EXPECT_EQ(first, second) << core::to_string(policy);
    EXPECT_FALSE(first.empty()) << core::to_string(policy);
  }
  EXPECT_NE(record_lrt(core::Policy::LibraRisk, 5),
            record_lrt(core::Policy::LibraRisk, 6));
}

TEST(TraceSink, NullSinkLeavesDecisionsBitIdentical) {
  for (const core::Policy policy :
       {core::Policy::LibraRisk, core::Policy::Libra, core::Policy::Edf}) {
    const exp::ScenarioResult plain =
        exp::run_scenario(small_scenario(policy, 3));
    trace::NullSink null_sink;
    const exp::ScenarioResult traced = record_into(null_sink, policy, 3);

    EXPECT_EQ(plain.summary.accepted, traced.summary.accepted);
    EXPECT_EQ(plain.summary.rejected_at_submit, traced.summary.rejected_at_submit);
    EXPECT_EQ(plain.summary.killed, traced.summary.killed);
    EXPECT_EQ(plain.summary.fulfilled_pct, traced.summary.fulfilled_pct);
    EXPECT_EQ(plain.summary.avg_slowdown_fulfilled,
              traced.summary.avg_slowdown_fulfilled);
    EXPECT_EQ(plain.admission.nodes_scanned, traced.admission.nodes_scanned);
    EXPECT_EQ(plain.admission.empty_node_skips, traced.admission.empty_node_skips);
    ASSERT_EQ(plain.outcomes.size(), traced.outcomes.size());
    for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
      EXPECT_EQ(plain.outcomes[i].fate, traced.outcomes[i].fate);
      EXPECT_EQ(plain.outcomes[i].delay, traced.outcomes[i].delay);
    }
  }
}

TEST(TraceRecorder, EnabledTracksSinkDiscards) {
  trace::Recorder detached;
  EXPECT_FALSE(detached.enabled());
  trace::NullSink null_sink;
  trace::Recorder null_recorder(null_sink);
  EXPECT_FALSE(null_recorder.enabled());
  std::ostringstream os;
  trace::BinarySink binary(os, {"x", 0});
  trace::Recorder live(binary);
  EXPECT_TRUE(live.enabled());
}

TEST(TraceDiff, ReportsFirstDivergentEvent) {
  const std::string lrt = record_lrt(core::Policy::LibraRisk, 11);
  std::istringstream in(lrt);
  const trace::TraceData a = trace::read_lrt(in);
  ASSERT_GT(a.events.size(), 100u);

  trace::TraceData b = a;
  b.events[100].a += 1.0;  // inject a single-event divergence
  const trace::Divergence d = trace::first_divergence(a, b);
  EXPECT_EQ(d.kind, trace::Divergence::Kind::EventDiffers);
  EXPECT_EQ(d.index, 100u);
  EXPECT_FALSE(d.identical());
  const std::string report = trace::describe(d, a, b);
  EXPECT_NE(report.find("event 100"), std::string::npos);

  trace::TraceData shorter = a;
  shorter.events.pop_back();
  const trace::Divergence tail = trace::first_divergence(a, shorter);
  EXPECT_EQ(tail.kind, trace::Divergence::Kind::LengthDiffers);
  EXPECT_EQ(tail.index, a.events.size() - 1);

  trace::TraceData other_meta = a;
  other_meta.meta.seed = 12;
  EXPECT_EQ(trace::first_divergence(a, other_meta).kind,
            trace::Divergence::Kind::MetaDiffers);
  EXPECT_TRUE(trace::first_divergence(a, a).identical());
}

TEST(TraceReader, TruncatedAndCorruptBinaryFailCleanly) {
  const std::string lrt = record_lrt(core::Policy::Libra, 2);

  // Truncation anywhere — mid-header, mid-stream, missing footer.
  for (const std::size_t keep : {std::size_t{2}, std::size_t{9},
                                 lrt.size() / 2, lrt.size() - 3}) {
    std::istringstream in(lrt.substr(0, keep));
    EXPECT_THROW(trace::read_lrt(in), trace::TraceError) << "keep=" << keep;
  }
  // A flipped payload byte must be caught (checksum or field validation).
  std::string corrupt = lrt;
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
  std::istringstream corrupt_in(corrupt);
  EXPECT_THROW(trace::read_lrt(corrupt_in), trace::TraceError);
  // Trailing garbage after the checksummed footer is not silently ignored.
  std::istringstream trailing_in(lrt + "x");
  EXPECT_THROW(trace::read_lrt(trailing_in), trace::TraceError);
  // Wrong magic.
  std::string wrong_magic = lrt;
  wrong_magic[0] = 'X';
  std::istringstream magic_in(wrong_magic);
  EXPECT_THROW(trace::read_lrt(magic_in), trace::TraceError);
  // The intact stream still reads fine after all that.
  std::istringstream ok_in(lrt);
  EXPECT_NO_THROW(trace::read_lrt(ok_in));
}

TEST(TraceReader, MalformedJsonlFailsCleanly) {
  std::istringstream not_a_trace("{\"hello\":1}\n");
  EXPECT_THROW(trace::read_jsonl(not_a_trace), trace::TraceError);

  const std::string jsonl = record_jsonl(core::Policy::Libra, 2);
  const std::size_t first_newline = jsonl.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  std::string bad_event = jsonl.substr(0, first_newline + 1) +
                          "{\"t\":0,\"kind\":\"not_a_kind\",\"job\":1}\n";
  std::istringstream bad_in(bad_event);
  EXPECT_THROW(trace::read_jsonl(bad_in), trace::TraceError);
}

// Integer fields arrive as JSON numbers; a value the integer type cannot
// hold (negative seed, fractional or huge job id, unknown version) is a
// TraceError naming the line, never a wrapped or undefined cast.
TEST(TraceReader, JsonlIntegerFieldsAreRangeChecked) {
  const std::string meta =
      "{\"trace\":\"librisk\",\"version\":2,\"policy\":\"Libra\",\"seed\":3}\n";
  const auto expect_rejected = [](const std::string& text, const char* line) {
    std::istringstream in(text);
    try {
      (void)trace::read_jsonl(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const trace::TraceError& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos) << e.what();
    }
  };
  expect_rejected("{\"trace\":\"librisk\",\"seed\":-1}\n", "line 1");
  expect_rejected("{\"trace\":\"librisk\",\"seed\":2.5}\n", "line 1");
  expect_rejected("{\"trace\":\"librisk\",\"seed\":1e30}\n", "line 1");
  expect_rejected("{\"trace\":\"librisk\",\"version\":300}\n", "line 1");
  expect_rejected("{\"trace\":\"librisk\",\"version\":0}\n", "line 1");
  expect_rejected("{\"trace\":\"librisk\",\"version\":1.5}\n", "line 1");
  expect_rejected(meta + "{\"t\":0,\"kind\":\"job_submitted\",\"job\":1e300}\n",
                  "line 2");
  expect_rejected(meta + "{\"t\":0,\"kind\":\"job_submitted\",\"job\":-1e19}\n",
                  "line 2");
  expect_rejected(meta + "{\"t\":0,\"kind\":\"job_submitted\",\"job\":1.5}\n",
                  "line 2");
  expect_rejected(meta + "{\"t\":0,\"kind\":\"job_submitted\",\"job\":1e400}\n",
                  "line 2");

  std::istringstream ok(meta + "{\"t\":0,\"kind\":\"job_submitted\",\"job\":-1}\n" +
                        "{\"t\":1,\"kind\":\"job_submitted\",\"job\":4611686018427387904}\n");
  const trace::TraceData data = trace::read_jsonl(ok);
  EXPECT_EQ(data.meta.seed, 3u);
  EXPECT_EQ(data.version, 2);
  ASSERT_EQ(data.events.size(), 2u);
  EXPECT_EQ(data.events[0].job, -1);
  EXPECT_EQ(data.events[1].job, std::int64_t{1} << 62);
}

TEST(TraceSummary, CountsMatchAdmissionStats) {
  std::ostringstream os;
  trace::BinarySink sink(os, {"LibraRisk", 11});
  const exp::ScenarioResult r = record_into(sink, core::Policy::LibraRisk, 11);

  std::istringstream in(os.str());
  const trace::TraceData data = trace::read_lrt(in);
  const trace::TraceSummary s = trace::summarize(data.events);

  EXPECT_EQ(s.count(trace::EventKind::JobSubmitted), 200u);
  EXPECT_EQ(s.count(trace::EventKind::JobAdmitted),
            static_cast<std::uint64_t>(r.summary.accepted));
  EXPECT_EQ(s.count(trace::EventKind::JobRejected),
            static_cast<std::uint64_t>(r.summary.rejected_at_submit));
  EXPECT_EQ(s.count(trace::EventKind::JobStarted),
            static_cast<std::uint64_t>(r.summary.accepted));
  // Per-reason attribution in the trace agrees with AdmissionStats.
  using trace::RejectionReason;
  EXPECT_EQ(s.rejected_by_reason[static_cast<int>(RejectionReason::ShareOverflow)],
            r.admission.rejected_share_overflow);
  EXPECT_EQ(s.rejected_by_reason[static_cast<int>(RejectionReason::RiskSigma)],
            r.admission.rejected_risk_sigma);
  EXPECT_EQ(s.rejected_by_reason[static_cast<int>(RejectionReason::NoSuitableNode)],
            r.admission.rejected_no_suitable_node);
}

TEST(TraceAdmission, PerReasonCountersSumToRejections) {
  for (const core::Policy policy : {core::Policy::Libra, core::Policy::LibraRisk}) {
    const exp::ScenarioResult r = exp::run_scenario(small_scenario(policy, 11));
    const core::AdmissionStats& adm = r.admission;
    EXPECT_EQ(adm.rejected_share_overflow + adm.rejected_risk_sigma +
                  adm.rejected_no_suitable_node,
              adm.rejections)
        << core::to_string(policy);
    ASSERT_GT(adm.rejections, 0u) << core::to_string(policy);
    // Policy-defining attribution: Libra rejects on the total-share test,
    // LibraRisk on the sigma test.
    if (policy == core::Policy::Libra) {
      EXPECT_EQ(adm.rejected_risk_sigma, 0u);
      EXPECT_GT(adm.rejected_share_overflow, 0u);
    } else {
      EXPECT_EQ(adm.rejected_share_overflow, 0u);
      EXPECT_GT(adm.rejected_risk_sigma, 0u);
    }
  }
}

// ---- format v2: version negotiation + margin payloads ----

std::string record_lrt_margins(core::Policy policy, std::uint64_t seed) {
  std::ostringstream os;
  trace::BinarySink sink(os, {std::string(core::to_string(policy)), seed},
                         {.margins = true});
  record_into(sink, policy, seed);
  return os.str();
}

TEST(TraceFormat, V1FixtureStillReads) {
  // Checked-in blob written by the version-1 encoder (before the margins
  // flag existed) — the compatibility contract, pinned as bytes on disk.
  const std::string fixture =
      std::string(LIBRISK_TEST_DATA_DIR) + "/trace_v1.lrt";
  const trace::TraceData v1 = trace::read_trace_file(fixture);
  EXPECT_EQ(v1.version, trace::kLrtVersionV1);
  EXPECT_FALSE(v1.has_margins);
  EXPECT_EQ(v1.meta.policy, "LibraRisk");
  EXPECT_EQ(v1.meta.seed, 7u);
  EXPECT_EQ(v1.events.size(), 419u);
  for (const trace::Event& e : v1.events) ASSERT_EQ(e.margin, 0.0);

  // Round trip through the current encoder: same meta, same events; only
  // the container version differs, and diff sees them as identical.
  std::ostringstream os;
  trace::BinarySink sink(os, v1.meta);
  for (const trace::Event& e : v1.events) sink.write(e);
  sink.close();
  std::istringstream in(os.str());
  const trace::TraceData v2 = trace::read_lrt(in);
  EXPECT_EQ(v2.version, trace::kLrtVersion);
  EXPECT_EQ(v2.meta, v1.meta);
  ASSERT_EQ(v2.events.size(), v1.events.size());
  for (std::size_t i = 0; i < v1.events.size(); ++i)
    ASSERT_EQ(v2.events[i], v1.events[i]) << "event " << i;
  EXPECT_TRUE(trace::first_divergence(v1, v2).identical());
}

TEST(TraceFormat, DeferredOverloadFixtureStillReads) {
  // Checked-in blob from a LibraRisk defer-to-salvage run (a mode since
  // deleted): `trace record --policy LibraRisk --overload-mode
  // defer-to-salvage --load-scale 0.35 --jobs 60 --nodes 8`. Nothing writes
  // JobDeferred any more, but traces that carry it must still load.
  const std::string fixture =
      std::string(LIBRISK_TEST_DATA_DIR) + "/overload_deferred.lrt";
  const trace::TraceData data = trace::read_trace_file(fixture);
  EXPECT_EQ(data.version, trace::kLrtVersion);
  EXPECT_FALSE(data.has_margins);
  EXPECT_EQ(data.meta.policy, "LibraRisk");
  EXPECT_EQ(data.meta.seed, 1u);
  const trace::TraceSummary s = trace::summarize(data.events);
  EXPECT_EQ(s.total, 477u);
  EXPECT_EQ(s.count(trace::EventKind::JobSubmitted), 60u);
  EXPECT_EQ(s.count(trace::EventKind::JobAdmitted), 21u);
  EXPECT_EQ(s.count(trace::EventKind::JobRejected), 39u);
  EXPECT_EQ(s.count(trace::EventKind::ModeTransition), 2u);
  EXPECT_EQ(s.count(trace::EventKind::JobDeferred), 9u);
  EXPECT_EQ(s.count(trace::EventKind::JobDegradedAdmit), 0u);

  // Header flag bit 1 (reserved, once "may carry overload kinds") is still
  // accepted: set it, re-stamp the FNV-1a checksum, and the same events
  // read back.
  std::ifstream in(fixture, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 14u);
  bytes[5] = static_cast<char>(bytes[5] | trace::kLrtFlagOverload);
  std::uint64_t hash = trace::kFnvOffset;
  for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
    hash ^= static_cast<std::uint8_t>(bytes[i]);
    hash *= trace::kFnvPrime;
  }
  for (std::size_t i = 0; i < 8; ++i)
    bytes[bytes.size() - 8 + i] = static_cast<char>((hash >> (8 * i)) & 0xFF);
  std::istringstream flagged(bytes);
  const trace::TraceData reread = trace::read_lrt(flagged);
  EXPECT_EQ(reread.meta, data.meta);
  EXPECT_EQ(reread.events, data.events);
}

TEST(TraceFormat, MarginsRoundTripBothFormats) {
  const std::uint64_t seed = 11;
  std::ostringstream lrt_os, jsonl_os;
  trace::BinarySink lrt_sink(lrt_os, {"LibraRisk", seed}, {.margins = true});
  record_into(lrt_sink, core::Policy::LibraRisk, seed);
  trace::JsonlSink jsonl_sink(jsonl_os, {"LibraRisk", seed},
                              {.margins = true});
  record_into(jsonl_sink, core::Policy::LibraRisk, seed);

  std::istringstream lrt_in(lrt_os.str());
  std::istringstream jsonl_in(jsonl_os.str());
  const trace::TraceData a = trace::read_lrt(lrt_in);
  const trace::TraceData b = trace::read_jsonl(jsonl_in);
  EXPECT_EQ(a.version, trace::kLrtVersion);
  EXPECT_TRUE(a.has_margins);
  EXPECT_TRUE(b.has_margins);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    ASSERT_EQ(a.events[i], b.events[i]) << "event " << i;
  // The payload is real: a LibraRisk run rejects, and every rejection's
  // decisive test failed by a strictly positive amount.
  bool nonzero_margin = false;
  for (const trace::Event& e : a.events)
    nonzero_margin |= e.margin != 0.0;
  EXPECT_TRUE(nonzero_margin);
}

TEST(TraceDiff, CrossVersionComparisonIgnoresMargins) {
  // Same scenario recorded with and without margin payloads: the decisions
  // are identical (margins only observe), so diff — which compares margins
  // only when *both* sides carry them — reports no divergence.
  const std::string plain = record_lrt(core::Policy::LibraRisk, 11);
  const std::string margins = record_lrt_margins(core::Policy::LibraRisk, 11);
  EXPECT_NE(plain, margins);  // the files differ (flags byte + payloads)...

  std::istringstream plain_in(plain);
  std::istringstream margins_in(margins);
  const trace::TraceData a = trace::read_lrt(plain_in);
  const trace::TraceData b = trace::read_lrt(margins_in);
  EXPECT_FALSE(a.has_margins);
  EXPECT_TRUE(b.has_margins);
  // ...but the decision streams do not.
  EXPECT_TRUE(trace::first_divergence(a, b).identical());
  EXPECT_TRUE(trace::first_divergence(b, a).identical());

  // Two margin-carrying traces *are* compared margin-and-all: a margin-only
  // perturbation is a divergence there.
  std::istringstream again_in(margins);
  trace::TraceData c = trace::read_lrt(again_in);
  std::size_t perturbed = c.events.size();
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    if (c.events[i].margin != 0.0) {
      c.events[i].margin += 0.5;
      perturbed = i;
      break;
    }
  }
  ASSERT_LT(perturbed, c.events.size());
  const trace::Divergence d = trace::first_divergence(b, c);
  EXPECT_EQ(d.kind, trace::Divergence::Kind::EventDiffers);
  EXPECT_EQ(d.index, perturbed);
}

/// Drives `librisk-sim trace ...` in-process against real temp files.
class TraceToolTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    const std::filesystem::path p = std::filesystem::temp_directory_path() /
                                    ("librisk_test_trace_" + name);
    created_.push_back(p.string());
    return p.string();
  }
  void TearDown() override {
    for (const std::string& p : created_) std::remove(p.c_str());
  }
  static int tool(const std::vector<std::string>& args, std::string* out_text = nullptr) {
    std::ostringstream out, err;
    const int code = tool::run_command("trace", args, out, err);
    if (out_text != nullptr) *out_text = out.str() + err.str();
    return code;
  }

 private:
  std::vector<std::string> created_;
};

TEST_F(TraceToolTest, RecordSummaryDiffEndToEnd) {
  const std::string a = path("a.lrt");
  const std::string b = path("b.lrt");
  const std::string c = path("c.jsonl");
  ASSERT_EQ(tool({"record", "--jobs=200", "--nodes=32", "--seed=4",
                  "--policy=LibraRisk", "--out=" + a}),
            0);
  ASSERT_EQ(tool({"record", "--jobs=200", "--nodes=32", "--seed=4",
                  "--policy=LibraRisk", "--out=" + b}),
            0);
  ASSERT_EQ(tool({"record", "--jobs=200", "--nodes=32", "--seed=5",
                  "--policy=LibraRisk", "--format=jsonl", "--out=" + c}),
            0);

  std::string text;
  EXPECT_EQ(tool({"diff", "--a=" + a, "--b=" + b}, &text), 0) << text;
  EXPECT_NE(text.find("identical"), std::string::npos);

  // Different seed: exit code 1 and a report naming the divergence.
  EXPECT_EQ(tool({"diff", "--a=" + a, "--b=" + c}, &text), 1);
  EXPECT_NE(text.find("seed"), std::string::npos);

  EXPECT_EQ(tool({"summary", "--in=" + a}, &text), 0);
  EXPECT_NE(text.find("job_submitted"), std::string::npos);
  EXPECT_NE(text.find("risk_sigma"), std::string::npos);

  // Multi-file summary renders the per-policy breakdown table.
  EXPECT_EQ(tool({"summary", "--in=" + a + "," + c}, &text), 0);
  EXPECT_NE(text.find("submitted"), std::string::npos);

  EXPECT_EQ(tool({"frobnicate"}, &text), 2);
}

TEST_F(TraceToolTest, RecordMarginsAndExplain) {
  const std::string m = path("m.lrt");
  const std::string plain = path("plain.lrt");
  ASSERT_EQ(tool({"record", "--jobs=200", "--nodes=32", "--seed=4",
                  "--policy=LibraRisk", "--margins", "--out=" + m}),
            0);
  ASSERT_EQ(tool({"record", "--jobs=200", "--nodes=32", "--seed=4",
                  "--policy=LibraRisk", "--out=" + plain}),
            0);

  // Margins are payload, not decisions: diff across the two is clean.
  std::string text;
  EXPECT_EQ(tool({"diff", "--a=" + plain, "--b=" + m}, &text), 0) << text;

  // Explain reconstructs a decision; job ids are sequential, so 5 exists.
  EXPECT_EQ(tool({"explain", "--in=" + m, "--job=5"}, &text), 0);
  EXPECT_NE(text.find("job 5"), std::string::npos);
  EXPECT_TRUE(text.find("ACCEPTED") != std::string::npos ||
              text.find("REJECTED") != std::string::npos)
      << text;

  // Margin-free traces explain too, with a warning.
  EXPECT_EQ(tool({"explain", "--in=" + plain, "--job=5"}, &text), 0);
  EXPECT_NE(text.find("without margins"), std::string::npos);

  // Unknown job / missing flags are parse errors (exit 2).
  EXPECT_EQ(tool({"explain", "--in=" + m, "--job=99999"}, &text), 2);
  EXPECT_EQ(tool({"explain", "--in=" + m}, &text), 2);
}

}  // namespace
}  // namespace librisk
