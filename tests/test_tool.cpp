#include "tools/commands.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace librisk::tool {
namespace {

struct ToolResult {
  int exit_code;
  std::string out;
  std::string err;
};

ToolResult run_tool(const std::string& command, std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_command(command, args, out, err);
  return ToolResult{code, out.str(), err.str()};
}

TEST(Tool, UsageListsEveryCommand) {
  const std::string u = usage();
  for (const char* cmd :
       {"run", "compare", "sweep", "workload", "replay", "trace", "metrics"})
    EXPECT_NE(u.find(cmd), std::string::npos) << cmd;
}

TEST(Tool, UnknownCommandFails) {
  const ToolResult r = run_tool("frobnicate", {});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Tool, MainEntryHandlesHelpAndMissingArgs) {
  std::ostringstream out, err;
  const char* help_argv[] = {"librisk-sim", "--help"};
  EXPECT_EQ(main_entry(2, help_argv, out, err), 0);
  EXPECT_NE(out.str().find("Commands"), std::string::npos);

  const char* bare_argv[] = {"librisk-sim"};
  EXPECT_EQ(main_entry(1, bare_argv, out, err), 2);
}

TEST(Tool, RunPrintsSummary) {
  const ToolResult r =
      run_tool("run", {"--jobs", "300", "--nodes", "32", "--policy", "Libra"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("== Libra =="), std::string::npos);
  EXPECT_NE(r.out.find("fulfilled %"), std::string::npos);
  EXPECT_NE(r.out.find("submitted"), std::string::npos);
}

TEST(Tool, RunRejectsBadFlagsAndPolicy) {
  EXPECT_EQ(run_tool("run", {"--bogus", "1"}).exit_code, 2);
  EXPECT_EQ(run_tool("run", {"--policy", "Nope"}).exit_code, 1);
  EXPECT_EQ(run_tool("run", {"--model", "weird"}).exit_code, 2);
}

TEST(Tool, RunWithGanttAndCar) {
  const ToolResult r = run_tool(
      "run", {"--jobs", "60", "--nodes", "8", "--policy", "LibraRisk",
              "--gantt", "--gantt-width", "40", "--car"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("node 0"), std::string::npos);
  EXPECT_NE(r.out.find("Computation-at-Risk"), std::string::npos);
}

TEST(Tool, RunSupportsLublinModelAndPredictor) {
  const ToolResult r = run_tool(
      "run", {"--jobs", "300", "--nodes", "32", "--model", "lublin", "--predictor"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("fulfilled %"), std::string::npos);
}

TEST(Tool, ComparePrintsEveryPolicyRow) {
  const ToolResult r = run_tool("compare", {"--jobs", "300", "--nodes", "32"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  for (const core::Policy p : core::all_policies())
    EXPECT_NE(r.out.find(std::string(core::to_string(p))), std::string::npos)
        << core::to_string(p);
}

TEST(Tool, SweepPrintsSeriesAndCsv) {
  const std::string csv_path = ::testing::TempDir() + "/tool_sweep.csv";
  const ToolResult r = run_tool(
      "sweep", {"--axis", "inaccuracy", "--jobs", "200", "--nodes", "16",
                "--seeds", "1", "--csv", csv_path});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("jobs with deadlines fulfilled"), std::string::npos);
  EXPECT_NE(r.out.find("LibraRisk"), std::string::npos);
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_NE(header.find("figure,x,policy"), std::string::npos);
}

TEST(Tool, SweepValidatesAxis) {
  EXPECT_EQ(run_tool("sweep", {"--axis", "nonsense"}).exit_code, 2);
}

TEST(Tool, WorkloadWritesSwfThatReplayReads) {
  const std::string swf_path = ::testing::TempDir() + "/tool_trace.swf";
  const ToolResult gen = run_tool(
      "workload", {"--jobs", "200", "--out", swf_path, "--deadlines=false"});
  EXPECT_EQ(gen.exit_code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote 200 jobs"), std::string::npos);

  const ToolResult replay = run_tool(
      "replay", {"--trace", swf_path, "--nodes", "32", "--last", "150"});
  EXPECT_EQ(replay.exit_code, 0) << replay.err;
  EXPECT_NE(replay.out.find("jobs: 150"), std::string::npos);
  EXPECT_NE(replay.out.find("LibraRisk"), std::string::npos);
}

TEST(Tool, StreamingReplayModesAgree) {
  const std::string swf_path = ::testing::TempDir() + "/tool_stream.swf";
  ASSERT_EQ(run_tool("workload", {"--jobs", "400", "--out", swf_path,
                                  "--deadlines=false"})
                .exit_code,
            0);
  // The summary table is the output's first block.
  const auto summary = [](const std::string& out) {
    return out.substr(0, out.find("\n\n"));
  };
  const ToolResult direct = run_tool("replay", {"--trace", swf_path, "--stream"});
  ASSERT_EQ(direct.exit_code, 0) << direct.err;
  EXPECT_NE(direct.out.find("400 jobs streamed"), std::string::npos);
  // One producer through the gateway decides exactly as the direct engine.
  const ToolResult gateway =
      run_tool("replay", {"--trace", swf_path, "--stream", "--threads", "1"});
  ASSERT_EQ(gateway.exit_code, 0) << gateway.err;
  EXPECT_NE(gateway.out.find("1 producer(s), 400 submitted"), std::string::npos);
  EXPECT_EQ(summary(direct.out), summary(gateway.out));

  const ToolResult federated =
      run_tool("replay", {"--trace", swf_path, "--stream", "--shards", "2"});
  ASSERT_EQ(federated.exit_code, 0) << federated.err;
  EXPECT_NE(federated.out.find("400 jobs routed"), std::string::npos);
  std::remove(swf_path.c_str());
}

TEST(Tool, ExplainAndTraceExplainPrintTheSameDecision) {
  // EDF queues job 292 and rejects it at dispatch, well after its
  // submission: the live run and the recorded trace both report the
  // decision instant, through the same fold.
  const std::string lrt = ::testing::TempDir() + "/tool_explain_edf.lrt";
  const ToolResult rec = run_tool(
      "trace", {"record", "--policy", "EDF", "--jobs", "300", "--nodes", "32",
                "--seed", "1", "--margins", "--out", lrt});
  ASSERT_EQ(rec.exit_code, 0) << rec.err;
  const ToolResult live = run_tool(
      "explain", {"--policy", "EDF", "--jobs", "300", "--nodes", "32", "--job", "292"});
  ASSERT_EQ(live.exit_code, 0) << live.err;
  const ToolResult offline =
      run_tool("trace", {"explain", "--in", lrt, "--job", "292"});
  ASSERT_EQ(offline.exit_code, 0) << offline.err;

  const std::string block = live.out.substr(0, live.out.find("\n\n") + 1);
  EXPECT_EQ(block, offline.out);
  EXPECT_NE(block.find("job 292 @ t=699745"), std::string::npos) << block;
  EXPECT_NE(block.find("REJECTED: deadline_infeasible"), std::string::npos);
  std::remove(lrt.c_str());
}

TEST(Tool, ConfigFileDrivesRun) {
  const std::string path = ::testing::TempDir() + "/tool_config.json";
  {
    std::ofstream out(path);
    out << R"({"jobs": 250, "nodes": 24, "policy": "Libra", "inaccuracy": 0})";
  }
  const ToolResult r = run_tool("run", {"--config", path});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("== Libra =="), std::string::npos);
  EXPECT_NE(r.out.find("250"), std::string::npos);  // submitted count
}

TEST(Tool, ExplicitFlagsOverrideConfig) {
  const std::string path = ::testing::TempDir() + "/tool_config2.json";
  {
    std::ofstream out(path);
    out << R"({"jobs": 250, "nodes": 24, "policy": "Libra"})";
  }
  const ToolResult r =
      run_tool("run", {"--config", path, "--policy", "EDF", "--jobs", "100"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("== EDF =="), std::string::npos);
  EXPECT_NE(r.out.find("100"), std::string::npos);
}

TEST(Tool, RepositoryExampleConfigParses) {
  const ToolResult r =
      run_tool("run", {"--config", "configs/example.json", "--jobs", "200",
                       "--nodes", "16"});
  // Depending on the test working directory the file may not resolve; both
  // a clean run and a clean file-not-found error are acceptable here — what
  // must not happen is a crash or a malformed-JSON error.
  if (r.exit_code == 0) {
    EXPECT_NE(r.out.find("fulfilled %"), std::string::npos);
  } else {
    EXPECT_NE(r.err.find("cannot open"), std::string::npos) << r.err;
  }
}

TEST(Tool, MalformedConfigFails) {
  const std::string path = ::testing::TempDir() + "/tool_bad.json";
  {
    std::ofstream out(path);
    out << "{ definitely not json";
  }
  const ToolResult r = run_tool("run", {"--config", path});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("JSON error"), std::string::npos) << r.err;
}

TEST(Tool, RunWithTelemetryExportsMatchSummary) {
  const std::string dir = ::testing::TempDir() + "/tool_telemetry";
  const ToolResult r = run_tool(
      "run", {"--jobs", "200", "--nodes", "32", "--policy", "LibraRisk",
              "--telemetry-out", dir, "--telemetry-period", "600", "--profile"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("Metrics:"), std::string::npos);
  EXPECT_NE(r.out.find("admission_accepted"), std::string::npos);
  EXPECT_NE(r.out.find("Phase profile"), std::string::npos);
  EXPECT_NE(r.out.find("telemetry written to"), std::string::npos);
  for (const char* name : {"/admission.csv", "/nodes.csv", "/metrics.txt"}) {
    std::ifstream f(dir + name);
    EXPECT_TRUE(f.good()) << name;
  }
}

TEST(Tool, MetricsRendersTableAndOpenMetrics) {
  const ToolResult table = run_tool(
      "metrics", {"--jobs", "150", "--nodes", "16", "--policy", "LibraRisk"});
  EXPECT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("admission_submissions"), std::string::npos);
  EXPECT_NE(table.out.find("kernel_settles"), std::string::npos);
  EXPECT_NE(table.out.find("histogram"), std::string::npos);

  const ToolResult om = run_tool(
      "metrics", {"--jobs", "150", "--nodes", "16", "--format", "openmetrics"});
  EXPECT_EQ(om.exit_code, 0) << om.err;
  EXPECT_NE(om.out.find("# TYPE admission_submissions counter"),
            std::string::npos);
  EXPECT_NE(om.out.find("admission_submissions_total 150"), std::string::npos);
  EXPECT_NE(om.out.find("# EOF"), std::string::npos);

  EXPECT_EQ(run_tool("metrics", {"--format", "yaml"}).exit_code, 2);
}

TEST(Tool, ReplayRequiresTrace) {
  const ToolResult r = run_tool("replay", {});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("--trace"), std::string::npos);
}

TEST(Tool, ReplayMissingFileFails) {
  const ToolResult r = run_tool("replay", {"--trace", "/no/such/file.swf"});
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Tool, RemovedOverloadModesAreUnknownEverywhere) {
  // Every command that takes --overload-mode rejects a deleted mode name
  // with the same clean usage error.
  const std::string expected =
      "error: unknown degraded mode: shed-tail (expected hard-reject | "
      "downgrade-qos)";
  const std::vector<std::vector<std::string>> invocations = {
      {"run"},     {"compare"}, {"sweep"},  {"workload"},
      {"metrics"}, {"explain"}, {"replay"}, {"trace", "record"}};
  for (const std::vector<std::string>& inv : invocations) {
    std::vector<std::string> args(inv.begin() + 1, inv.end());
    args.insert(args.end(), {"--overload-mode", "shed-tail"});
    const ToolResult r = run_tool(inv[0], args);
    EXPECT_EQ(r.exit_code, 2) << inv[0] << ": " << r.err;
    EXPECT_NE(r.err.find(expected), std::string::npos) << inv[0] << ": " << r.err;
  }
}

TEST(Tool, RemovedOverloadModeInConfigIsUnknown) {
  const std::string path = ::testing::TempDir() + "/tool_overload.json";
  {
    std::ofstream out(path);
    out << R"({"jobs": 50, "overload_mode": "relax-sigma"})";
  }
  const ToolResult r = run_tool("run", {"--config", path});
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_NE(r.err.find("error: unknown degraded mode: relax-sigma (expected "
                       "hard-reject | downgrade-qos)"),
            std::string::npos)
      << r.err;
  // The kept modes still run.
  EXPECT_EQ(run_tool("run", {"--jobs", "50", "--nodes", "8", "--policy", "EDF",
                             "--overload-mode", "downgrade-qos"})
                .exit_code,
            0);
}

}  // namespace
}  // namespace librisk::tool
