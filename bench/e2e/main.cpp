// librisk_e2e: the end-to-end benchmark program (bench/e2e/README.md).
//
//   librisk_e2e --workload paper-128 --seed 1 [--seconds 10] [--trace 1]
//   librisk_e2e --all            every workload, one child process each
//   librisk_e2e --smoke          one repetition at a tenth of the jobs
//
// Prints every metric as `<workload> <metric> <value> <unit>`, writes a
// result file with provenance to --out, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer ones (--trace 1). Exits 1 when any
// operation failed or a decision digest differs.
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace librisk::e2e {
namespace {

/// Shortest round-trip form; JSON null for NaN and infinities.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc{} ? std::string(buf, end) : std::string("null");
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::EndToEnd: return "end_to_end";
    case Kind::Layer: return "per_layer";
    case Kind::Detail: return "detail";
  }
  return "?";
}

/// The current UTC time in strftime `format`.
std::string utc_now(const char* format) {
  char buf[32];
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  std::strftime(buf, sizeof(buf), format, &utc);
  return buf;
}

std::string self_path() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

// ---- provenance ----

/// Runs a shell command and returns its trimmed standard output.
std::string command_output(const std::string& command) {
  std::string out;
  if (FILE* pipe = popen(command.c_str(), "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
  return out;
}

std::string provenance_json() {
  const std::string root = E2E_SOURCE_ROOT;
  const std::string git = "git -C '" + root + "' ";
  // Only trust git when the source root is itself the work tree's top.
  std::string sha = "unknown";
  std::string dirty = "null";
  std::error_code ec;
  const std::filesystem::path top =
      command_output(git + "rev-parse --show-toplevel 2>/dev/null");
  if (!top.empty() && std::filesystem::equivalent(top, root, ec)) {
    sha = command_output(git + "rev-parse HEAD 2>/dev/null");
    const std::string changes =
        command_output(git + "status --porcelain --untracked-files=no 2>/dev/null");
    dirty = changes.empty() ? "false" : "true";
  }
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;

  std::ostringstream os;
  os << "{\"git_sha\": " << quoted(sha) << ", \"git_dirty\": " << dirty
     << ", \"build_type\": " << quoted(E2E_BUILD_TYPE)
     << ", \"compiler\": " << quoted(E2E_COMPILER)
     << ", \"cxx_flags\": " << quoted(E2E_CXX_FLAGS)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"loadavg\": ["
     << number(load[0]) << ", " << number(load[1]) << ", " << number(load[2])
     << "], \"date\": " << quoted(utc_now("%Y-%m-%dT%H:%M:%SZ")) << "}";
  return os.str();
}

// ---- correctness against the recorded digests ----

void check_expected(RunResult& result, const Options& opts, const std::string& path) {
  if (path.empty() || !std::filesystem::exists(path)) {
    std::cerr << "librisk_e2e: no recorded digests at '" << path << "'\n";
    return;
  }
  // doc[size][workload][seed] = {"digest", "fulfilled_pct"}; seeds without
  // an entry are checked for agreement between their own repetitions only.
  const json::Value doc = json::parse_file(path);
  const json::Value* entry = doc.find(opts.smoke ? "smoke" : "full");
  for (const std::string& key : {opts.workload, std::to_string(opts.seed)})
    entry = entry != nullptr ? entry->find(key) : nullptr;
  if (entry == nullptr) return;
  const std::string want = entry->string_or("digest", "");
  if (!want.empty() && want != hex(result.digest))
    result.fail(result.attempted, "digest " + hex(result.digest) +
                                      " differs from the recorded " + want);
  const json::Value* fulfilled = entry->find("fulfilled_pct");
  if (fulfilled != nullptr &&
      std::abs(fulfilled->as_number() - result.fulfilled_pct) > 1e-9)
    result.fail(result.attempted, "fulfilled_pct " + number(result.fulfilled_pct) +
                                      " differs from the recorded " +
                                      number(fulfilled->as_number()));
}

// ---- one workload ----

int run_one(const Options& opts, const std::string& expected) {
  RunResult result;
  try {
    result = is_replay_workload(opts.workload) ? run_replay_workload(opts)
                                               : run_gateway_open(opts);
    check_expected(result, opts, expected);
  } catch (const std::exception& e) {
    result.attempted = std::max<std::uint64_t>(result.attempted, 1);
    result.fail(result.attempted, std::string("exception: ") + e.what());
  }

  const Kind wanted = opts.trace ? Kind::Layer : Kind::EndToEnd;
  for (const Metric& m : result.metrics) {
    if (m.kind != wanted) continue;
    if (!std::isfinite(m.value) || (m.kind == Kind::EndToEnd && m.value <= 0.0))
      result.fail(1, m.name + " is " + number(m.value));
  }
  result.failed = std::min(result.failed, result.attempted);
  const bool correct = result.failed == 0;

  for (const Metric& m : result.metrics)
    std::cout << opts.workload << ' ' << m.name << ' ' << number(m.value) << ' ' << m.unit
              << '\n';
  std::cout << "# " << opts.workload << " seed " << opts.seed << " digest "
            << hex(result.digest) << " fulfilled_pct " << number(result.fulfilled_pct)
            << " reps " << result.reps << '\n';
  for (const std::string& p : result.problems)
    std::cerr << "librisk_e2e: " << opts.workload << ": " << p << '\n';

  // The result file: everything, with provenance.
  const std::string file = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0") + (opts.smoke ? "-smoke" : "") + "-" +
                           utc_now("%Y%m%dT%H%M%SZ") + "-" + std::to_string(getpid()) +
                           ".json";
  {
    std::ofstream os(file);
    os << "{\"workload\": " << quoted(opts.workload) << ", \"seed\": " << opts.seed
       << ", \"seconds\": " << number(opts.seconds)
       << ", \"trace\": " << (opts.trace ? 1 : 0)
       << ", \"smoke\": " << (opts.smoke ? "true" : "false")
       << ", \"reps\": " << result.reps
       << ", \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"failed_pct\": "
       << number(100.0 * static_cast<double>(result.failed) /
                 static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)))
       << ", \"digest\": " << quoted(hex(result.digest))
       << ", \"fulfilled_pct\": " << number(result.fulfilled_pct)
       << ",\n \"provenance\": " << provenance_json() << ",\n \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const Metric& m = result.metrics[i];
      os << (i == 0 ? "\n  " : ",\n  ") << quoted(m.name) << ": {\"value\": "
         << number(m.value) << ", \"unit\": " << quoted(m.unit)
         << ", \"kind\": " << quoted(kind_name(m.kind)) << "}";
    }
    os << "},\n \"problems\": [";
    for (std::size_t i = 0; i < result.problems.size(); ++i)
      os << (i == 0 ? "" : ", ") << quoted(result.problems[i]);
    os << "]}\n";
  }
  std::cout << "# result " << file << '\n';

  // The summary line, last on stdout.
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (m.kind != wanted) continue;
    std::cout << (first ? "" : ", ") << quoted(m.name)
              << ": {\"value\": " << number(m.value) << ", \"unit\": " << quoted(m.unit)
              << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

// ---- every workload, one process each (peak RSS is per process) ----

int run_all(const Options& opts, const std::string& expected) {
  const std::string self = self_path();
  int status_all = 0;
  for (const char* name : kWorkloads) {
    std::vector<std::string> args = {self,        "--workload", name,
                                     "--seed",    std::to_string(opts.seed),
                                     "--seconds", number(opts.seconds),
                                     "--trace",   opts.trace ? "1" : "0",
                                     "--out",     opts.out_dir,
                                     "--expected", expected};
    if (opts.smoke) args.emplace_back("--smoke");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    std::cout.flush();
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      execv(self.c_str(), argv.data());
      std::perror("execv");
      _exit(127);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      status_all = 1;
  }
  return status_all;
}

}  // namespace
}  // namespace librisk::e2e

int main(int argc, char** argv) {
  using namespace librisk;
  cli::Parser parser("librisk_e2e",
                     "End-to-end benchmark: streaming replay and open-loop gateway "
                     "workloads with a per-layer ledger");
  auto& workload = parser.add<std::string>(
      "workload", "paper-128 | libra-1024 | risk-heavy-1024 | gateway-open", "");
  auto& all = parser.add<bool>("all", "run every workload, one process each", false);
  auto& seed = parser.add<std::uint64_t>("seed", "workload seed", 1);
  auto& seconds =
      parser.add<double>("seconds", "time budget of the untraced repetitions", 10.0);
  auto& trace =
      parser.add<int>("trace", "1: add the traced repetition, report layers", 0);
  auto& smoke = parser.add<bool>("smoke", "one repetition at a tenth of the jobs", false);
  auto& out = parser.add<std::string>(
      "out", "result directory (default: <exe dir>/results)", "");
  auto& expected = parser.add<std::string>("expected", "recorded digests (JSON)",
                                           E2E_EXPECTED_FILE);
  try {
    parser.parse(argc, argv);
    if (trace.value != 0 && trace.value != 1)
      throw cli::ParseError("--trace must be 0 or 1");
    if (!(seconds.value > 0.0)) throw cli::ParseError("--seconds must be positive");

    e2e::Options opts;
    opts.workload = workload.value;
    opts.seed = seed.value;
    opts.seconds = seconds.value;
    opts.trace = trace.value == 1;
    opts.smoke = smoke.value;
    const std::filesystem::path exe_dir =
        std::filesystem::path(e2e::self_path()).parent_path();
    opts.out_dir = out.value.empty() ? (exe_dir / "results").string() : out.value;
    std::filesystem::create_directories(opts.out_dir);

    if (all.value || opts.workload.empty()) return e2e::run_all(opts, expected.value);
    if (!e2e::is_replay_workload(opts.workload) && opts.workload != "gateway-open")
      throw cli::ParseError("unknown workload '" + opts.workload + "'");
    return e2e::run_one(opts, expected.value);
  } catch (const std::exception& e) {
    std::cerr << "librisk_e2e: " << e.what() << '\n';
    return 2;
  }
}
