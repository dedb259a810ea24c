// End-to-end checks of the explore_cli binary: flag handling must be
// strict (unknown or malformed options exit non-zero, in SDF and CSDF
// mode alike), and the runtime flags (--deadline-ms, --stats, --trace)
// must work through the real tool — including the stats/trace
// flush on every exit path (success, deadlock, expired deadline). The
// binary and graph paths are injected by CMake (EXPLORE_CLI_PATH /
// EXAMPLE_GRAPHS_DIR).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "json_check.hpp"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult run_cli(const std::string& args) {
  const std::string command =
      std::string(EXPLORE_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  RunResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string graph(const char* name) {
  return std::string(EXAMPLE_GRAPHS_DIR) + "/" + name;
}

TEST(ExploreCli, NoArgumentsIsUsageError) {
  const RunResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(ExploreCli, UnknownFlagIsRejected) {
  const RunResult r = run_cli(graph("example.xml") + " --bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--bogus'"), std::string::npos)
      << r.output;
}

TEST(ExploreCli, UnknownFlagIsRejectedInCsdfMode) {
  // Regression: the CSDF pre-scan used to ignore unrecognised options.
  const RunResult r =
      run_cli(graph("distcol.csdf.sdf") + " --csdf --bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--bogus'"), std::string::npos)
      << r.output;
}

TEST(ExploreCli, UnsupportedCsdfCombinationIsRejected) {
  const RunResult r =
      run_cli(graph("distcol.csdf.sdf") + " --csdf --stats");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("not supported in --csdf mode"),
            std::string::npos)
      << r.output;
}

TEST(ExploreCli, MissingValueIsRejected) {
  const RunResult r = run_cli(graph("example.xml") + " --levels");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("missing value"), std::string::npos) << r.output;
}

TEST(ExploreCli, BadEngineIsRejected) {
  const RunResult r = run_cli(graph("example.xml") + " --engine turbo");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(ExploreCli, ZeroThreadsIsRejected) {
  const RunResult r = run_cli(graph("example.xml") + " --threads 0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--threads'"), std::string::npos)
      << r.output;
}

TEST(ExploreCli, ThreadsIsAnUnknownFlag) {
  // Explorations are single-threaded: --threads is no option at all, with
  // or without a value.
  for (const char* args : {" --threads 2", " --threads"}) {
    const RunResult r = run_cli(graph("example.xml") + args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("unknown option '--threads'"), std::string::npos)
        << r.output;
  }
}

TEST(ExploreCli, ValidRunSucceeds) {
  const RunResult r = run_cli(graph("example.xml"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Pareto points:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("<4, 2>"), std::string::npos) << r.output;
}

TEST(ExploreCli, AuditRunReportsChecksAndNoViolations) {
  const RunResult r = run_cli(graph("example.xml") + " --audit");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Pareto points:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("audit:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 violations"), std::string::npos) << r.output;
}

TEST(ExploreCli, AuditDoesNotChangeTheParetoFront) {
  const RunResult plain = run_cli(graph("example.xml"));
  const RunResult audited = run_cli(graph("example.xml") + " --audit");
  EXPECT_EQ(plain.exit_code, 0);
  EXPECT_EQ(audited.exit_code, 0);
  const auto pareto_of = [](const std::string& out) {
    const std::size_t from = out.find("Pareto points:");
    const std::size_t to = out.find("audit:");
    return from == std::string::npos
               ? std::string()
               : out.substr(from, to == std::string::npos ? std::string::npos
                                                          : to - from);
  };
  EXPECT_EQ(pareto_of(plain.output), pareto_of(audited.output));
}

TEST(ExploreCli, AuditIsRejectedInCsdfMode) {
  const RunResult r = run_cli(graph("distcol.csdf.sdf") + " --csdf --audit");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("not supported in --csdf mode"),
            std::string::npos)
      << r.output;
}

TEST(ExploreCli, StatsEmitsJsonCounters) {
  const RunResult r = run_cli(graph("example.xml") + " --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"points_explored\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"cancelled\": false"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\nbackend: "), std::string::npos) << r.output;
}

TEST(ExploreCli, StatsEmitsHotpathCounters) {
  const RunResult r = run_cli(graph("example.xml") + " --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* key : {"\"simulations\"", "\"cache_hits\"",
                          "\"dominance_skips\"", "\"sims_avoided\"",
                          "\"arena_bytes\""}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key << "\n" << r.output;
  }
}

TEST(ExploreCli, NoCacheRunMatchesCachedOutput) {
  const RunResult cached = run_cli(graph("example.xml") + " --engine exh");
  const RunResult uncached =
      run_cli(graph("example.xml") + " --engine exh --no-cache");
  EXPECT_EQ(cached.exit_code, 0) << cached.output;
  EXPECT_EQ(uncached.exit_code, 0) << uncached.output;
  const auto pareto_of = [](const std::string& out) {
    const std::size_t at = out.find("Pareto points:");
    return at == std::string::npos ? std::string() : out.substr(at);
  };
  EXPECT_EQ(pareto_of(cached.output), pareto_of(uncached.output));
}

TEST(ExploreCli, NoCacheIsRejectedInCsdfMode) {
  const RunResult r =
      run_cli(graph("distcol.csdf.sdf") + " --csdf --no-cache");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("not supported in --csdf mode"),
            std::string::npos)
      << r.output;
}

TEST(ExploreCli, ExpiredDeadlineStillExitsCleanly) {
  const RunResult r =
      run_cli(graph("modem.sdf") + " --deadline-ms 0 --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"cancelled\": true"), std::string::npos)
      << r.output;
}

TEST(ExploreCli, ExpiredDeadlineStatsKeepEveryCounter) {
  // Regression: the cancellation exit path must print the same counter
  // set as a full run — nothing dropped because the exploration stopped.
  const RunResult r =
      run_cli(graph("modem.sdf") + " --deadline-ms 0 --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* key :
       {"\"points_explored\"", "\"simulations\"", "\"cache_hits\"",
        "\"dominance_skips\"", "\"sims_avoided\"", "\"arena_bytes\"",
        "\"trace_events\"", "\"seconds\"", "\"cancelled\""}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key << "\n"
                                                     << r.output;
  }
}

TEST(ExploreCli, DeadlockedGraphStillEmitsStats) {
  // Regression: the all-deadlock early exit used to skip the stats line.
  const RunResult r = run_cli(graph("deadlock.sdf") + " --stats");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("deadlocks under every storage distribution"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"points_explored\""), std::string::npos)
      << r.output;
}

TEST(ExploreCli, TraceMissingValueIsRejected) {
  const RunResult r = run_cli(graph("example.xml") + " --trace");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("missing value"), std::string::npos) << r.output;
}

TEST(ExploreCli, TraceIsRejectedInCsdfMode) {
  const RunResult r =
      run_cli(graph("distcol.csdf.sdf") + " --csdf --trace /tmp/t.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("not supported in --csdf mode"),
            std::string::npos)
      << r.output;
}

TEST(ExploreCli, TraceWritesValidChromeJson) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "buffy_cli_h263_trace.json";
  fs::remove(path);
  const RunResult r = run_cli(graph("h263.xml") + " --trace " +
                              path.string() + " --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("trace events"), std::string::npos) << r.output;
  // The collector's event count flows into the stats JSON.
  EXPECT_NE(r.output.find("\"trace_events\""), std::string::npos)
      << r.output;

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // Schema check: valid JSON overall, Chrome trace_event shape, and the
  // exploration kinds the h263 run must contain.
  std::string why;
  EXPECT_TRUE(buffy::testing::is_valid_json(json, &why)) << why;
  for (const char* needle :
       {"\"traceEvents\"", "\"displayTimeUnit\"", "\"ph\": \"X\"",
        "\"pid\"", "\"tid\"", "\"exploration\"", "\"simulation\"",
        "\"pareto_point\"", "\"args\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  fs::remove(path);
}

TEST(ExploreCli, TraceOutputMentionedInUsage) {
  const RunResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace"), std::string::npos) << r.output;
}

}  // namespace
