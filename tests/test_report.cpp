// Tests for the report layer (trace/report.hpp): the Markdown builder,
// the EXPERIMENTS.md manifest/stitcher, and a golden-file check of the
// Table 1 fragment produced end-to-end by the real bench binary
// (BENCH_TABLE1_PATH / GOLDEN_DIR are injected by CMake).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "base/diagnostics.hpp"
#include "trace/report.hpp"

namespace buffy {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ReportFragment, RendersBlocksInOrder) {
  trace::ReportFragment f("Title here", "bench_something");
  f.paragraph("A paragraph.");
  f.bullet("first");
  f.bullet("second");
  f.table({"a", "b"}, {{"1", "2"}, {"3", "4"}});
  f.code_block("line1\nline2");
  const std::string md = f.str();

  EXPECT_EQ(md.find("## Title here\n"), 0u);
  EXPECT_NE(md.find("Binary: `bench_something`\n"), std::string::npos);
  EXPECT_NE(md.find("A paragraph.\n"), std::string::npos);
  // Consecutive bullets form one list.
  EXPECT_NE(md.find("- first\n- second\n"), std::string::npos);
  EXPECT_NE(md.find("| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n"),
            std::string::npos);
  EXPECT_NE(md.find("```\nline1\nline2\n```\n"), std::string::npos);
  // Exactly one trailing newline.
  ASSERT_FALSE(md.empty());
  EXPECT_EQ(md.back(), '\n');
  EXPECT_NE(md[md.size() - 2], '\n');
}

TEST(ReportFragment, TableRejectsRaggedRows) {
  trace::ReportFragment f("t", "b");
  EXPECT_THROW(f.table({"a", "b"}, {{"only-one-cell"}}), Error);
}

TEST(ReportFragment, WriteCreatesDirectoriesAndFile) {
  const fs::path dir =
      fs::temp_directory_path() / "buffy_report_test" / "nested";
  fs::remove_all(dir.parent_path());
  trace::ReportFragment f("t", "b");
  f.paragraph("content");
  const std::string path = f.write(dir.string(), "frag");
  EXPECT_EQ(read_file(path), f.str());
  fs::remove_all(dir.parent_path());
}

TEST(ExperimentsManifest, NamesEveryReproductionBench) {
  const auto& manifest = trace::experiments_manifest();
  ASSERT_EQ(manifest.size(), 15u);
  // Paper order first, extensions later; hotpath/lanes close
  // the file.
  EXPECT_STREQ(manifest.front().fragment, "table1_schedule");
  EXPECT_STREQ(manifest.front().binary, "bench_table1_schedule");
  EXPECT_STREQ(manifest.back().fragment, "simd_lanes");
  EXPECT_STREQ(manifest.back().binary, "bench_simd_lanes");
}

TEST(StitchExperiments, MissingFragmentsAreNamedInTheError) {
  const fs::path dir = fs::temp_directory_path() / "buffy_empty_report";
  fs::remove_all(dir);
  fs::create_directories(dir);
  try {
    (void)trace::stitch_experiments(dir.string());
    FAIL() << "expected Error for missing fragments";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("table1_schedule"), std::string::npos) << what;
    EXPECT_NE(what.find("bench_table1_schedule"), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

// Golden end-to-end check: the real bench binary regenerates the Table 1
// fragment byte-identically to the checked-in golden copy. Pins both the
// Gantt renderer and the fragment formatting.
TEST(GoldenReport, Table1FragmentMatchesGoldenFile) {
  const fs::path dir = fs::temp_directory_path() / "buffy_golden_report";
  fs::remove_all(dir);
  const std::string command = std::string(BENCH_TABLE1_PATH) +
                              " --report-dir " + dir.string() +
                              " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  const std::string produced = read_file(dir / "table1_schedule.md");
  const std::string golden =
      read_file(fs::path(GOLDEN_DIR) / "table1_schedule.md");
  EXPECT_EQ(produced, golden)
      << "bench_table1_schedule's report fragment drifted from "
         "tests/golden/table1_schedule.md; if the change is intended, "
         "refresh the golden file (and report/ + EXPERIMENTS.md).";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace buffy
