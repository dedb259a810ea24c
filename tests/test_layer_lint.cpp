// Drives the real layer_lint binary over synthetic module trees: each rule
// must fire on a minimal violation with a file:line diagnostic, stay quiet
// on the benign twin, and the real src/ tree must lint clean.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace fs = std::filesystem;

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_lint(const std::string& args) {
  const std::string command =
      std::string(LAYER_LINT_PATH) + " " + args + " 2>&1";
  RunResult result;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// A throwaway src/ tree: write_file("base/foo.hpp", ...) then lint it.
class LintTree {
 public:
  LintTree() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("layer_lint_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~LintTree() { fs::remove_all(root_); }

  void write_file(const std::string& rel, const std::string& content) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream out(path);
    out << content;
  }

  [[nodiscard]] RunResult lint() const { return run_lint(root_.string()); }
  [[nodiscard]] std::string path_of(const std::string& rel) const {
    return (root_ / rel).string();
  }

 private:
  fs::path root_;
};

TEST(LayerLint, RealSrcTreeIsClean) {
  const RunResult r = run_lint(SRC_DIR);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

TEST(LayerLint, UsageErrorExitsTwo) {
  EXPECT_EQ(run_lint("").exit_code, 2);
  EXPECT_EQ(run_lint("a b").exit_code, 2);
}

TEST(LayerLint, RejectsUpwardInclude) {
  LintTree tree;
  tree.write_file("state/engine.hpp", "#pragma once\n");
  tree.write_file("base/types.hpp",
                  "#pragma once\n#include \"state/engine.hpp\"\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Diagnostic carries the exact file:line and the rule id.
  EXPECT_NE(r.output.find(tree.path_of("base/types.hpp") + ":2: L1"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("upward include"), std::string::npos) << r.output;
}

TEST(LayerLint, AcceptsDownwardAndSameModuleIncludes) {
  LintTree tree;
  tree.write_file("base/types.hpp", "#pragma once\n");
  tree.write_file("state/helpers.hpp", "#pragma once\n");
  tree.write_file("state/engine.hpp",
                  "#pragma once\n#include \"base/types.hpp\"\n"
                  "#include \"state/helpers.hpp\"\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LayerLint, RejectsUnknownModule) {
  LintTree tree;
  tree.write_file("mystery/thing.hpp", "#pragma once\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("not in the layer table"), std::string::npos)
      << r.output;
}

TEST(LayerLint, RejectsThrowInHotPathHeader) {
  LintTree tree;
  tree.write_file("state/engine.hpp",
                  "#pragma once\ninline void f(bool b) {\n"
                  "  if (b) throw 1;\n}\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("state/engine.hpp") + ":3: L2"),
            std::string::npos)
      << r.output;
}

TEST(LayerLint, ThrowInHotPathCppOrCommentIsFine) {
  LintTree tree;
  // .cpp may throw; header comments and strings mentioning throw are prose.
  tree.write_file("state/engine.cpp", "void g() { throw 1; }\n");
  tree.write_file("state/engine.hpp",
                  "#pragma once\n// error paths throw in the .cpp\n"
                  "inline const char* k = \"never throw here\";\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LayerLint, RejectsRawIntInState) {
  LintTree tree;
  tree.write_file("state/engine.hpp",
                  "#pragma once\ninline int counter = 0;\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("state/engine.hpp") + ":2: L3"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("checked_math"), std::string::npos) << r.output;
}

TEST(LayerLint, CheckedTypesAndProseIntsAreFine) {
  LintTree tree;
  tree.write_file("state/engine.hpp",
                  "#pragma once\n#include <cstdint>\n"
                  "// a raw int would overflow here\n"
                  "inline std::int64_t tokens = 0;\n"
                  "inline std::uint32_t printed = 0;\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LayerLint, RejectsDiscardableAnalysisEntryPoint) {
  LintTree tree;
  tree.write_file("analysis/mcm.hpp",
                  "#pragma once\nstruct R {};\n"
                  "R max_cycle_ratio(int x);\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("analysis/mcm.hpp") + ":3: L4"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("max_cycle_ratio"), std::string::npos) << r.output;
}

TEST(LayerLint, RejectsLpIncludeOutsideBaseAndSdf) {
  LintTree tree;
  // exec/ sits BELOW lp/ in the rank table, so L1 stays quiet — only the
  // L5 closure rule can catch the dependency leak.
  tree.write_file("exec/progress.hpp", "#pragma once\n");
  tree.write_file("lp/simplex.hpp",
                  "#pragma once\n#include \"exec/progress.hpp\"\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("lp/simplex.hpp") + ":2: L5"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("only base/ and sdf/"), std::string::npos)
      << r.output;
}

TEST(LayerLint, LpMayIncludeBaseSdfAndItself) {
  LintTree tree;
  tree.write_file("base/rational.hpp", "#pragma once\n");
  tree.write_file("sdf/graph.hpp", "#pragma once\n");
  tree.write_file("lp/simplex.hpp", "#pragma once\n");
  tree.write_file("lp/sdf_model.hpp",
                  "#pragma once\n#include \"base/rational.hpp\"\n"
                  "#include \"sdf/graph.hpp\"\n#include \"lp/simplex.hpp\"\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LayerLint, RejectsThrowInLpHeader) {
  LintTree tree;
  tree.write_file("lp/simplex.hpp",
                  "#pragma once\ninline void f(bool b) {\n"
                  "  if (b) throw 1;\n}\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("lp/simplex.hpp") + ":3: L2"),
            std::string::npos)
      << r.output;
}

TEST(LayerLint, RejectsDiscardableLpEntryPoint) {
  LintTree tree;
  tree.write_file("lp/simplex.hpp",
                  "#pragma once\nstruct SolveResult {};\n"
                  "SolveResult solve(int x);\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("lp/simplex.hpp") + ":3: L4"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("solve"), std::string::npos) << r.output;
}

TEST(LayerLint, NodiscardAndVoidEntryPointsAreFine) {
  LintTree tree;
  tree.write_file("analysis/mcm.hpp",
                  "#pragma once\nstruct R {};\n"
                  "[[nodiscard]] R max_cycle_ratio(int x);\n"
                  "void require_consistent(const R& r);\n"
                  "class Solver {\n  R solve();\n};\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LayerLint, RejectsIntrinsicsAnywhereInSrc) {
  LintTree tree;
  // An intrinsic call in buffer/, an intrinsics header in a state/ file,
  // and intrinsics in the AVX2 kernel's own translation unit: the lane
  // kernel is portable code everywhere, so all three must fire L6.
  tree.write_file("buffer/hot.cpp",
                  "__m256i v = _mm256_setzero_si256();\n");
  tree.write_file("state/engine.cpp", "#include <immintrin.h>\n");
  tree.write_file("state/simd_avx2.cpp",
                  "#include <immintrin.h>\n"
                  "__m256i widen(__m256i m) { return _mm256_min_epi64(m, m); "
                  "}\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("hot.cpp:1: L6"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("engine.cpp:1: L6"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("simd_avx2.cpp:1: L6"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("simd_avx2.cpp:2: L6"), std::string::npos)
      << r.output;
}

TEST(LayerLint, ProseIntrinsicsAreFine) {
  LintTree tree;
  // Mentions in comments and string literals never count, in the kernel
  // files as anywhere else.
  tree.write_file("buffer/dse.cpp",
                  "// the kernel uses _mm256_min_epi64 internally\n"
                  "const char* s = \"__m256i _mm256_setzero_si256\";\n");
  tree.write_file("state/simd_avx2.cpp",
                  "// compiled at -mavx2, no _mm256_* or <immintrin.h>\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LayerLint, RejectsRangeForOverUnorderedMapInBuffer) {
  LintTree tree;
  tree.write_file("buffer/cache.cpp",
                  "#include <unordered_map>\n"
                  "std::unordered_map<long long, long long> table;\n"
                  "long long sum() {\n"
                  "  long long s = 0;\n"
                  "  for (const auto& kv : table) s += kv.second;\n"
                  "  return s;\n"
                  "}\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("buffer/cache.cpp") + ":5: L7"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("table"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("nondeterministic"), std::string::npos) << r.output;
}

TEST(LayerLint, RejectsUnorderedBeginInState) {
  LintTree tree;
  // .begin() starts an iteration even without a range-for; std::int64_t
  // keeps L3 quiet in the synthetic state/ file.
  tree.write_file("state/space.cpp",
                  "#include <cstdint>\n#include <unordered_set>\n"
                  "std::unordered_set<std::int64_t> seen;\n"
                  "auto first() { return seen.begin(); }\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("state/space.cpp") + ":4: L7"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("seen.begin()"), std::string::npos) << r.output;
}

TEST(LayerLint, RejectsIterationOverMemberDeclaredInHeader) {
  LintTree tree;
  // Declarations are collected across buffer/ + state/ before scanning,
  // so a .cpp iterating a member its header declares is caught.
  tree.write_file("buffer/cache.hpp",
                  "#pragma once\n#include <unordered_map>\n"
                  "struct Cache {\n"
                  "  std::unordered_map<long long, long long> map;\n"
                  "};\n");
  tree.write_file("buffer/cache.cpp",
                  "#include \"buffer/cache.hpp\"\n"
                  "long long sum(const Cache& c) {\n"
                  "  long long s = 0;\n"
                  "  for (const auto& kv : c.map) s += kv.second;\n"
                  "  return s;\n"
                  "}\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("buffer/cache.cpp") + ":4: L7"),
            std::string::npos)
      << r.output;
}

TEST(LayerLint, RejectsPointerKeyedOrderedContainers) {
  LintTree tree;
  tree.write_file("buffer/order.cpp",
                  "#include <map>\n#include <set>\n"
                  "struct Actor {};\n"
                  "std::map<Actor*, long long> rank_by_ptr;\n"
                  "std::set<const Actor*> members;\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(tree.path_of("buffer/order.cpp") + ":4: L7"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(tree.path_of("buffer/order.cpp") + ":5: L7"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("pointer"), std::string::npos) << r.output;
}

TEST(LayerLint, UnorderedLookupsAndOtherModulesAreFine) {
  LintTree tree;
  // Point lookups and `== x.end()` find-comparisons are deterministic;
  // modules outside buffer/ + state/ may iterate freely.
  tree.write_file("buffer/cache.cpp",
                  "#include <unordered_map>\n"
                  "std::unordered_map<long long, long long> table;\n"
                  "bool has(long long k) {\n"
                  "  return table.find(k) != table.end();\n"
                  "}\n"
                  "void put(long long k) { table.emplace(k, k); }\n");
  tree.write_file("analysis/scan.cpp",
                  "#include <unordered_map>\n"
                  "std::unordered_map<int, int> histogram;\n"
                  "int total() {\n"
                  "  int t = 0;\n"
                  "  for (const auto& kv : histogram) t += kv.second;\n"
                  "  return t;\n"
                  "}\n");
  // Integer-keyed ordered containers order deterministically.
  tree.write_file("buffer/slices.cpp",
                  "#include <map>\n"
                  "std::map<long long, long long> evaluated;\n"
                  "void mark(long long s) { evaluated[s] = 1; }\n");
  const RunResult r = tree.lint();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
