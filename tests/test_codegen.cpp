#include "codegen/codegen.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/bounds.hpp"
#include "base/diagnostics.hpp"
#include "buffer/dse.hpp"
#include "models/models.hpp"
#include "sdf/builder.hpp"

namespace buffy::codegen {
namespace {

std::string example_source() {
  const sdf::Graph g = models::paper_example();
  return generate_explorer_source(g, *g.find_actor("c"));
}

TEST(Codegen, ContainsThePaperDirectives) {
  const std::string src = example_source();
  for (const char* directive :
       {"CHECK_TOKENS", "CHECK_SPACE", "CONSUME", "PRODUCE", "ACT_CLK",
        "execSDFgraph"}) {
    EXPECT_NE(src.find(directive), std::string::npos) << directive;
  }
}

TEST(Codegen, UnrollsTheExampleRates) {
  const std::string src = example_source();
  // Actor b: consumes 3 from channel 0, produces 1 on channel 1.
  EXPECT_NE(src.find("CHECK_TOKENS(0, 3)"), std::string::npos);
  EXPECT_NE(src.find("CONSUME(0, 3)"), std::string::npos);
  EXPECT_NE(src.find("PRODUCE(1, 1)"), std::string::npos);
  // Actor a: claims 2 on channel 0 at start.
  EXPECT_NE(src.find("CHECK_SPACE(0, 2)"), std::string::npos);
}

TEST(Codegen, EmbedsLowerBoundsAsDefaults) {
  const std::string src = example_source();
  EXPECT_NE(src.find("{4, 2}"), std::string::npos);
}

TEST(Codegen, TargetActorRecorded) {
  const std::string src = example_source();
  EXPECT_NE(src.find("kTarget = 2"), std::string::npos);
}

TEST(Codegen, EmitsInitialTokens) {
  const sdf::Graph g = models::modem();
  const std::string src =
      generate_explorer_source(g, *g.find_actor("out"));
  EXPECT_NE(src.find("sdfState.ch["), std::string::npos);
}

TEST(Codegen, WritesFile) {
  const std::string path = ::testing::TempDir() + "/buffy_gen.cpp";
  const sdf::Graph g = models::paper_example();
  write_explorer_source(g, *g.find_actor("c"), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), example_source());
}

TEST(Codegen, InvalidTargetThrows) {
  EXPECT_THROW(
      (void)generate_explorer_source(models::paper_example(), sdf::ActorId(9)),
      Error);
}

std::string vectorized_example_source(std::size_t lanes) {
  const sdf::Graph g = models::paper_example();
  return generate_explorer_source(g, *g.find_actor("c"), {.lanes = lanes});
}

TEST(CodegenVectorized, BakesLaneCountAndSoaRows) {
  const std::string src = vectorized_example_source(8);
  EXPECT_NE(src.find("constexpr int kLanes = 8"), std::string::npos);
  for (const char* row :
       {"laneClk[kActors][kLanes]", "laneCh[kChannels][kLanes]",
        "laneOcc[kChannels][kLanes]", "laneSz[kChannels][kLanes]"}) {
    EXPECT_NE(src.find(row), std::string::npos) << row;
  }
}

TEST(CodegenVectorized, UnrollsConstantFoldedRates) {
  const std::string src = vectorized_example_source(8);
  // Actor b consumes 3 from channel 0: token check + masked consume.
  EXPECT_NE(src.find("laneCh[0][l] >= 3"), std::string::npos);
  EXPECT_NE(src.find("const lane d = 3 & laneCm[l]"), std::string::npos);
  // Actor a claims 2 on channel 0 at start.
  EXPECT_NE(src.find("laneOcc[0][l] + 2 <= laneSz[0][l]"), std::string::npos);
  // Masked retirement machinery is present.
  EXPECT_NE(src.find("targetBits"), std::string::npos);
  EXPECT_NE(src.find("installLane"), std::string::npos);
}

TEST(CodegenVectorized, LaneCountOutOfRangeThrows) {
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId c = *g.find_actor("c");
  EXPECT_THROW((void)generate_explorer_source(g, c, {.lanes = 0}), Error);
  EXPECT_THROW((void)generate_explorer_source(g, c, {.lanes = 65}), Error);
}

TEST(CodegenVectorized, WritesFile) {
  const std::string path = ::testing::TempDir() + "/buffy_gen_vec.cpp";
  const sdf::Graph g = models::paper_example();
  write_explorer_source(g, *g.find_actor("c"), path, {.lanes = 8});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), vectorized_example_source(8));
}

TEST(CodegenCertified, CheckedSourceCarriesGuardsAndBudget) {
  const sdf::Graph g = models::paper_example();
  const analysis::BoundsCertificate cert = analysis::derive_bounds(g);
  ASSERT_TRUE(cert.fits_i64);
  const std::string src =
      generate_explorer_source(g, *g.find_actor("c"), {.certificate = &cert});
  for (const char* marker :
       {"chkAdd", "chkSub", "overflowAbort", "kCapBudget", "doubleClamped"}) {
    EXPECT_NE(src.find(marker), std::string::npos) << marker;
  }
}

TEST(CodegenCertified, NarrowSourceIsThirtyTwoBitAndCheckFree) {
  const sdf::Graph g = models::paper_example();
  const analysis::BoundsCertificate cert = analysis::derive_bounds(g);
  const std::string src = generate_explorer_source(
      g, *g.find_actor("c"), {.lanes = 8, .certificate = &cert});
  EXPECT_NE(src.find("using lane = std::int32_t"), std::string::npos);
  EXPECT_NE(src.find("kCapBudget"), std::string::npos);
  EXPECT_NE(src.find("lane{1} << 30"), std::string::npos);
  // The whole point: no runtime overflow machinery in the narrow program.
  EXPECT_EQ(src.find("overflowAbort"), std::string::npos);
  EXPECT_EQ(src.find("chkAdd"), std::string::npos);
}

TEST(CodegenCertified, MismatchedCertificateThrows) {
  const sdf::Graph g = models::paper_example();
  const analysis::BoundsCertificate other =
      analysis::derive_bounds(models::modem());
  const sdf::ActorId c = *g.find_actor("c");
  EXPECT_THROW((void)generate_explorer_source(g, c, {.certificate = &other}),
               Error);
  EXPECT_THROW((void)generate_explorer_source(
                   g, c, {.lanes = 8, .certificate = &other}),
               Error);
}

TEST(CodegenCertified, InexactCertificateRejectedForNarrow) {
  const sdf::Graph g = models::paper_example();
  analysis::BoundsCertificate cert = analysis::derive_bounds(g);
  cert.fits_i64 = false;
  cert.overflow_detail = "synthetic";
  const sdf::ActorId c = *g.find_actor("c");
  // The checked program still generates (its guards carry the soundness)...
  EXPECT_NO_THROW(
      (void)generate_explorer_source(g, c, {.certificate = &cert}));
  // ...but the narrow program must refuse: elided checks need exactness.
  EXPECT_THROW((void)generate_explorer_source(
                   g, c, {.lanes = 8, .certificate = &cert}),
               Error);

  analysis::BoundsCertificate wide = analysis::derive_bounds(g);
  wide.magnitude_bound = i64{1} << 40;  // beyond the narrow kernel limit
  EXPECT_THROW((void)generate_explorer_source(
                   g, c, {.lanes = 8, .certificate = &wide}),
               Error);
}

// Integration: compile the generated program with the system compiler and
// check that it reproduces the paper's throughput numbers. Skipped when no
// compiler is available.
class CodegenCompile : public ::testing::Test {
 protected:
  static bool have_compiler() {
    return std::system("c++ --version > /dev/null 2>&1") == 0;
  }

  static std::string run(const std::string& binary, const std::string& args) {
    const std::string cmd = binary + " " + args + " 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    char buf[256];
    std::string out;
    while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
    return out;
  }
};

TEST_F(CodegenCompile, GeneratedProgramReproducesPaperThroughputs) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/buffy_explore.cpp";
  const std::string bin = dir + "/buffy_explore";
  const sdf::Graph g = models::paper_example();
  write_explorer_source(g, *g.find_actor("c"), src);
  const std::string compile =
      "c++ -std=c++17 -O1 -o " + bin + " " + src + " 2>&1";
  ASSERT_EQ(std::system(compile.c_str()), 0);

  EXPECT_EQ(run(bin, "4 2"), "throughput 1/7\n");
  EXPECT_EQ(run(bin, "6 2"), "throughput 1/6\n");
  EXPECT_EQ(run(bin, "7 3"), "throughput 1/4\n");
  EXPECT_EQ(run(bin, "3 2"), "throughput 0\n");
  EXPECT_EQ(run(bin, ""), "throughput 1/7\n");  // defaults to lb = (4, 2)
}

TEST_F(CodegenCompile, GeneratedDseReproducesFig5Staircase) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/buffy_dse.cpp";
  const std::string bin = dir + "/buffy_dse";
  const sdf::Graph g = models::paper_example();
  write_explorer_source(g, *g.find_actor("c"), src);
  const std::string compile =
      "c++ -std=c++17 -O1 -o " + bin + " " + src + " 2>&1";
  ASSERT_EQ(std::system(compile.c_str()), 0);

  // The generated explorer's --dse mode prints one line per Pareto point:
  // "pareto <size> <num>/<den> <caps...>" — the Fig. 5 staircase.
  const std::string out = run(bin, "--dse");
  std::istringstream lines(out);
  std::string line;
  std::vector<std::pair<long long, std::string>> points;
  while (std::getline(lines, line)) {
    long long size = 0;
    char tput[64] = {};
    if (std::sscanf(line.c_str(), "pareto %lld %63s", &size, tput) == 2) {
      points.emplace_back(size, tput);
    }
  }
  ASSERT_EQ(points.size(), 4u) << out;
  EXPECT_EQ(points[0], (std::pair<long long, std::string>{6, "1/7"}));
  EXPECT_EQ(points[1], (std::pair<long long, std::string>{8, "1/6"}));
  EXPECT_EQ(points[2], (std::pair<long long, std::string>{9, "1/5"}));
  EXPECT_EQ(points[3], (std::pair<long long, std::string>{10, "1/4"}));
}

// The differential contract of the lane program: at every lane width,
// its stdout is byte-identical to the scalar program's — single-candidate
// throughputs and the full --dse staircase alike.
TEST_F(CodegenCompile, VectorizedExplorerMatchesScalarByteForByte) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  const sdf::Graph g = models::paper_example();

  const std::string scalar_src = dir + "/buffy_vec_ref.cpp";
  const std::string scalar_bin = dir + "/buffy_vec_ref";
  write_explorer_source(g, *g.find_actor("c"), scalar_src);
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o " + scalar_bin + " " +
                         scalar_src + " 2>&1")
                            .c_str()),
            0);

  const std::vector<std::string> inputs{"4 2", "6 2", "7 3", "3 2", "9 4",
                                        "",    "--dse"};
  std::vector<std::string> expected;
  expected.reserve(inputs.size());
  for (const std::string& in : inputs) {
    expected.push_back(run(scalar_bin, in));
  }
  ASSERT_EQ(expected.back().substr(0, 6), "pareto");

  for (const std::size_t lanes : {1u, 3u, 8u}) {
    const std::string tag = std::to_string(lanes);
    const std::string src = dir + "/buffy_vec_" + tag + ".cpp";
    const std::string bin = dir + "/buffy_vec_" + tag;
    write_explorer_source(g, *g.find_actor("c"), src, {.lanes = lanes});
    ASSERT_EQ(std::system(
                  ("c++ -std=c++17 -O1 -o " + bin + " " + src + " 2>&1")
                      .c_str()),
              0)
        << "lanes=" << lanes;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(run(bin, inputs[i]), expected[i])
          << "lanes=" << lanes << " input='" << inputs[i] << "'";
    }
  }
}

// Same differential on a graph with initial tokens and a feedback loop
// (the modem), where lane refill actually cycles: the --dse staircases
// must be byte-identical too.
TEST_F(CodegenCompile, VectorizedModemDseMatchesScalar) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  const sdf::Graph g = models::modem();
  const sdf::ActorId target = *g.find_actor("out");

  const std::string scalar_src = dir + "/buffy_modem_ref.cpp";
  const std::string scalar_bin = dir + "/buffy_modem_ref";
  write_explorer_source(g, target, scalar_src);
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o " + scalar_bin + " " +
                         scalar_src + " 2>&1")
                            .c_str()),
            0);

  const std::string vec_src = dir + "/buffy_modem_vec.cpp";
  const std::string vec_bin = dir + "/buffy_modem_vec";
  write_explorer_source(g, target, vec_src, {.lanes = 8});
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o " + vec_bin + " " + vec_src +
                         " 2>&1")
                            .c_str()),
            0);

  const std::string want = run(scalar_bin, "--dse");
  ASSERT_EQ(want.substr(0, 6), "pareto");
  EXPECT_EQ(run(vec_bin, "--dse"), want);
  EXPECT_EQ(run(vec_bin, ""), run(scalar_bin, ""));
}

// The certified differential: the statically-narrow program (32-bit
// lanes, zero runtime checks) must print byte-identical output to the
// overflow-checked scalar reference on single runs and the budget-clamped
// --dse staircase alike. A wrong certificate surfaces as either a diff
// here or a guarded "overflow" abort in the checked program.
TEST_F(CodegenCompile, NarrowExplorerMatchesCheckedScalarByteForByte) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  const sdf::Graph g = models::paper_example();
  const sdf::ActorId target = *g.find_actor("c");
  const analysis::BoundsCertificate cert = analysis::derive_bounds(g);
  ASSERT_TRUE(cert.fits_i64);

  const std::string ref_src = dir + "/buffy_chk_ref.cpp";
  const std::string ref_bin = dir + "/buffy_chk_ref";
  write_explorer_source(g, target, ref_src, {.certificate = &cert});
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o " + ref_bin + " " + ref_src +
                         " 2>&1")
                            .c_str()),
            0);

  const std::vector<std::string> inputs{"4 2", "6 2", "7 3", "3 2", "9 4",
                                        "",    "--dse"};
  std::vector<std::string> expected;
  expected.reserve(inputs.size());
  for (const std::string& in : inputs) {
    expected.push_back(run(ref_bin, in));
  }
  ASSERT_EQ(expected.back().substr(0, 6), "pareto");

  for (const std::size_t lanes : {1u, 4u, 8u}) {
    const std::string tag = std::to_string(lanes);
    const std::string src = dir + "/buffy_narrow_" + tag + ".cpp";
    const std::string bin = dir + "/buffy_narrow_" + tag;
    write_explorer_source(g, target, src,
                          {.lanes = lanes, .certificate = &cert});
    ASSERT_EQ(std::system(
                  ("c++ -std=c++17 -O1 -o " + bin + " " + src + " 2>&1")
                      .c_str()),
              0)
        << "lanes=" << lanes;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(run(bin, inputs[i]), expected[i])
          << "lanes=" << lanes << " input='" << inputs[i] << "'";
    }
  }
}

// Same certified differential on the modem (initial tokens + feedback):
// the clamped staircases must agree, and both programs must reject a
// capacity outside the certified budget the same way.
TEST_F(CodegenCompile, NarrowModemDseMatchesCheckedScalar) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  const sdf::Graph g = models::modem();
  const sdf::ActorId target = *g.find_actor("out");
  const analysis::BoundsCertificate cert = analysis::derive_bounds(g);
  ASSERT_TRUE(cert.fits_i64);

  const std::string ref_src = dir + "/buffy_chk_modem.cpp";
  const std::string ref_bin = dir + "/buffy_chk_modem";
  write_explorer_source(g, target, ref_src, {.certificate = &cert});
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o " + ref_bin + " " + ref_src +
                         " 2>&1")
                            .c_str()),
            0);

  const std::string vec_src = dir + "/buffy_narrow_modem.cpp";
  const std::string vec_bin = dir + "/buffy_narrow_modem";
  write_explorer_source(g, target, vec_src,
                        {.lanes = 8, .certificate = &cert});
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o " + vec_bin + " " + vec_src +
                         " 2>&1")
                            .c_str()),
            0);

  const std::string want = run(ref_bin, "--dse");
  ASSERT_EQ(want.substr(0, 6), "pareto");
  EXPECT_EQ(run(vec_bin, "--dse"), want);
  EXPECT_EQ(run(vec_bin, ""), run(ref_bin, ""));

  // Outside the certified budget both programs refuse identically.
  std::string oversized;
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    oversized += std::to_string(cert.storage_budget[c] + 1) + " ";
  }
  EXPECT_EQ(run(ref_bin, oversized), run(vec_bin, oversized));
}

// A graph whose channels step by g = gcd(p, c) = 2 (DESIGN.md §2), one of
// them with an odd token count: the generated climbs step each channel
// to its next aligned capacity. Their --dse staircase must be the
// incremental engine's front, distributions included, and the scalar and
// lane programs must print it byte for byte.
TEST_F(CodegenCompile, SteppedDseMatchesTheIncrementalEngine) {
  if (!have_compiler()) GTEST_SKIP() << "no system compiler";
  const std::string dir = ::testing::TempDir();
  sdf::GraphBuilder b("stepped");
  const auto a = b.actor("a", 1);
  const auto mid = b.actor("b", 2);
  const auto c = b.actor("c", 1);
  b.channel("ab", a, 4, mid, 6, 1);
  b.channel("bc", mid, 6, c, 4, 0);
  b.channel("ca", c, 2, a, 2, 6);
  const sdf::Graph g = b.build();

  const buffer::DseResult inc = buffer::explore(
      g, {.target = c, .engine = buffer::DseEngine::Incremental});
  std::ostringstream staircase;
  for (const buffer::ParetoPoint& p : inc.pareto.points()) {
    staircase << "pareto " << p.size() << ' ' << p.throughput.num() << '/'
              << p.throughput.den();
    for (const i64 cap : p.distribution.capacities()) staircase << ' ' << cap;
    staircase << '\n';
  }
  const std::string want = staircase.str();
  ASSERT_GT(inc.pareto.size(), 1u) << want;

  const std::string scalar_src = dir + "/buffy_stepped_ref.cpp";
  const std::string scalar_bin = dir + "/buffy_stepped_ref";
  write_explorer_source(g, c, scalar_src);
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o " + scalar_bin + " " +
                         scalar_src + " 2>&1")
                            .c_str()),
            0);
  const std::string vec_src = dir + "/buffy_stepped_vec.cpp";
  const std::string vec_bin = dir + "/buffy_stepped_vec";
  write_explorer_source(g, c, vec_src, {.lanes = 4});
  ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o " + vec_bin + " " + vec_src +
                         " 2>&1")
                            .c_str()),
            0);

  EXPECT_EQ(run(scalar_bin, "--dse"), want);
  EXPECT_EQ(run(vec_bin, "--dse"), want);
  EXPECT_EQ(run(vec_bin, ""), run(scalar_bin, ""));
}

}  // namespace
}  // namespace buffy::codegen
