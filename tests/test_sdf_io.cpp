#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/diagnostics.hpp"
#include "buffer/distribution.hpp"
#include "gen/random_graph.hpp"
#include "io/dot.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"
#include "models/models.hpp"

namespace buffy::io {
namespace {

void expect_same_graph(const sdf::Graph& a, const sdf::Graph& b) {
  ASSERT_EQ(a.num_actors(), b.num_actors());
  ASSERT_EQ(a.num_channels(), b.num_channels());
  EXPECT_EQ(a.name(), b.name());
  for (const sdf::ActorId id : a.actor_ids()) {
    const auto other = b.find_actor(a.actor(id).name);
    ASSERT_TRUE(other.has_value()) << a.actor(id).name;
    EXPECT_EQ(a.actor(id).execution_time, b.actor(*other).execution_time);
  }
  for (const sdf::ChannelId id : a.channel_ids()) {
    const auto other = b.find_channel(a.channel(id).name);
    ASSERT_TRUE(other.has_value()) << a.channel(id).name;
    const sdf::Channel& ca = a.channel(id);
    const sdf::Channel& cb = b.channel(*other);
    EXPECT_EQ(a.actor(ca.src).name, b.actor(cb.src).name);
    EXPECT_EQ(a.actor(ca.dst).name, b.actor(cb.dst).name);
    EXPECT_EQ(ca.production, cb.production);
    EXPECT_EQ(ca.consumption, cb.consumption);
    EXPECT_EQ(ca.initial_tokens, cb.initial_tokens);
  }
}

class ModelRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] sdf::Graph model() const {
    auto models = models::table2_models();
    return std::move(models[static_cast<std::size_t>(GetParam())].graph);
  }
};

TEST_P(ModelRoundTrip, XmlPreservesEverything) {
  const sdf::Graph g = model();
  expect_same_graph(g, read_sdf_xml(write_sdf_xml(g)));
}

TEST_P(ModelRoundTrip, DslPreservesEverything) {
  const sdf::Graph g = model();
  expect_same_graph(g, read_dsl(write_dsl(g)));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelRoundTrip, ::testing::Range(0, 5));

TEST(SdfXml, ParsesHandwrittenDocument) {
  const sdf::Graph g = read_sdf_xml(R"(
    <sdf3 type="sdf" version="1.0">
      <applicationGraph name="mini">
        <sdf name="mini">
          <actor name="a"><port name="o" type="out" rate="2"/></actor>
          <actor name="b"><port name="i" type="in" rate="3"/></actor>
          <channel name="ab" srcActor="a" srcPort="o"
                   dstActor="b" dstPort="i" initialTokens="4"/>
        </sdf>
        <sdfProperties>
          <actorProperties actor="a">
            <processor type="default" default="true">
              <executionTime time="7"/>
            </processor>
          </actorProperties>
        </sdfProperties>
      </applicationGraph>
    </sdf3>)");
  EXPECT_EQ(g.name(), "mini");
  EXPECT_EQ(g.num_actors(), 2u);
  const auto ab = g.find_channel("ab");
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(g.channel(*ab).production, 2);
  EXPECT_EQ(g.channel(*ab).consumption, 3);
  EXPECT_EQ(g.channel(*ab).initial_tokens, 4);
  EXPECT_EQ(g.actor(*g.find_actor("a")).execution_time, 7);
  EXPECT_EQ(g.actor(*g.find_actor("b")).execution_time, 1);  // default
}

TEST(SdfXml, RejectsWrongRoot) {
  EXPECT_THROW((void)read_sdf_xml("<nope/>"), ParseError);
}

TEST(SdfXml, RejectsUnknownActorInChannel) {
  EXPECT_THROW((void)read_sdf_xml(R"(
    <sdf3><applicationGraph name="x"><sdf name="x">
      <actor name="a"><port name="o" type="out" rate="1"/></actor>
      <channel name="c" srcActor="a" srcPort="o" dstActor="zz" dstPort="i"/>
    </sdf></applicationGraph></sdf3>)"),
               ParseError);
}

TEST(SdfXml, RejectsChannelFromInPort) {
  EXPECT_THROW((void)read_sdf_xml(R"(
    <sdf3><applicationGraph name="x"><sdf name="x">
      <actor name="a"><port name="o" type="in" rate="1"/></actor>
      <actor name="b"><port name="i" type="in" rate="1"/></actor>
      <channel name="c" srcActor="a" srcPort="o" dstActor="b" dstPort="i"/>
    </sdf></applicationGraph></sdf3>)"),
               ParseError);
}

TEST(SdfXml, RejectsBadPortType) {
  EXPECT_THROW((void)read_sdf_xml(R"(
    <sdf3><applicationGraph name="x"><sdf name="x">
      <actor name="a"><port name="o" type="inout" rate="1"/></actor>
    </sdf></applicationGraph></sdf3>)"),
               ParseError);
}

TEST(SdfXml, FileRoundTrip) {
  const sdf::Graph g = models::paper_example();
  const std::string path = ::testing::TempDir() + "/buffy_example.xml";
  save_sdf_xml_file(g, path);
  expect_same_graph(g, load_sdf_xml_file(path));
}

TEST(SdfXml, MissingFileThrows) {
  EXPECT_THROW((void)load_sdf_xml_file("/nonexistent/buffy.xml"), Error);
}

TEST(Dsl, ParsesHandwrittenText) {
  const sdf::Graph g = read_dsl(R"(
# the paper's example
graph example
actor a 1
actor b 2
actor c 2
channel alpha a 2 b 3
channel beta b 1 c 2 tokens 1
)");
  EXPECT_EQ(g.name(), "example");
  EXPECT_EQ(g.num_actors(), 3u);
  EXPECT_EQ(g.channel(*g.find_channel("beta")).initial_tokens, 1);
}

TEST(Dsl, ReportsLineNumbers) {
  try {
    (void)read_dsl("graph g\nactor a\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Dsl, RejectsUnknownDirective) {
  EXPECT_THROW((void)read_dsl("frobnicate x\n"), ParseError);
}

TEST(Dsl, RejectsUnknownActors) {
  EXPECT_THROW((void)read_dsl("graph g\nactor a 1\nchannel c a 1 zz 1\n"),
               ParseError);
}

TEST(Dsl, AcceptsCrlfTabsAndCommentOnlyLines) {
  const sdf::Graph g = read_dsl(
      "# comment only\r\n"
      "graph\tcrlf\r\n"
      "   # indented comment\r\n"
      "\r\n"
      "actor\ta 1\t# trailing comment\r\n"
      "actor b\t\t2\r\n"
      "channel ab\ta 1 b 1\r\n"
      "channel ba b 1 a 1\ttokens 2\r\n"
      "#");
  EXPECT_EQ(g.name(), "crlf");
  ASSERT_EQ(g.num_actors(), 2u);
  EXPECT_EQ(g.actor(*g.find_actor("b")).execution_time, 2);
  EXPECT_EQ(g.channel(*g.find_channel("ba")).initial_tokens, 2);
  EXPECT_EQ(write_dsl(g),
            "graph crlf\nactor a 1\nactor b 2\nchannel ab a 1 b 1\n"
            "channel ba b 1 a 1 tokens 2\n");
  // Line numbers count CRLF and comment-only lines alike.
  try {
    (void)read_dsl("# c\r\n\r\ngraph g\r\nactor a\r\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "line 4: expected: actor <name> <execution-time>");
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Every bundled model and every stress-corpus graph of the request-path
// benchmark round-trips, and the benchmark's files (written by write_dsl)
// are reproduced byte for byte: the registry's canonical keys hash this
// text.
TEST(Dsl, ModelsAndCorpusRoundTripByteIdentically) {
  const std::vector<sdf::Graph> models = {
      models::paper_example(),      models::fig6_diamond(),
      models::samplerate_converter(), models::modem(),
      models::satellite_receiver(), models::h263_decoder(),
      models::mp3_decoder(),        models::mpeg4_sp_decoder()};
  for (const sdf::Graph& g : models) {
    const std::string text = write_dsl(g);
    const sdf::Graph back = read_dsl(text);
    expect_same_graph(g, back);
    EXPECT_EQ(write_dsl(back), text) << g.name();
  }
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"/models", "/corpus"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(BENCH_INPUTS_DIR) + dir)) {
      if (entry.path().extension() == ".sdf") files.push_back(entry.path());
    }
  }
  EXPECT_EQ(files.size(), 8u + 28u);
  for (const std::filesystem::path& file : files) {
    const std::string text = slurp(file.string());
    const sdf::Graph g = read_dsl(text);
    EXPECT_EQ(write_dsl(g), text) << file;
    expect_same_graph(g, read_dsl(write_dsl(g)));
  }
}

// Property: serialisation round-trips on arbitrary generated graphs, for
// both formats.
class IoRoundTripProperty : public ::testing::TestWithParam<u64> {
 protected:
  [[nodiscard]] sdf::Graph random() const {
    return gen::random_graph(gen::RandomGraphOptions{
        .num_actors = 9,
        .max_repetition = 5,
        .extra_edge_fraction = 0.9,
        .seed = GetParam()});
  }
};

TEST_P(IoRoundTripProperty, Xml) {
  const sdf::Graph g = random();
  expect_same_graph(g, read_sdf_xml(write_sdf_xml(g)));
}

TEST_P(IoRoundTripProperty, Dsl) {
  const sdf::Graph g = random();
  expect_same_graph(g, read_dsl(write_dsl(g)));
}

TEST_P(IoRoundTripProperty, XmlIsStableUnderReserialisation) {
  const sdf::Graph g = random();
  const std::string once = write_sdf_xml(g);
  EXPECT_EQ(once, write_sdf_xml(read_sdf_xml(once)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripProperty,
                         ::testing::Range<u64>(1, 25));

TEST(Dot, ContainsActorsChannelsAndRates) {
  const sdf::Graph g = models::paper_example();
  const std::string dot = write_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_NE(dot.find("2 : 3"), std::string::npos);
}

TEST(Dot, AnnotatesCapacities) {
  const sdf::Graph g = models::paper_example();
  const std::string dot =
      write_dot(g, buffer::StorageDistribution({4, 2}));
  EXPECT_NE(dot.find("cap=4"), std::string::npos);
  EXPECT_NE(dot.find("cap=2"), std::string::npos);
}

}  // namespace
}  // namespace buffy::io
