// Pinned fuzz corpus for every parser that consumes untrusted bytes: the
// XML and DSL graph readers (the paper's tool ingests SDF3-style files,
// Sec. 10) and the service JSON/request parser behind buffyd's socket.
//
// Each file under tests/golden/fuzz/ is an adversarial input — malformed,
// truncated, deeply nested, overflowing, or binary garbage — and the
// driver asserts the matching parser either accepts it or raises a
// structured buffy::Error. Any other outcome (foreign exception, crash,
// hang, unchecked overflow tripping a sanitizer) fails the suite. The
// corpus is append-only: an input that ever broke a parser stays pinned.
//
// File prefixes route to parsers: xml_* -> io::read_sdf_xml, dsl_* ->
// io::read_dsl, json_* -> service::JsonValue::parse and, when that
// yields an object, service::parse_request, wire_* -> raw byte streams
// for the service wire layer (LineFramer over a PagedBuffer, then
// parse_request on every complete frame).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/diagnostics.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"
#include "service/json.hpp"
#include "service/paged_buffer.hpp"
#include "service/protocol.hpp"

namespace buffy {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files(const std::string& prefix) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(
           fs::path(GOLDEN_DIR) / "fuzz")) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_FALSE(files.empty()) << "no corpus files with prefix " << prefix;
  return files;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The contract under test: parse or diagnose, nothing else escapes.
template <typename Fn>
void expect_structured(Fn&& parse, const fs::path& file,
                       const std::string& input) {
  try {
    parse(input);
  } catch (const Error&) {
    // fine: structured rejection
  } catch (const std::exception& e) {
    ADD_FAILURE() << file.filename() << ": non-buffy exception escaped: "
                  << e.what();
  }
}

TEST(FuzzCorpus, XmlInputsParseOrDiagnose) {
  for (const fs::path& file : corpus_files("xml_")) {
    expect_structured(
        [](const std::string& text) { (void)io::read_sdf_xml(text); }, file,
        slurp(file));
  }
}

TEST(FuzzCorpus, DslInputsParseOrDiagnose) {
  for (const fs::path& file : corpus_files("dsl_")) {
    expect_structured(
        [](const std::string& text) { (void)io::read_dsl(text); }, file,
        slurp(file));
  }
}

TEST(FuzzCorpus, ServiceJsonInputsParseOrDiagnose) {
  for (const fs::path& file : corpus_files("json_")) {
    const std::string input = slurp(file);
    expect_structured(
        [](const std::string& text) { (void)service::JsonValue::parse(text); },
        file, input);
    // The daemon hands every complete line to the request parser; it must
    // be exactly as contained as the raw JSON layer.
    expect_structured(
        [](const std::string& text) { (void)service::parse_request(text); },
        file, input);
    // A value that parses is dumped deterministically, and ok_response
    // writes the bytes of the envelope object built around it.
    service::JsonValue value;
    try {
      value = service::JsonValue::parse(input);
    } catch (const Error&) {
      continue;
    }
    const std::string dumped = value.dump();
    EXPECT_EQ(service::JsonValue::parse(dumped).dump(), dumped)
        << file.filename();
    for (const std::optional<i64> id :
         {std::optional<i64>(), std::optional<i64>(-42)}) {
      service::JsonValue envelope = service::JsonValue::object();
      if (id.has_value()) envelope.set("id", service::JsonValue::integer(*id));
      envelope.set("ok", service::JsonValue::boolean(true));
      envelope.set("result", value);
      EXPECT_EQ(service::ok_response(id, value), envelope.dump())
          << file.filename();
    }
  }
}

// One pass of a wire stream through the framing layer at a fixed chunk
// size. Returns the frames extracted (for cross-chunk-size comparison)
// and asserts the wire contract along the way: buffered bytes stay
// bounded by max_line_bytes plus one inbound chunk, an over-long
// unterminated prefix reports Overflow (never silent growth), and every
// complete frame either parses as a request or raises a structured
// buffy::Error.
std::vector<std::string> run_wire(const fs::path& file,
                                  const std::string& stream,
                                  std::size_t chunk_size,
                                  std::size_t max_line_bytes,
                                  bool* overflowed) {
  service::LineFramer framer(max_line_bytes);
  std::vector<std::string> frames;
  *overflowed = false;
  std::size_t off = 0;
  while (off < stream.size() && !*overflowed) {
    const std::size_t n =
        std::min(chunk_size, stream.size() - off);
    const std::span<char> space = framer.buffer().peek_space(n);
    std::memcpy(space.data(), stream.data() + off, n);
    framer.buffer().commit_space(n);
    off += n;
    std::string line;
    for (;;) {
      const service::LineFramer::Status status = framer.next_line(line);
      if (status == service::LineFramer::Status::NeedMore) break;
      if (status == service::LineFramer::Status::Overflow) {
        // The daemon closes the connection here; the stream is dead.
        *overflowed = true;
        break;
      }
      frames.push_back(line);
      expect_structured(
          [](const std::string& text) {
            (void)service::parse_request(text);
          },
          file, line);
    }
    // Growth bound: nothing beyond the unterminated-prefix cap plus the
    // chunk that tripped it may accumulate.
    EXPECT_LE(framer.buffer().size(), max_line_bytes + chunk_size)
        << file.filename() << " chunk=" << chunk_size;
  }
  return frames;
}

TEST(FuzzCorpus, WireStreamsFrameOrDiagnoseAtEveryChunkSize) {
  for (const fs::path& file : corpus_files("wire_")) {
    const std::string stream = slurp(file);
    // A deliberately small bound so the corpus exercises Overflow.
    const std::size_t max_line_bytes = 2048;
    bool base_overflow = false;
    const std::vector<std::string> base =
        run_wire(file, stream, 4096, max_line_bytes, &base_overflow);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
      bool overflow = false;
      const std::vector<std::string> frames =
          run_wire(file, stream, chunk, max_line_bytes, &overflow);
      // Framing must be chunking-invariant: same frames, same verdict.
      EXPECT_EQ(frames, base) << file.filename() << " chunk=" << chunk;
      EXPECT_EQ(overflow, base_overflow)
          << file.filename() << " chunk=" << chunk;
    }
  }
}

// The corpus itself: shrinking it would silently weaken the sweep.
TEST(FuzzCorpus, CorpusHoldsPinnedInputs) {
  EXPECT_GE(corpus_files("xml_").size(), 15u);
  EXPECT_GE(corpus_files("dsl_").size(), 12u);
  EXPECT_GE(corpus_files("json_").size(), 10u);
  EXPECT_GE(corpus_files("wire_").size(), 10u);
}

}  // namespace
}  // namespace buffy
