#include "io/dsl.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "base/diagnostics.hpp"
#include "base/string_util.hpp"
#include "sdf/validate.hpp"

namespace buffy::io {

namespace {

void append_int(std::string& out, i64 v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

sdf::Graph read_dsl(const std::string& text) {
  sdf::Graph graph("sdf");
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& message) {
    throw ParseError("line " + std::to_string(line_no) + ": " + message);
  };
  const std::string_view all(text);
  std::vector<std::string_view> words;
  std::size_t pos = 0;
  while (pos < all.size()) {
    const std::size_t eol = std::min(all.find('\n', pos), all.size());
    std::string_view line = all.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    line = line.substr(0, line.find('#'));
    split_whitespace(line, words);
    if (words.empty()) continue;
    const std::string_view kind = words[0];
    if (kind == "graph") {
      if (words.size() != 2) fail("expected: graph <name>");
      graph.set_name(std::string(words[1]));
    } else if (kind == "actor") {
      if (words.size() != 3) fail("expected: actor <name> <execution-time>");
      graph.add_actor(sdf::Actor{.name = std::string(words[1]),
                                 .execution_time = parse_i64(words[2])});
    } else if (kind == "channel") {
      if (words.size() != 6 && !(words.size() == 8 && words[6] == "tokens")) {
        fail("expected: channel <name> <src> <prod> <dst> <cons> [tokens <n>]");
      }
      const auto src = graph.find_actor(std::string(words[2]));
      const auto dst = graph.find_actor(std::string(words[4]));
      if (!src) fail("unknown source actor '" + std::string(words[2]) + "'");
      if (!dst) {
        fail("unknown destination actor '" + std::string(words[4]) + "'");
      }
      std::string name(words[1]);
      graph.add_channel(sdf::Channel{
          .name = name,
          .src = *src,
          .dst = *dst,
          .production = parse_i64(words[3]),
          .consumption = parse_i64(words[5]),
          .initial_tokens = words.size() == 8 ? parse_i64(words[7]) : 0,
          .src_port = name + "_out",
          .dst_port = name + "_in",
      });
    } else {
      fail("unknown directive '" + std::string(kind) + "'");
    }
  }
  sdf::validate(graph);
  return graph;
}

std::string write_dsl(const sdf::Graph& graph) {
  std::string out;
  out.reserve(32 * (1 + graph.num_actors() + 2 * graph.num_channels()));
  out += "graph ";
  out += graph.name();
  out += '\n';
  for (const sdf::ActorId a : graph.actor_ids()) {
    out += "actor ";
    out += graph.actor(a).name;
    out += ' ';
    append_int(out, graph.actor(a).execution_time);
    out += '\n';
  }
  for (const sdf::ChannelId c : graph.channel_ids()) {
    const sdf::Channel& ch = graph.channel(c);
    out += "channel ";
    out += ch.name;
    out += ' ';
    out += graph.actor(ch.src).name;
    out += ' ';
    append_int(out, ch.production);
    out += ' ';
    out += graph.actor(ch.dst).name;
    out += ' ';
    append_int(out, ch.consumption);
    if (ch.initial_tokens != 0) {
      out += " tokens ";
      append_int(out, ch.initial_tokens);
    }
    out += '\n';
  }
  return out;
}

sdf::Graph load_dsl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_dsl(buffer.str());
}

}  // namespace buffy::io
