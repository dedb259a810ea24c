// bench_tool: the in-process half of the request-path benchmark
// (perfbench/README.md). run.py drives the real daemons over their
// sockets; this tool does everything that needs the library itself.
//
//   bench_tool models DIR
//       Writes the bundled models as DSL files into DIR and prints one JSON
//       line per model: {"name","file","target"}.
//   bench_tool corpus --seed S --count N --engine inc|exh --out DIR
//                     [--lo A] [--hi B]
//       Draws graphs with gen::random_graph from S and keeps a graph only
//       when the engine's distributions_explored count lies in [A, B] (a
//       host-independent band). Prints one JSON line per kept graph.
//   bench_tool oracle < jobs.jsonl > answers.jsonl
//       Answers each job with the single oracle: scalar backend, no
//       throughput cache, no LP bounds, one thread.
//   bench_tool replay --requests FILE --trace-out FILE [--warmup FILE]
//                     [--reps K]
//       Replays wire request lines in-process through the same public
//       functions, with the same options, buffyd's handlers call, and
//       times each call. Three passes: untraced, traced, untraced. The
//       traced pass writes the library's events plus the layer spans as
//       one Chrome trace. The first pass pays the process's first-touch
//       costs, as a freshly started daemon does; the last one is the
//       untraced twin of the traced pass.
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/max_throughput.hpp"
#include "base/diagnostics.hpp"
#include "base/rng.hpp"
#include "base/string_util.hpp"
#include "buffer/bounds.hpp"
#include "buffer/dse.hpp"
#include "buffer/fast_front.hpp"
#include "exec/progress.hpp"
#include "gen/random_graph.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"
#include "models/models.hpp"
#include "service/cache_registry.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "state/throughput.hpp"
#include "trace/chrome.hpp"
#include "trace/trace.hpp"

using namespace buffy;
using service::JsonValue;

namespace {

using Clock = std::chrono::steady_clock;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  if (path.empty()) return lines;
  std::ifstream in(path);
  if (!in) throw Error("cannot read '" + path + "'");
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write '" + path + "'");
  out << text;
}

// buffyd's graph decoding (service/server.cpp): XML when the payload
// starts with '<' after whitespace, the DSL otherwise.
sdf::Graph parse_graph(const service::Request& req) {
  service::GraphFormat format = req.format;
  if (format == service::GraphFormat::Auto) {
    format = service::GraphFormat::Dsl;
    for (const char c : req.graph_text) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
      if (c == '<') format = service::GraphFormat::Xml;
      break;
    }
  }
  return format == service::GraphFormat::Xml ? io::read_sdf_xml(req.graph_text)
                                             : io::read_dsl(req.graph_text);
}

sdf::ActorId resolve_target(const sdf::Graph& graph, const std::string& name) {
  if (name.empty()) return sdf::ActorId(graph.num_actors() - 1);
  const std::optional<sdf::ActorId> id = graph.find_actor(name);
  if (!id.has_value()) throw Error("no actor named '" + name + "'");
  return *id;
}

JsonValue front_points(const buffer::ParetoSet& pareto) {
  JsonValue points = JsonValue::array();
  for (const buffer::ParetoPoint& p : pareto.points()) {
    JsonValue point = JsonValue::object();
    point.set("size", JsonValue::integer(p.size()));
    point.set("throughput", JsonValue::string(p.throughput.str()));
    JsonValue caps = JsonValue::array();
    for (const i64 c : p.distribution.capacities()) {
      caps.push_back(JsonValue::integer(c));
    }
    point.set("capacities", caps);
    points.push_back(point);
  }
  return points;
}

JsonValue u64_json(u64 v) { return JsonValue::integer(static_cast<i64>(v)); }

// ---------------------------------------------------------------- models

int cmd_models(const std::vector<std::string>& args) {
  if (args.size() != 1) throw ParseError("usage: bench_tool models DIR");
  const std::string dir = args[0];
  const std::vector<std::pair<const char*, sdf::Graph>> models = {
      {"example", models::paper_example()},
      {"fig6", models::fig6_diamond()},
      {"samplerate", models::samplerate_converter()},
      {"modem", models::modem()},
      {"satellite", models::satellite_receiver()},
      {"mp3", models::mp3_decoder()},
      {"mpeg4", models::mpeg4_sp_decoder()},
      {"h263", models::h263_decoder()},
  };
  for (const auto& [name, graph] : models) {
    const std::string file = std::string(name) + ".sdf";
    write_file(dir + "/" + file, io::write_dsl(graph));
    JsonValue o = JsonValue::object();
    o.set("name", JsonValue::string(name));
    o.set("file", JsonValue::string(file));
    o.set("target",
          JsonValue::string(graph.actor(models::reported_actor(graph)).name));
    std::cout << o.dump() << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------- corpus

int cmd_corpus(const std::vector<std::string>& args) {
  u64 seed = 1;
  i64 count = 16;
  i64 lo = 2000;
  i64 hi = 60000;
  std::string engine_name = "exh";
  std::string out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) throw ParseError("missing value for " + args[i]);
      return args[++i];
    };
    const std::string& a = args[i];
    if (a == "--seed") seed = static_cast<u64>(parse_i64(value()));
    else if (a == "--count") count = parse_i64(value());
    else if (a == "--lo") lo = parse_i64(value());
    else if (a == "--hi") hi = parse_i64(value());
    else if (a == "--engine") engine_name = value();
    else if (a == "--out") out = value();
    else throw ParseError("unknown corpus option '" + a + "'");
  }
  if (out.empty()) throw ParseError("corpus needs --out DIR");
  if (engine_name != "inc" && engine_name != "exh") {
    throw ParseError("--engine must be inc or exh");
  }
  const buffer::DseEngine engine = engine_name == "exh"
                                       ? buffer::DseEngine::Exhaustive
                                       : buffer::DseEngine::Incremental;

  // Draws past this many without filling the corpus mean the band is too
  // narrow for the generator's parameters.
  constexpr i64 kMaxDraws = 4000;
  Rng rng(seed);
  i64 kept = 0;
  for (i64 draw = 0; draw < kMaxDraws && kept < count; ++draw) {
    gen::RandomGraphOptions g;
    g.num_actors = static_cast<std::size_t>(rng.uniform(5, 11));
    g.max_repetition = rng.uniform(2, 5);
    g.max_execution_time = rng.uniform(2, 9);
    g.max_rate_scale = rng.uniform(1, 2);
    g.extra_edge_fraction = 0.2 + 0.1 * static_cast<double>(rng.uniform(0, 4));
    g.strongly_connected = rng.chance(0.5);
    g.seed = rng.next();
    const sdf::Graph graph = gen::random_graph(g);
    const sdf::ActorId target(graph.num_actors() - 1);

    JsonValue row = JsonValue::object();
    bool keep = false;
    try {
      const analysis::BoundsCertificate cert = analysis::derive_bounds(graph);
      if (!cert.fits_i64) continue;
      // The options buffyd passes for an exact request with no knobs set
      // (max_threads_per_request 1), plus two rejection guards: a graph
      // past hi distributions is dropped anyway, and a kept graph finishes
      // far inside the deadline.
      buffer::DseOptions opts;
      opts.target = target;
      opts.engine = engine;
      opts.threads = 1;
      opts.max_distributions = static_cast<u64>(hi);
      opts.deadline_ms = 10'000;
      const buffer::DseResult r = buffer::explore(graph, opts);
      const auto dists = static_cast<i64>(r.distributions_explored);
      keep = !r.cancelled && !r.pareto.empty() && dists >= lo && dists <= hi;
      row.set("distributions", u64_json(r.distributions_explored));
      row.set("simulations", u64_json(r.simulations_run));
      row.set("points", u64_json(r.pareto.size()));
      row.set("seconds", JsonValue::number(r.seconds));
    } catch (const Error&) {
      keep = false;  // max_distributions hit, overflow, or an invalid draw
    }
    if (!keep) continue;
    std::string name = "g";
    name += std::to_string(seed);
    name += "_";
    name += std::to_string(draw);
    const std::string file = name + ".sdf";
    write_file(out + "/" + file, io::write_dsl(graph));
    row.set("name", JsonValue::string(name));
    row.set("engine", JsonValue::string(engine_name));
    row.set("file", JsonValue::string(file));
    row.set("target", JsonValue::string(graph.actor(target).name));
    row.set("actors", u64_json(graph.num_actors()));
    row.set("channels", u64_json(graph.num_channels()));
    std::cout << row.dump() << std::endl;
    ++kept;
  }
  return kept == count ? 0 : 1;
}

// ---------------------------------------------------------------- oracle

int cmd_oracle() {
  for (std::string line; std::getline(std::cin, line);) {
    if (line.empty()) continue;
    const JsonValue job = JsonValue::parse(line);
    const sdf::Graph graph = io::read_dsl(read_file(job.find("graph")->as_string()));
    const sdf::ActorId target =
        resolve_target(graph, job.find("target")->as_string());
    const std::string op = job.find("op")->as_string();
    JsonValue answer = JsonValue::object();
    answer.set("id", *job.find("id"));
    if (op == "front") {
      buffer::DseOptions opts;
      opts.target = target;
      opts.engine = job.find("engine")->as_string() == "exh"
                        ? buffer::DseEngine::Exhaustive
                        : buffer::DseEngine::Incremental;
      const JsonValue* levels = job.find("levels");
      if (levels != nullptr && levels->is_int()) {
        opts.quantization_levels = levels->as_int();
      }
      opts.simd = state::SimdBackend::Scalar;
      opts.use_throughput_cache = false;
      opts.use_lp_bounds = false;
      opts.threads = 1;
      const buffer::DseResult r = buffer::explore(graph, opts);
      answer.set("front", JsonValue::string(r.pareto.str()));
      answer.set("points", front_points(r.pareto));
    } else if (op == "max_throughput") {
      const analysis::MaxThroughput mt = analysis::max_throughput(graph);
      answer.set("throughput",
                 JsonValue::string(mt.actor_throughput(target).str()));
    } else if (op == "simulate") {
      std::vector<i64> caps;
      for (const JsonValue& c : job.find("capacities")->as_array()) {
        caps.push_back(c.as_int());
      }
      state::ThroughputOptions opts;
      opts.target = target;
      const state::ThroughputResult r = state::compute_throughput(
          graph, state::Capacities::bounded(caps), opts);
      answer.set("throughput", JsonValue::string(r.throughput.str()));
    } else {
      throw ParseError("unknown oracle op '" + op + "'");
    }
    std::cout << answer.dump() << std::endl;
  }
  return 0;
}

// ---------------------------------------------------------------- replay

// One timed call into a layer, recorded for the Chrome trace.
struct LayerSpan {
  std::string name;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  u64 request = 0;
};

// Times calls into the layers of one replay pass. Span timestamps share
// the trace collector's clock when one is attached, so the layer spans and
// the library's own events land on one timeline.
class Layers {
 public:
  explicit Layers(const trace::Collector* collector) : collector_(collector) {}

  /// Calls f(), adds its duration in microseconds to spans[name], and
  /// keeps a trace span when a collector is attached.
  template <typename F>
  auto time(const char* name, JsonValue& spans, F&& f) {
    const auto t0 = Clock::now();
    const std::int64_t ts = collector_ != nullptr ? collector_->now_ns() : 0;
    auto result = f();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count();
    const JsonValue* prior = spans.find(name);
    spans.set(name, JsonValue::number(static_cast<double>(ns) / 1000.0 +
                                      (prior != nullptr ? prior->as_double()
                                                        : 0.0)));
    if (collector_ != nullptr) {
      spans_.push_back(LayerSpan{name, ts, ns, request_});
    }
    return result;
  }

  void begin_request(u64 index) { request_ = index; }
  [[nodiscard]] const std::vector<LayerSpan>& spans() const { return spans_; }

 private:
  const trace::Collector* collector_;
  std::vector<LayerSpan> spans_;
  u64 request_ = 0;
};

// The daemon-side work of one request, mirroring Server::handle_analyze /
// handle_explore call for call. Returns the per-request record.
JsonValue replay_one(const std::string& line, u64 index,
                     service::CacheRegistry& registry, exec::Progress& progress,
                     Layers& layers) {
  JsonValue spans = JsonValue::object();
  JsonValue counters = JsonValue::object();
  JsonValue out = JsonValue::object();
  out.set("i", u64_json(index));
  layers.begin_request(index);

  const auto t_start = Clock::now();
  const service::Request req = layers.time(
      "service.decode", spans, [&] { return service::parse_request(line); });
  const sdf::Graph graph =
      layers.time("io.parse", spans, [&] { return parse_graph(req); });
  const sdf::ActorId target = resolve_target(graph, req.target);
  layers.time("analysis.certificate", spans, [&] {
    const analysis::BoundsCertificate cert = analysis::derive_bounds(graph);
    if (cert.consistent && !cert.fits_i64) {
      throw Error("magnitude_overflow: " + cert.overflow_detail);
    }
    return 0;
  });

  JsonValue result = JsonValue::object();
  std::string kind;
  std::optional<buffer::DseOptions> probe_bounds;  // exact explores
  bool probe_fast_bounds = false;
  if (req.method == service::Method::AnalyzeThroughput) {
    kind = req.capacities.empty() ? "analyze_max" : "analyze_caps";
    if (req.capacities.empty()) {
      const analysis::MaxThroughput mt = layers.time(
          "analysis.max_throughput", spans,
          [&] { return analysis::max_throughput(graph); });
      out.set("throughput",
              JsonValue::string(mt.actor_throughput(target).str()));
      layers.time("service.encode", spans, [&] {
        result.set("target", JsonValue::string(graph.actor(target).name));
        result.set("deadlock", JsonValue::boolean(mt.deadlock));
        result.set("throughput",
                   JsonValue::string(mt.actor_throughput(target).str()));
        return 0;
      });
    } else {
      state::ThroughputOptions opts;
      opts.target = target;
      opts.progress = &progress;
      const state::ThroughputResult run = layers.time("state.run", spans, [&] {
        return state::compute_throughput(
            graph, state::Capacities::bounded(req.capacities), opts);
      });
      out.set("throughput", JsonValue::string(run.throughput.str()));
      layers.time("service.encode", spans, [&] {
        result.set("target", JsonValue::string(graph.actor(target).name));
        result.set("deadlock", JsonValue::boolean(run.deadlocked));
        result.set("throughput", JsonValue::string(run.throughput.str()));
        result.set("states_stored", u64_json(run.states_stored));
        result.set("period", JsonValue::integer(run.period));
        return 0;
      });
    }
  } else if (req.method == service::Method::ExplorePareto) {
    bool exact = req.quality != std::optional<std::string>("fast");
    if (!exact) {
      kind = "fast";
      const buffer::FastFrontResult fast =
          layers.time("buffer.fast_front", spans, [&] {
            return buffer::fast_front(graph, target, req.levels.value_or(8));
          });
      counters.set("lp_solves", u64_json(fast.lp_solves));
      counters.set("lp_pivots", u64_json(fast.lp_pivots));
      if (fast.lp_solves > 0 && fast.lp_overflows == fast.lp_solves) {
        exact = true;  // buffyd downgrades to the exact engine
        counters.set("downgraded", JsonValue::integer(1));
      } else {
        probe_fast_bounds = true;
        out.set("front", JsonValue::string(fast.pareto.str()));
        layers.time("service.encode", spans, [&] {
          result.set("front", JsonValue::string(fast.pareto.str()));
          result.set("points", front_points(fast.pareto));
          return 0;
        });
      }
    }
    if (exact) {
      if (kind.empty()) kind = req.use_cache ? "explore" : "explore_nocache";
      buffer::DseOptions opts;
      opts.target = target;
      opts.engine = req.engine == std::optional<std::string>("exh")
                        ? buffer::DseEngine::Exhaustive
                        : buffer::DseEngine::Incremental;
      opts.quantization_levels = req.levels;
      opts.max_distribution_size = req.max_size;
      opts.throughput_goal = req.goal;
      opts.min_throughput = req.min_throughput;
      opts.threads = 1;  // max_threads_per_request's default clamp
      opts.use_throughput_cache = req.use_cache;
      opts.progress = &progress;
      service::CacheRegistry::Lease lease;
      if (req.use_cache) {
        const analysis::MaxThroughput mt =
            layers.time("analysis.max_throughput", spans,
                        [&] { return analysis::max_throughput(graph); });
        if (!mt.deadlock) {
          lease = layers.time("service.cache", spans, [&] {
            const u64 fingerprint =
                service::graph_fingerprint(graph, graph.actor(target).name);
            return registry.get_or_create(fingerprint,
                                          mt.actor_throughput(target));
          });
          opts.shared_cache = lease.cache.get();
        }
      }
      const buffer::DseResult r = layers.time(
          "buffer.explore", spans, [&] { return buffer::explore(graph, opts); });
      counters.set("distributions", u64_json(r.distributions_explored));
      counters.set("simulations", u64_json(r.simulations_run));
      counters.set("cache_hits", u64_json(r.cache_hits));
      counters.set("dominance_skips", u64_json(r.dominance_skips));
      counters.set("lp_prunes", u64_json(r.lp_prunes));
      counters.set("cached_graph", JsonValue::integer(lease.warm ? 1 : 0));
      out.set("front", JsonValue::string(r.pareto.str()));
      layers.time("service.encode", spans, [&] {
        result.set("front", JsonValue::string(r.pareto.str()));
        result.set("points", front_points(r.pareto));
        result.set("distributions_explored",
                   u64_json(r.distributions_explored));
        result.set("simulations_run", u64_json(r.simulations_run));
        result.set("cache_hits", u64_json(r.cache_hits));
        result.set("dominance_skips", u64_json(r.dominance_skips));
        result.set("lp_prunes", u64_json(r.lp_prunes));
        result.set("seconds", JsonValue::number(r.seconds));
        return 0;
      });
      probe_bounds = opts;
    }
  } else {
    throw Error("replay supports analyze_throughput and explore_pareto only");
  }
  layers.time("service.encode", spans,
              [&] { return service::ok_response(req.id, result).size(); });
  const auto total_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - t_start)
                            .count();

  // Probes outside the request's wall time: the Fig. 7 bounds both tiers
  // compute internally, timed on their own so explore / fast_front can be
  // split into the bounds part and the rest.
  JsonValue probes = JsonValue::object();
  if (probe_bounds.has_value()) {
    layers.time("buffer.bounds", probes, [&] {
      // As explore() does: a reusable solver for the capacity doubling.
      state::ThroughputSolver solver(graph);
      return buffer::design_space_bounds(graph, target,
                                         probe_bounds->max_steps_per_run,
                                         &solver)
          .ub_size;
    });
  }
  if (probe_fast_bounds) {
    layers.time("buffer.fast_bounds", probes, [&] {
      return buffer::design_space_bounds(graph, target).ub_size;
    });
  }

  out.set("kind", JsonValue::string(kind));
  out.set("total_us", JsonValue::number(static_cast<double>(total_ns) / 1000.0));
  out.set("spans", spans);
  out.set("probes", probes);
  out.set("counters", counters);
  return out;
}

// Appends the layer spans (process 2, one track) to the library events the
// repository's Chrome sink rendered (process 1).
std::string chrome_document(const std::vector<trace::Event>& events,
                            const std::vector<LayerSpan>& spans) {
  std::string doc = trace::chrome_trace_json(events);
  const std::size_t close = doc.rfind(']');
  std::string tail = doc.substr(close);
  doc.erase(close);
  while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
    doc.pop_back();
  }
  bool first = events.empty();
  char buf[256];
  for (const LayerSpan& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"name\": \"%s\", \"cat\": \"layer\", \"pid\": 2, "
                  "\"tid\": 0, \"ts\": %.3f, \"ph\": \"X\", \"dur\": %.3f, "
                  "\"args\": {\"request\": %llu}}",
                  first ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.ts_ns) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0,
                  static_cast<unsigned long long>(s.request));
    doc += buf;
    first = false;
  }
  doc += "\n" + tail;
  return doc;
}

int cmd_replay(const std::vector<std::string>& args) {
  std::string requests_path;
  std::string warmup_path;
  std::string trace_out;
  i64 reps = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) throw ParseError("missing value for " + args[i]);
      return args[++i];
    };
    const std::string& a = args[i];
    if (a == "--requests") requests_path = value();
    else if (a == "--warmup") warmup_path = value();
    else if (a == "--trace-out") trace_out = value();
    else if (a == "--reps") reps = parse_i64(value());
    else throw ParseError("unknown replay option '" + a + "'");
  }
  if (trace_out.empty()) throw ParseError("replay needs --trace-out FILE");
  const std::vector<std::string> requests = read_lines(requests_path);
  const std::vector<std::string> warmup = read_lines(warmup_path);

  for (i64 pass = 0; pass < 3; ++pass) {
    const bool traced = pass == 1;
    // A fresh registry per pass, with buffyd's default bounds, warmed by
    // the same lines the daemon saw before its measured requests.
    service::CacheRegistry registry(64, u64{1} << 18);
    exec::Progress progress;
    Layers untimed(nullptr);
    for (std::size_t i = 0; i < warmup.size(); ++i) {
      (void)replay_one(warmup[i], i, registry, progress, untimed);
    }
    trace::Collector collector;
    Layers layers(traced ? &collector : nullptr);
    if (traced) trace::attach(&collector);
    std::vector<JsonValue> rows;
    try {
      for (i64 rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          JsonValue row = replay_one(requests[i], i, registry, progress, layers);
          row.set("pass", JsonValue::integer(pass));
          rows.push_back(std::move(row));
        }
      }
    } catch (...) {
      if (traced) trace::attach(nullptr);
      throw;
    }
    if (traced) {
      trace::attach(nullptr);
      // Per-candidate events (simulation spans, cache/dominance/LP
      // instants) run to hundreds of thousands per pass and are counted in
      // the replay rows already; the file keeps the exploration, wave and
      // size-scan spans under the layer spans.
      std::vector<trace::Event> kept;
      for (const trace::Event& e : collector.merged()) {
        if (e.dur_ns >= 0 && e.kind != trace::EventKind::Simulation) {
          kept.push_back(e);
        }
      }
      write_file(trace_out, chrome_document(kept, layers.spans()));
    }
    for (const JsonValue& row : rows) std::cout << row.dump() << "\n";
  }
  std::cout.flush();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_tool models|corpus|oracle|replay [options]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "models") return cmd_models(args);
    if (cmd == "corpus") return cmd_corpus(args);
    if (cmd == "oracle") return cmd_oracle();
    if (cmd == "replay") return cmd_replay(args);
    std::fprintf(stderr, "error: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
