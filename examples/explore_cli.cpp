// explore_cli: the buffy tool as a command-line utility (paper Sec. 10).
//
// Reads an SDF graph from an SDF3-style XML file or the compact text DSL,
// explores its storage/throughput design space and reports the Pareto
// points. Optionally restricts the explored region (as the paper's tool
// allows), extracts the schedule of a chosen point, exports DOT, or emits
// the specialised Fig. 8 exploration program.
//
// Usage:
//   explore_cli <graph.{xml,sdf}> [options]
// Options:
//   --target <actor>      actor whose throughput is explored (default: last)
//   --engine <inc|exh>    exploration engine (default: inc)
//   --quality <fast|exact> exact (default) runs the full engine; fast
//                         answers from the LP layer alone — every printed
//                         point is sound (its distribution provably reaches
//                         at least the printed throughput) but approximate
//   --levels <n>          quantise to n throughput levels
//   --max-size <n>        explore distributions up to this size only
//   --goal <rational>     stop once this throughput is reached (e.g. 1/4)
//   --min-tput <rational> report only points at or above this throughput
//   --simd <mode>         candidate evaluation backend: auto (default),
//                         scalar, swar, avx2. Lane backends batch sibling
//                         candidates through the SoA state-space kernel;
//                         the Pareto front is byte-identical across modes
//   --lanes <n>           candidates per lane batch, 1..64 (default: the
//                         backend's width)
//   --deadline-ms <n>     wall-clock budget; returns the verified partial
//                         Pareto front when it runs out
//   --no-cache            disable the cross-distribution throughput cache
//                         (every candidate runs a full simulation; the
//                         Pareto front is identical either way)
//   --cache-cap <n>       bound the cache to n equivalence boxes; a full
//                         cache admits nothing new and evicts nothing
//                         (the front is identical at any cap)
//   --stats               print exploration counters as one JSON object
//                         and the backend that evaluated the candidates
//                         (printed on every exit path, including deadline
//                         cuts and graphs that deadlock everywhere)
//   --trace <file>        write a Chrome trace_event JSON file of the
//                         exploration (load in chrome://tracing or
//                         https://ui.perfetto.dev)
//   --schedule            print the Gantt chart of every Pareto point
//   --dot <file>          write DOT annotated with the best distribution
//   --codegen <file>      write the generated Fig. 8 explorer program
//   --audit               run with BUFFY_AUDIT self-checks on: storage
//                         invariants, visited-table hashes, sampled cache
//                         re-simulation, Pareto-front ordering (DESIGN.md
//                         §9); any violation aborts with exit 1
//   --csdf                treat the input as a cyclo-static (CSDF) graph
//
// Exit codes: 0 on success (including a deadline-cut partial front), 1 on
// errors (bad input, deadlocking graph), 2 on command-line misuse (unknown
// or malformed options — never silently ignored).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "base/audit.hpp"
#include "base/diagnostics.hpp"
#include "base/string_util.hpp"
#include "buffer/dse.hpp"
#include "buffer/fast_front.hpp"
#include "trace/chrome.hpp"
#include "trace/trace.hpp"
#include "codegen/codegen.hpp"
#include "csdf/dse.hpp"
#include "exec/progress.hpp"
#include "io/csdf_io.hpp"
#include "io/dot.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"
#include "sched/extract.hpp"
#include "sched/render.hpp"
#include "state/simd_backend.hpp"

using namespace buffy;

namespace {

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: explore_cli <graph.{xml,sdf}> [--target ACTOR] "
      "[--engine inc|exh]\n"
      "                   [--quality fast|exact]\n"
      "                   [--levels N] [--max-size N] [--goal R] "
      "[--min-tput R]\n"
      "                   [--simd auto|scalar|swar|avx2] [--lanes N]\n"
      "                   [--deadline-ms N] [--no-cache] "
      "[--cache-cap N] [--stats]\n"
      "                   [--trace FILE] [--schedule] [--dot FILE] "
      "[--codegen FILE]\n"
      "                   [--audit] [--csdf]\n");
}

// Everything the command line can say, parsed before any work happens.
struct CliArgs {
  std::string graph_path;
  std::string target;
  std::optional<std::string> engine;
  std::optional<std::string> quality;
  std::optional<i64> levels;
  std::optional<i64> max_size;
  std::optional<Rational> goal;
  std::optional<Rational> min_tput;
  std::optional<state::SimdBackend> simd;
  std::optional<i64> lanes;
  std::optional<i64> deadline_ms;
  bool no_cache = false;
  std::optional<i64> cache_cap;
  bool stats = false;
  std::string trace_path;
  bool schedule = false;
  std::string dot_path;
  std::string codegen_path;
  bool audit = false;
  bool csdf = false;
};

// Strict parser: every argument must be a known option (with its value
// when required); anything else is a usage error. Returns nullopt after
// printing the diagnostic, and the caller exits with status 2.
std::optional<CliArgs> parse_args(int argc, char** argv) {
  CliArgs args;
  args.graph_path = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ParseError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--target") {
      args.target = value();
    } else if (arg == "--engine") {
      args.engine = value();
      if (*args.engine != "inc" && *args.engine != "exh") {
        throw ParseError("unknown engine '" + *args.engine + "'");
      }
    } else if (arg == "--quality") {
      args.quality = value();
      if (*args.quality != "fast" && *args.quality != "exact") {
        throw ParseError("unknown quality '" + *args.quality + "'");
      }
    } else if (arg == "--levels") {
      args.levels = parse_i64(value());
    } else if (arg == "--max-size") {
      args.max_size = parse_i64(value());
    } else if (arg == "--goal") {
      args.goal = parse_rational(value());
    } else if (arg == "--min-tput") {
      args.min_tput = parse_rational(value());
    } else if (arg == "--simd") {
      const std::string mode = value();
      args.simd = state::parse_backend(mode);
      if (!args.simd.has_value()) {
        throw ParseError("unknown --simd mode '" + mode + "'");
      }
    } else if (arg == "--lanes") {
      args.lanes = parse_i64(value());
      if (*args.lanes < 1 ||
          *args.lanes > static_cast<i64>(state::kMaxLanes)) {
        throw ParseError("--lanes must be in [1, 64]");
      }
    } else if (arg == "--deadline-ms") {
      args.deadline_ms = parse_i64(value());
      if (*args.deadline_ms < 0) {
        throw ParseError("--deadline-ms must be >= 0");
      }
    } else if (arg == "--no-cache") {
      args.no_cache = true;
    } else if (arg == "--cache-cap") {
      args.cache_cap = parse_i64(value());
      if (*args.cache_cap < 1) throw ParseError("--cache-cap must be >= 1");
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (arg == "--trace") {
      args.trace_path = value();
    } else if (arg == "--schedule") {
      args.schedule = true;
    } else if (arg == "--dot") {
      args.dot_path = value();
    } else if (arg == "--codegen") {
      args.codegen_path = value();
    } else if (arg == "--audit") {
      args.audit = true;
    } else if (arg == "--csdf") {
      args.csdf = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return std::nullopt;
    }
  }
  if (args.quality == std::optional<std::string>("fast")) {
    // The fast tier answers from the LP layer alone; options steering the
    // engine exploration are rejected loudly instead of silently ignored.
    const char* unsupported = nullptr;
    if (args.engine.has_value()) unsupported = "--engine";
    if (args.goal.has_value()) unsupported = "--goal";
    if (args.min_tput.has_value()) unsupported = "--min-tput";
    if (args.simd.has_value()) unsupported = "--simd";
    if (args.lanes.has_value()) unsupported = "--lanes";
    if (args.deadline_ms.has_value()) unsupported = "--deadline-ms";
    if (args.no_cache) unsupported = "--no-cache";
    if (args.cache_cap.has_value()) unsupported = "--cache-cap";
    if (args.stats) unsupported = "--stats";
    if (args.schedule) unsupported = "--schedule";
    if (!args.codegen_path.empty()) unsupported = "--codegen";
    if (args.audit) unsupported = "--audit";
    if (args.csdf) unsupported = "--csdf";
    if (unsupported != nullptr) {
      std::fprintf(stderr,
                   "error: %s is not supported with --quality fast\n",
                   unsupported);
      return std::nullopt;
    }
  }
  if (args.csdf) {
    // The CSDF engine supports a subset of the options; anything else is
    // rejected loudly instead of silently ignored.
    const char* unsupported = nullptr;
    if (args.engine.has_value()) unsupported = "--engine";
    if (args.goal.has_value()) unsupported = "--goal";
    if (args.min_tput.has_value()) unsupported = "--min-tput";
    if (args.simd.has_value()) unsupported = "--simd";
    if (args.lanes.has_value()) unsupported = "--lanes";
    if (args.deadline_ms.has_value()) unsupported = "--deadline-ms";
    if (args.no_cache) unsupported = "--no-cache";
    if (args.cache_cap.has_value()) unsupported = "--cache-cap";
    if (args.stats) unsupported = "--stats";
    if (!args.trace_path.empty()) unsupported = "--trace";
    if (args.schedule) unsupported = "--schedule";
    if (!args.dot_path.empty()) unsupported = "--dot";
    if (!args.codegen_path.empty()) unsupported = "--codegen";
    if (args.audit) unsupported = "--audit";
    if (unsupported != nullptr) {
      std::fprintf(stderr, "error: %s is not supported in --csdf mode\n",
                   unsupported);
      return std::nullopt;
    }
  }
  return args;
}

// CSDF mode: the cyclo-static design-space exploration (see src/csdf/).
int explore_csdf(const CliArgs& args) {
  const csdf::Graph graph = io::load_csdf_file(args.graph_path);
  csdf::DseOptions opts{.target = csdf::ActorId(graph.num_actors() - 1)};
  if (!args.target.empty()) {
    const auto id = graph.find_actor(args.target);
    if (!id) throw Error("no actor named '" + args.target + "'");
    opts.target = *id;
  }
  opts.max_distribution_size = args.max_size;
  std::printf("CSDF graph '%s': %zu actors, %zu channels; target '%s'\n",
              graph.name().c_str(), graph.num_actors(), graph.num_channels(),
              graph.actor(opts.target).name.c_str());
  auto result = csdf::explore(graph, opts);
  if (args.levels.has_value() && !result.deadlock) {
    opts.quantization = result.max_throughput / Rational(*args.levels);
    result = csdf::explore(graph, opts);
  }
  if (result.deadlock) {
    std::printf("the graph deadlocks under every storage distribution\n");
    return 1;
  }
  std::printf("maximal throughput: %s; explored %llu distributions\n\n",
              result.max_throughput.str().c_str(),
              static_cast<unsigned long long>(result.distributions_explored));
  std::printf("Pareto points:\n%s", result.pareto.str().c_str());
  return 0;
}

// Fast tier (--quality fast): the LP-only front of buffer/fast_front —
// sound, approximate, no per-candidate simulation (DESIGN.md §13).
int explore_fast(const CliArgs& args, const sdf::Graph& graph,
                 sdf::ActorId target) {
  std::optional<trace::Collector> collector;
  if (!args.trace_path.empty()) {
    collector.emplace();
    trace::attach(&*collector);
  }
  const buffer::FastFrontResult result =
      buffer::fast_front(graph, target, args.levels.value_or(8));
  if (collector.has_value()) {
    trace::attach(nullptr);
    std::ofstream out(args.trace_path, std::ios::binary);
    if (!out) throw Error("cannot open trace file '" + args.trace_path + "'");
    trace::write_chrome_trace(collector->merged(), out);
  }
  if (result.bounds.deadlock) {
    std::printf("the graph deadlocks under every storage distribution\n");
    return 1;
  }
  std::printf("bounds: lb = %lld tokens, ub = %lld tokens, maximal "
              "throughput = %s\n",
              static_cast<long long>(result.bounds.lb_size),
              static_cast<long long>(result.bounds.ub_size),
              result.bounds.max_throughput.str().c_str());
  std::printf("fast front: %llu LP solves, %llu pivots, %llu cycle cuts, "
              "%.3f s\n",
              static_cast<unsigned long long>(result.lp_solves),
              static_cast<unsigned long long>(result.lp_pivots),
              static_cast<unsigned long long>(result.lp_cuts), result.seconds);
  std::printf("every point is sound (its distribution reaches at least the "
              "printed throughput); rerun with --quality exact for the "
              "minimal front\n");
  std::printf("\nPareto points:\n%s", result.pareto.str().c_str());
  if (collector.has_value()) {
    std::printf("\nwrote %s (%llu trace events)\n", args.trace_path.c_str(),
                static_cast<unsigned long long>(collector->event_count()));
  }
  if (!args.dot_path.empty() && !result.pareto.empty()) {
    std::ofstream out(args.dot_path);
    out << io::write_dot(graph, result.pareto.points().back().distribution);
    std::printf("\nwrote %s\n", args.dot_path.c_str());
  }
  return 0;
}

sdf::Graph load(const std::string& path) {
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".xml") {
    return io::load_sdf_xml_file(path);
  }
  return io::load_dsl_file(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  // Command-line errors exit 2; later failures (unreadable or malformed
  // graph files, deadlocks) exit 1.
  std::optional<CliArgs> args;
  try {
    args = parse_args(argc, argv);
    if (!args.has_value()) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage(stderr);
    return 2;
  }
  try {
    if (args->csdf) return explore_csdf(*args);

    const sdf::Graph graph = load(args->graph_path);

    buffer::DseOptions opts{.target = sdf::ActorId(graph.num_actors() - 1),
                            .engine = buffer::DseEngine::Incremental};
    if (!args->target.empty()) {
      const auto id = graph.find_actor(args->target);
      if (!id) throw Error("no actor named '" + args->target + "'");
      opts.target = *id;
    }
    if (args->quality == std::optional<std::string>("fast")) {
      std::printf("graph '%s': %zu actors, %zu channels; target actor "
                  "'%s'\n",
                  graph.name().c_str(), graph.num_actors(),
                  graph.num_channels(),
                  graph.actor(opts.target).name.c_str());
      return explore_fast(*args, graph, opts.target);
    }
    if (args->engine == "exh") opts.engine = buffer::DseEngine::Exhaustive;
    opts.quantization_levels = args->levels;
    opts.max_distribution_size = args->max_size;
    opts.throughput_goal = args->goal;
    opts.min_throughput = args->min_tput;
    if (args->simd.has_value()) opts.simd = *args->simd;
    if (args->lanes.has_value()) {
      opts.simd_lanes = static_cast<std::size_t>(*args->lanes);
    }
    opts.deadline_ms = args->deadline_ms;
    opts.use_throughput_cache = !args->no_cache;
    if (args->cache_cap.has_value()) {
      if (args->no_cache) throw Error("--cache-cap conflicts with --no-cache");
      opts.cache_capacity = static_cast<u64>(*args->cache_cap);
    }
    // Audit mode is switched on before the exploration spawns workers
    // (see base/audit.hpp on why a relaxed flag suffices then).
    if (args->audit) audit::set_enabled(true);
    exec::Progress progress;
    if (args->stats) opts.progress = &progress;

    // Tracing: attach a collector around the exploration only; the chrome
    // file is written after detach so worker emission has quiesced.
    std::optional<trace::Collector> collector;
    if (!args->trace_path.empty()) {
      collector.emplace();
      trace::attach(&*collector);
    }

    // Every exit path below (success, deadline cut, all-deadlock graph)
    // flushes the trace file and prints the same stats JSON with the full
    // counter set — partial runs must be as inspectable as complete ones —
    // plus the backend that actually evaluated the candidates.
    const auto flush_trace_and_stats = [&](const buffer::DseResult& result) {
      if (collector.has_value()) {
        trace::attach(nullptr);
        progress.add_trace_events(collector->event_count());
        std::ofstream out(args->trace_path, std::ios::binary);
        if (!out) {
          throw Error("cannot open trace file '" + args->trace_path + "'");
        }
        trace::write_chrome_trace(collector->merged(), out);
        std::printf("\nwrote %s (%llu trace events)\n",
                    args->trace_path.c_str(),
                    static_cast<unsigned long long>(collector->event_count()));
      }
      if (args->stats) {
        std::printf("\nstats: %s\n", progress.snapshot().json().c_str());
        std::printf("backend: %s\n", state::backend_name(result.backend));
      }
      // Reaching this line means no check threw: a violation would have
      // unwound to the error path (exit 1) before any flush.
      if (args->audit) {
        std::printf("audit: %llu invariant checks, 0 violations\n",
                    static_cast<unsigned long long>(
                        audit::checks_performed()));
      }
    };

    std::printf("graph '%s': %zu actors, %zu channels; target actor '%s'\n",
                graph.name().c_str(), graph.num_actors(),
                graph.num_channels(), graph.actor(opts.target).name.c_str());

    const auto result = buffer::explore(graph, opts);
    if (result.bounds.deadlock) {
      std::printf("the graph deadlocks under every storage distribution\n");
      flush_trace_and_stats(result);
      return 1;
    }
    std::printf("bounds: lb = %lld tokens, ub = %lld tokens, maximal "
                "throughput = %s\n",
                static_cast<long long>(result.bounds.lb_size),
                static_cast<long long>(result.bounds.ub_size),
                result.bounds.max_throughput.str().c_str());
    std::printf("explored %llu distributions in %.3f s (max %llu states per "
                "run)\n",
                static_cast<unsigned long long>(result.distributions_explored),
                result.seconds,
                static_cast<unsigned long long>(result.max_states_stored));
    if (result.cancelled) {
      std::printf("deadline hit: the Pareto front below is a verified "
                  "partial result\n");
    }
    std::printf("\nPareto points:\n%s", result.pareto.str().c_str());

    flush_trace_and_stats(result);

    if (args->schedule) {
      for (const buffer::ParetoPoint& p : result.pareto.points()) {
        const auto ex = sched::extract_schedule(
            graph, state::Capacities::bounded(p.distribution.capacities()),
            opts.target);
        std::printf("\nschedule for %s (throughput %s):\n%s",
                    p.distribution.str().c_str(), p.throughput.str().c_str(),
                    sched::render_gantt(graph, ex.schedule,
                                        ex.schedule.cycle_start() +
                                            2 * ex.schedule.period())
                        .c_str());
      }
    }

    if (!args->dot_path.empty() && !result.pareto.empty()) {
      std::ofstream out(args->dot_path);
      out << io::write_dot(graph,
                           result.pareto.points().back().distribution);
      std::printf("\nwrote %s\n", args->dot_path.c_str());
    }
    if (!args->codegen_path.empty()) {
      codegen::write_explorer_source(graph, opts.target,
                                     args->codegen_path);
      std::printf("wrote %s (build: c++ -std=c++17 -O2 -o explore %s)\n",
                  args->codegen_path.c_str(), args->codegen_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
