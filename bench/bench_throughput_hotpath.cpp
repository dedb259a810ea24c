// Throughput hot-path A/B bench: the arena-backed visited-state table
// reused across runs against a fresh engine per run, and the
// cross-distribution throughput cache against cache-less exploration.
//
// Two sections, each emitted as machine-readable JSON (stdout, and
// `--json FILE` for the checked-in perf baseline future PRs regress
// against):
//
//  * kernel   — raw throughput runs over a fixed capacity ladder, one-shot
//               compute_throughput (fresh engine per call) vs one reused
//               ThroughputSolver; reports wall time, speedup and the
//               reused path's states/second.
//  * dse      — end-to-end explorations with the throughput cache off vs
//               on; reports wall-clock speedup, simulations run and the
//               fraction the cache saved, and checks the two Pareto
//               fronts are byte-identical. The bundled models run with an
//               unbounded cache; three exhaustive stress-corpus graphs run
//               with buffyd's bounded one (1 << 18 entries).
//
// The exit status is nonzero only when a Pareto front diverges — timing
// numbers are reported, never gated (CI machines are too noisy for that).
//
// The DSE A/B pins the scalar backend: it isolates the cache effect, and
// the lane engines batch candidates speculatively, which changes the
// simulation counts on both sides of the A/B (the lane backends have their
// own A/B in bench_simd_lanes).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "buffer/bounds.hpp"
#include "buffer/dse.hpp"
#include "gen/random_graph.hpp"
#include "io/dsl.hpp"
#include "models/models.hpp"
#include "report_util.hpp"
#include "state/throughput.hpp"

using namespace buffy;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool fronts_identical(const buffer::DseResult& a, const buffer::DseResult& b) {
  if (a.pareto.size() != b.pareto.size()) return false;
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    const auto& pa = a.pareto.points()[i];
    const auto& pb = b.pareto.points()[i];
    if (pa.throughput != pb.throughput ||
        pa.distribution.capacities() != pb.distribution.capacities()) {
      return false;
    }
  }
  return true;
}

// --- kernel section ----------------------------------------------------

// A ladder of capacity vectors between the per-channel lower bounds and the
// max-throughput distribution — the same region a DSE walks.
std::vector<std::vector<i64>> capacity_ladder(const sdf::Graph& graph,
                                              sdf::ActorId target,
                                              std::size_t rungs) {
  const buffer::DesignSpaceBounds bounds =
      buffer::design_space_bounds(graph, target);
  const auto& lb = bounds.per_channel_lb.capacities();
  const auto& mtd = bounds.max_throughput_distribution.capacities();
  std::vector<std::vector<i64>> ladder;
  for (std::size_t r = 0; r < rungs; ++r) {
    std::vector<i64> caps(lb.size());
    for (std::size_t c = 0; c < lb.size(); ++c) {
      const i64 span = mtd[c] - lb[c];
      caps[c] = lb[c] + span * static_cast<i64>(r) /
                            static_cast<i64>(rungs > 1 ? rungs - 1 : 1);
    }
    ladder.push_back(std::move(caps));
  }
  return ladder;
}

struct KernelMeasurement {
  std::string model;
  u64 runs = 0;
  double fresh_seconds = 0;
  double reused_seconds = 0;
  double speedup = 0;
  double states_per_second = 0;  // reused path
  u64 arena_bytes = 0;           // reused solver's table footprint
};

KernelMeasurement bench_kernel(const std::string& name,
                               const sdf::Graph& graph, sdf::ActorId target,
                               std::size_t rungs, int reps) {
  KernelMeasurement m;
  m.model = name;
  const auto ladder = capacity_ladder(graph, target, rungs);
  const state::ThroughputOptions opts{.target = target};
  m.runs = static_cast<u64>(ladder.size()) * static_cast<u64>(reps);

  u64 states = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const auto& caps : ladder) {
      const auto run = state::compute_throughput(
          graph, state::Capacities::bounded(caps), opts);
      states += run.states_stored;
    }
  }
  m.fresh_seconds = seconds_since(t0);

  state::ThroughputSolver solver(graph);
  states = 0;
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const auto& caps : ladder) {
      const auto run = solver.compute(state::Capacities::bounded(caps), opts);
      states += run.states_stored;
    }
  }
  m.reused_seconds = seconds_since(t0);
  m.speedup = m.reused_seconds > 0 ? m.fresh_seconds / m.reused_seconds : 1.0;
  m.states_per_second =
      m.reused_seconds > 0 ? static_cast<double>(states) / m.reused_seconds
                           : 0.0;
  m.arena_bytes = solver.table_bytes();
  return m;
}

// --- dse section -------------------------------------------------------

// buffyd's per-graph cache bound (ServerOptions::cache_entries_per_graph).
constexpr u64 kDaemonCacheCapacity = u64{1} << 18;

struct DseMeasurement {
  std::string model;
  std::string engine;
  u64 cache_capacity = 0;  // 0 = unbounded
  double nocache_seconds = 0;
  double cache_seconds = 0;
  double speedup = 0;
  u64 nocache_simulations = 0;
  u64 cache_simulations = 0;
  double simulations_saved_pct = 0;
  u64 cache_hits = 0;
  u64 dominance_skips = 0;
  bool identical = true;
};

buffer::DseResult run_dse(const sdf::Graph& graph, sdf::ActorId target,
                          buffer::DseEngine engine, bool cache,
                          u64 cache_capacity, double* best_seconds) {
  buffer::DseOptions opts{.target = target, .engine = engine};
  opts.use_throughput_cache = cache;
  opts.cache_capacity = cache_capacity;
  // Scalar pin: keep both sides of the A/B on the one-candidate solver so
  // the saved-simulation accounting compares like with like (see header).
  opts.simd = state::SimdBackend::Scalar;
  buffer::DseResult best = buffer::explore(graph, opts);
  *best_seconds = best.seconds;
  const int reps = best.seconds > 0.5 ? 1 : 3;
  for (int r = 1; r < reps; ++r) {
    const buffer::DseResult again = buffer::explore(graph, opts);
    if (again.seconds < *best_seconds) *best_seconds = again.seconds;
  }
  return best;
}

DseMeasurement bench_dse(const std::string& name, const sdf::Graph& graph,
                         sdf::ActorId target, buffer::DseEngine engine,
                         u64 cache_capacity = 0) {
  DseMeasurement m;
  m.model = name;
  m.engine = engine == buffer::DseEngine::Exhaustive ? "exh" : "inc";
  m.cache_capacity = cache_capacity;
  const buffer::DseResult off = run_dse(graph, target, engine, /*cache=*/false,
                                        0, &m.nocache_seconds);
  const buffer::DseResult on = run_dse(graph, target, engine, /*cache=*/true,
                                       cache_capacity, &m.cache_seconds);
  m.speedup =
      m.cache_seconds > 0 ? m.nocache_seconds / m.cache_seconds : 1.0;
  m.nocache_simulations = off.simulations_run;
  m.cache_simulations = on.simulations_run;
  m.simulations_saved_pct =
      off.simulations_run > 0
          ? 100.0 *
                (static_cast<double>(off.simulations_run) -
                 static_cast<double>(on.simulations_run)) /
                static_cast<double>(off.simulations_run)
          : 0.0;
  m.cache_hits = on.cache_hits;
  m.dominance_skips = on.dominance_skips;
  m.identical = fronts_identical(off, on);
  return m;
}

DseMeasurement bench_model_dse(const std::string& name,
                               const sdf::Graph& graph,
                               buffer::DseEngine engine) {
  return bench_dse(name, graph, models::reported_actor(graph), engine);
}

// A stress-corpus graph under buffyd's bounded cache, exhaustive engine.
DseMeasurement bench_corpus_dse(const std::string& name,
                                const std::string& target) {
  std::ifstream in(std::string(CORPUS_DIR) + "/" + name + ".sdf");
  std::stringstream text;
  text << in.rdbuf();
  const sdf::Graph graph = io::read_dsl(text.str());
  return bench_dse(name, graph, *graph.find_actor(target),
                   buffer::DseEngine::Exhaustive, kDaemonCacheCapacity);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::optional<std::string> report_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report-dir") == 0 && i + 1 < argc) {
      report_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_throughput_hotpath [--json FILE] "
                   "[--report-dir DIR]\n");
      return 2;
    }
  }

  gen::RandomGraphOptions rng_opts;
  rng_opts.num_actors = 8;
  rng_opts.strongly_connected = true;
  rng_opts.seed = 42;
  const sdf::Graph random8 = gen::random_graph(rng_opts);

  std::printf("=== throughput kernel: fresh engine vs reused solver ===\n\n");
  const std::vector<int> kwidths{10, 7, 10, 10, 9, 13, 11};
  bench::print_row({"model", "runs", "fresh(s)", "reused(s)", "speedup",
                    "states/s", "arena(B)"},
                   kwidths);
  bench::print_rule(kwidths);

  std::vector<KernelMeasurement> kernel;
  kernel.push_back(bench_kernel("example", models::paper_example(),
                                models::reported_actor(models::paper_example()),
                                /*rungs=*/24, /*reps=*/200));
  kernel.push_back(bench_kernel("modem", models::modem(),
                                models::reported_actor(models::modem()),
                                /*rungs=*/24, /*reps=*/40));
  kernel.push_back(bench_kernel("random8", random8,
                                models::reported_actor(random8),
                                /*rungs=*/24, /*reps=*/40));
  for (const KernelMeasurement& m : kernel) {
    std::printf("%-10s %-7llu %-10.4f %-10.4f %-9.2f %-13.3g %-11llu\n",
                m.model.c_str(), static_cast<unsigned long long>(m.runs),
                m.fresh_seconds, m.reused_seconds, m.speedup,
                m.states_per_second,
                static_cast<unsigned long long>(m.arena_bytes));
  }

  std::printf("\n=== DSE end-to-end: throughput cache off vs on ===\n\n");
  const std::vector<int> dwidths{12, 7, 10, 10, 9, 12, 11, 11, 10};
  bench::print_row({"model", "engine", "nocache(s)", "cache(s)", "speedup",
                    "nocache-sims", "cache-sims", "sims-saved", "identical"},
                   dwidths);
  bench::print_rule(dwidths);

  std::vector<DseMeasurement> dse;
  dse.push_back(bench_model_dse("example", models::paper_example(),
                                buffer::DseEngine::Exhaustive));
  dse.push_back(bench_model_dse("samplerate", models::samplerate_converter(),
                                buffer::DseEngine::Exhaustive));
  dse.push_back(bench_model_dse("example", models::paper_example(),
                                buffer::DseEngine::Incremental));
  dse.push_back(bench_model_dse("fig6-diamond", models::fig6_diamond(),
                                buffer::DseEngine::Incremental));
  dse.push_back(bench_model_dse("modem", models::modem(),
                                buffer::DseEngine::Incremental));
  dse.push_back(bench_model_dse("h263", models::h263_decoder(),
                                buffer::DseEngine::Incremental));
  dse.push_back(bench_corpus_dse("g10_7", "a6"));
  dse.push_back(bench_corpus_dse("g10_32", "a10"));
  dse.push_back(bench_corpus_dse("g10_60", "a10"));
  bool all_identical = true;
  for (const DseMeasurement& m : dse) {
    all_identical = all_identical && m.identical;
    char pct[16];
    std::snprintf(pct, sizeof pct, "%.1f%%", m.simulations_saved_pct);
    std::printf("%-12s %-7s %-10.4f %-10.4f %-9.2f %-12llu %-11llu %-11s %s\n",
                m.model.c_str(), m.engine.c_str(), m.nocache_seconds,
                m.cache_seconds, m.speedup,
                static_cast<unsigned long long>(m.nocache_simulations),
                static_cast<unsigned long long>(m.cache_simulations), pct,
                m.identical ? "yes" : "NO");
  }

  // Timing is reported, not gated: name every row where the cache's
  // bookkeeping still costs more than the simulations it saves.
  for (const DseMeasurement& m : dse) {
    if (m.speedup < 1.0) {
      std::printf("note: cache on is slower than cache off on %s %s "
                  "(%.2fx)\n",
                  m.model.c_str(), m.engine.c_str(), m.speedup);
    }
  }

  std::vector<std::string> kernel_records;
  for (const KernelMeasurement& m : kernel) {
    kernel_records.push_back(bench::json_obj({
        bench::json_field("model", bench::json_str(m.model)),
        bench::json_field("runs", bench::json_num(m.runs)),
        bench::json_field("fresh_seconds", bench::json_num(m.fresh_seconds)),
        bench::json_field("reused_seconds",
                          bench::json_num(m.reused_seconds)),
        bench::json_field("speedup", bench::json_num(m.speedup)),
        bench::json_field("states_per_second",
                          bench::json_num(m.states_per_second)),
        bench::json_field("arena_bytes", bench::json_num(m.arena_bytes)),
    }));
  }
  std::vector<std::string> dse_records;
  for (const DseMeasurement& m : dse) {
    dse_records.push_back(bench::json_obj({
        bench::json_field("model", bench::json_str(m.model)),
        bench::json_field("engine", bench::json_str(m.engine)),
        bench::json_field("cache_capacity", bench::json_num(m.cache_capacity)),
        bench::json_field("nocache_seconds",
                          bench::json_num(m.nocache_seconds)),
        bench::json_field("cache_seconds", bench::json_num(m.cache_seconds)),
        bench::json_field("speedup", bench::json_num(m.speedup)),
        bench::json_field("nocache_simulations",
                          bench::json_num(m.nocache_simulations)),
        bench::json_field("cache_simulations",
                          bench::json_num(m.cache_simulations)),
        bench::json_field("simulations_saved_pct",
                          bench::json_num(m.simulations_saved_pct)),
        bench::json_field("cache_hits", bench::json_num(m.cache_hits)),
        bench::json_field("dominance_skips",
                          bench::json_num(m.dominance_skips)),
        bench::json_field("identical", m.identical ? "true" : "false"),
    }));
  }
  const std::string json = bench::json_obj({
      bench::json_field("kernel", bench::json_arr(kernel_records)),
      bench::json_field("dse", bench::json_arr(dse_records)),
  });
  std::printf("\n=== JSON ===\n%s\n", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (report_dir.has_value()) {
    trace::ReportFragment f("Throughput hot path: the throughput cache",
                            "bench_throughput_hotpath");
    f.paragraph("End-to-end explorations with the cross-distribution "
                "throughput cache off vs on (solver reuse and fused "
                "storage-dependency collection are always on). Wall-clock "
                "speedups are machine-dependent and reported by the binary "
                "only; the simulation counts below are "
                "deterministic, and the fronts must be byte-identical in "
                "every configuration. The stress-corpus rows (g10_*) run "
                "with buffyd's bounded cache of 2^18 entries; the models "
                "with an unbounded one.");
    std::vector<std::vector<std::string>> rows;
    for (const DseMeasurement& m : dse) {
      char pct[16];
      std::snprintf(pct, sizeof pct, "%.1f%%", m.simulations_saved_pct);
      rows.push_back({m.model, m.engine,
                      std::to_string(m.nocache_simulations),
                      std::to_string(m.cache_simulations), pct,
                      std::to_string(m.cache_hits),
                      std::to_string(m.dominance_skips),
                      m.identical ? "yes" : "NO"});
    }
    f.table({"model", "engine", "nocache-sims", "cache-sims", "sims-saved",
             "cache-hits", "dominance-skips", "identical"},
            rows);
    f.bullet(std::string("cached fronts identical to the cache-less front "
                         "on every model: ") +
             (all_identical ? "yes" : "NO"));
    f.write(*report_dir, "throughput_hotpath");
  }

  if (!all_identical) {
    std::printf("\nFAIL: a cached front diverged from the cache-less "
                "front\n");
    return 1;
  }
  return 0;
}
