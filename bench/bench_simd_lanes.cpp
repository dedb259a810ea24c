// Lane-parallel kernel scaling (state/ subsystem, DESIGN.md §15):
// wall-clock of the DSE engines under each SIMD backend — scalar
// reference, the lane kernel built for the baseline ISA (swar) and for
// AVX2 when the host has it — at 1 and 8 worker threads, on the models
// whose explorations are wide enough to fill lane batches
// (h263/mpeg4/modem incremental, samplerate exhaustive). Every lane front
// is hard-gated byte-identical to the scalar one at the same thread count
// (exit 1 on divergence, always), pinning the equivalence argument of
// DESIGN.md §15 on real explorations rather than synthetic batches.
//
// `--assert-lane-scaling` additionally turns the lane-speedup contract
// into exit codes for CI: the single-thread SWAR h263 incremental
// exploration must be >= 2x the scalar one, on every host (SWAR needs no
// CPU feature); on AVX2 hosts the AVX2 run must also be at least as fast
// as SWAR, which catches a lost -mavx2 flag or a de-vectorized body.
//
// Every lane run derives the static magnitude certificate (DESIGN.md
// §16), which selects the i32 narrow kernel once per graph instead of
// per batch. On h263 the lane runs must actually engage that static
// narrow path (asserted under `--assert-lane-scaling`, where it is
// deterministic: it depends only on graph magnitudes, not timing).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "buffer/dse.hpp"
#include "models/models.hpp"
#include "report_util.hpp"
#include "state/simd_backend.hpp"

using namespace buffy;

namespace {

struct BenchCase {
  std::string model;
  sdf::Graph graph;
  buffer::DseEngine engine;
};

struct Measurement {
  std::string model;
  std::string engine;
  std::string backend;
  unsigned threads = 1;
  double seconds = 0;
  double speedup = 1.0;  // vs scalar at the same thread count
  u64 explored = 0;
  u64 simulations = 0;
  std::size_t points = 0;
  bool static_narrow = false;  // certificate elected the i32 kernel
  bool identical = true;  // front matches the scalar run byte for byte
};

const char* engine_name(buffer::DseEngine e) {
  return e == buffer::DseEngine::Exhaustive ? "exh" : "inc";
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

buffer::DseResult run_once(const BenchCase& c, state::SimdBackend backend,
                           unsigned threads) {
  buffer::DseOptions opts{.target = models::reported_actor(c.graph),
                          .engine = c.engine};
  opts.threads = threads;
  opts.simd = backend;
  return buffer::explore(c.graph, opts);
}

// Best-of-N wall clock; N shrinks for slow configurations.
buffer::DseResult run_timed(const BenchCase& c, state::SimdBackend backend,
                            unsigned threads, double* seconds) {
  buffer::DseResult best = run_once(c, backend, threads);
  *seconds = best.seconds;
  const int reps = best.seconds > 0.5 ? 2 : 3;
  for (int r = 1; r < reps; ++r) {
    buffer::DseResult again = run_once(c, backend, threads);
    if (again.seconds < *seconds) *seconds = again.seconds;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::optional<std::string> report_dir;
  bool assert_lane_scaling = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report-dir") == 0 && i + 1 < argc) {
      report_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--assert-lane-scaling") == 0) {
      assert_lane_scaling = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_simd_lanes [--json FILE] "
                   "[--report-dir DIR] [--assert-lane-scaling]\n");
      return 2;
    }
  }

  std::vector<BenchCase> cases;
  cases.push_back(
      {"h263", models::h263_decoder(), buffer::DseEngine::Incremental});
  cases.push_back(
      {"mpeg4", models::mpeg4_sp_decoder(), buffer::DseEngine::Incremental});
  cases.push_back({"modem", models::modem(), buffer::DseEngine::Incremental});
  cases.push_back({"samplerate", models::samplerate_converter(),
                   buffer::DseEngine::Exhaustive});

  std::vector<state::SimdBackend> backends{state::SimdBackend::Scalar,
                                           state::SimdBackend::Swar};
  if (state::backend_available(state::SimdBackend::Avx2)) {
    backends.push_back(state::SimdBackend::Avx2);
  } else {
    std::printf("note: AVX2 not available on this host; benchmarking "
                "scalar and swar only\n");
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "=== lane-parallel kernel: %zu backends x 1/8 threads (%u hardware) "
      "===\n\n",
      backends.size(), hw);
  const std::vector<int> widths{12, 7, 8, 8, 10, 9, 10, 8, 7, 7, 10};
  bench::print_row({"model", "engine", "backend", "threads", "time(s)",
                    "speedup", "explored", "sims", "points", "narrow",
                    "identical"},
                   widths);
  bench::print_rule(widths);

  std::vector<Measurement> measurements;
  bool all_identical = true;
  // h263's magnitudes sit far inside kNarrowLimit, so every h263 lane run
  // must report static narrow-kernel selection.
  bool h263_narrow_everywhere = true;
  for (const BenchCase& c : cases) {
    for (const unsigned threads : {1u, 8u}) {
      double scalar_seconds = 0;
      buffer::DseResult scalar_front =
          run_timed(c, state::SimdBackend::Scalar, threads, &scalar_seconds);
      for (const state::SimdBackend backend : backends) {
        Measurement m;
        m.model = c.model;
        m.engine = engine_name(c.engine);
        m.backend = state::backend_name(backend);
        m.threads = threads;
        buffer::DseResult r = scalar_front;
        if (backend == state::SimdBackend::Scalar) {
          m.seconds = scalar_seconds;
        } else {
          r = run_timed(c, backend, threads, &m.seconds);
        }
        m.speedup = m.seconds > 0 ? scalar_seconds / m.seconds : 1.0;
        m.explored = r.distributions_explored;
        m.simulations = r.simulations_run;
        m.points = r.pareto.size();
        m.static_narrow = r.static_narrow;
        m.identical = fronts_identical(scalar_front, r);
        all_identical = all_identical && m.identical;
        if (c.model == "h263" && backend != state::SimdBackend::Scalar) {
          h263_narrow_everywhere = h263_narrow_everywhere && m.static_narrow;
        }
        std::printf(
            "%-12s %-7s %-8s %-8u %-10.4f %-9.2f %-10llu %-8llu %-7zu %-7s "
            "%s\n",
            m.model.c_str(), m.engine.c_str(), m.backend.c_str(), m.threads,
            m.seconds, m.speedup, static_cast<unsigned long long>(m.explored),
            static_cast<unsigned long long>(m.simulations), m.points,
            m.static_narrow ? "yes" : "no", m.identical ? "yes" : "NO");
        measurements.push_back(std::move(m));
      }
    }
  }

  std::vector<std::string> records;
  records.reserve(measurements.size());
  for (const Measurement& m : measurements) {
    records.push_back(bench::json_obj({
        bench::json_field("model", bench::json_str(m.model)),
        bench::json_field("engine", bench::json_str(m.engine)),
        bench::json_field("backend", bench::json_str(m.backend)),
        bench::json_field("threads", bench::json_num(u64{m.threads})),
        bench::json_field("seconds", bench::json_num(m.seconds)),
        bench::json_field("speedup", bench::json_num(m.speedup)),
        bench::json_field("explored", bench::json_num(m.explored)),
        bench::json_field("simulations", bench::json_num(m.simulations)),
        bench::json_field("points", bench::json_num(u64{m.points})),
        bench::json_field("static_narrow", m.static_narrow ? "true" : "false"),
        bench::json_field("identical", m.identical ? "true" : "false"),
    }));
  }
  const std::string json = bench::json_arr(records);
  std::printf("\n=== JSON ===\n%s\n", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (report_dir.has_value()) {
    trace::ReportFragment f("Lane-parallel kernel: SIMD backend scaling",
                            "bench_simd_lanes");
    f.paragraph(
        "Each model's exploration runs under every SIMD backend the host "
        "offers (scalar reference, the lane kernel built for the baseline "
        "ISA and for AVX2) at 1 and 8 worker threads; every lane front is "
        "checked byte-for-byte against the scalar front at the same thread "
        "count. Wall-clock numbers are machine-dependent and reported by "
        "the binary only; the exploration counts below are deterministic "
        "per engine (the lane engines batch candidates, so the exhaustive "
        "counts differ from scalar by design — the front never does).");
    std::vector<std::vector<std::string>> rows;
    for (const Measurement& m : measurements) {
      if (m.threads != 1 || m.backend == "scalar") continue;
      rows.push_back({m.model, m.engine, m.backend, std::to_string(m.explored),
                      std::to_string(m.points)});
    }
    f.table({"model", "engine", "backend", "explored", "points"}, rows);
    f.bullet(std::string("every lane front identical to the scalar front: ") +
             (all_identical ? "yes" : "NO"));
    f.bullet(
        "lane contract (--assert-lane-scaling): single-thread SWAR h263 "
        "incremental >= 2x scalar, and AVX2 >= SWAR there on hosts with "
        "AVX2");
    f.bullet(std::string("h263 lane runs select the narrow i32 kernel "
                         "statically from the magnitude certificate "
                         "(DESIGN.md §16, no per-batch width scan): ") +
             (h263_narrow_everywhere ? "yes" : "NO"));
    f.write(*report_dir, "simd_lanes");
  }

  if (!all_identical) {
    std::printf("\nFAIL: a lane front diverged from the scalar one\n");
    return 1;
  }

  if (assert_lane_scaling) {
    double swar_speedup_1t = 0.0;
    double avx2_speedup_1t = 0.0;
    for (const Measurement& m : measurements) {
      if (m.model != "h263" || m.threads != 1) continue;
      if (m.backend == "swar") swar_speedup_1t = m.speedup;
      if (m.backend == "avx2") avx2_speedup_1t = m.speedup;
    }
    if (swar_speedup_1t < 2.0) {
      std::printf(
          "FAIL: single-thread h263 incremental under SWAR lanes is %.2fx "
          "scalar, expected >= 2x\n",
          swar_speedup_1t);
      return 1;
    }
    if (state::backend_available(state::SimdBackend::Avx2) &&
        avx2_speedup_1t < swar_speedup_1t) {
      std::printf("FAIL: single-thread h263 incremental under AVX2 lanes is "
                  "%.2fx scalar, below SWAR's %.2fx\n",
                  avx2_speedup_1t, swar_speedup_1t);
      return 1;
    }
    // Deterministic half of the contract: h263's magnitudes fit the
    // narrow envelope, so every lane run must have engaged static
    // narrow-kernel selection.
    if (!h263_narrow_everywhere) {
      std::printf(
          "FAIL: an h263 lane run did not select the narrow kernel "
          "statically\n");
      return 1;
    }
    std::printf("lane scaling assertions passed (swar %.2fx, avx2 %.2fx, "
                "static narrow selection engaged)\n",
                swar_speedup_1t, avx2_speedup_1t);
  }
  return 0;
}
