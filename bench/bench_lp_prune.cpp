// LP cycle-cut pruning ablation (DESIGN.md §13): the exhaustive engine
// with the exact-rational LP bounds on versus off, over the reproduction
// graphs. The bounds are only admissible accelerators — every front must
// be byte-identical with pruning enabled — so this bench is both the
// perf story (simulations avoided) and a determinism gate (exits
// non-zero on any divergence).
//
// `--json FILE` writes the machine-readable baseline checked in as
// BENCH_lp_prune.json; `--report-dir DIR` emits the EXPERIMENTS.md
// fragment (deterministic counters only, no wall-clock numbers).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "buffer/dse.hpp"
#include "models/models.hpp"
#include "report_util.hpp"

using namespace buffy;

namespace {

struct Ablation {
  std::string name;
  u64 sims_off = 0;
  u64 sims_on = 0;
  u64 lp_prunes = 0;
  u64 lp_cuts = 0;
  double seconds_off = 0;
  double seconds_on = 0;
  std::size_t points = 0;
  bool identical = true;
};

Ablation run(const std::string& name, const sdf::Graph& g,
             std::optional<i64> levels) {
  buffer::DseOptions opts;
  opts.target = models::reported_actor(g);
  opts.engine = buffer::DseEngine::Exhaustive;
  opts.quantization_levels = levels;

  opts.use_lp_bounds = false;
  const buffer::DseResult off = buffer::explore(g, opts);
  opts.use_lp_bounds = true;
  const buffer::DseResult on = buffer::explore(g, opts);

  Ablation a;
  a.name = name;
  a.sims_off = off.simulations_run;
  a.sims_on = on.simulations_run;
  a.lp_prunes = on.lp_prunes;
  a.lp_cuts = on.lp_cuts;
  a.seconds_off = off.seconds;
  a.seconds_on = on.seconds;
  a.points = on.pareto.size();
  a.identical = on.pareto.str() == off.pareto.str();
  return a;
}

// Negative when pruning costs simulations (see the fragment's note).
double saved_pct(const Ablation& a) {
  if (a.sims_off == 0) return 0.0;
  return 100.0 *
         (static_cast<double>(a.sims_off) - static_cast<double>(a.sims_on)) /
         static_cast<double>(a.sims_off);
}

}  // namespace

int main(int argc, char** argv) {
  const auto report_dir = bench::report_dir_arg(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("=== LP cycle-cut pruning: exhaustive engine, bounds off vs on ===\n\n");
  const std::vector<int> widths{14, 8, 11, 10, 9, 7, 9, 10, 10, 6};
  bench::print_row({"graph", "pareto", "sims(off)", "sims(on)", "saved%",
                    "cuts", "prunes", "time(off)", "time(on)", "same"},
                   widths);
  bench::print_rule(widths);

  std::vector<Ablation> rows;
  const auto report = [&](const std::string& name, const sdf::Graph& g,
                          std::optional<i64> levels = std::nullopt) {
    const Ablation a = run(name, g, levels);
    std::printf("%-14s %-8zu %-11llu %-10llu %-9.1f %-7llu %-9llu %-10.3f "
                "%-10.3f %s\n",
                a.name.c_str(), a.points,
                static_cast<unsigned long long>(a.sims_off),
                static_cast<unsigned long long>(a.sims_on), saved_pct(a),
                static_cast<unsigned long long>(a.lp_cuts),
                static_cast<unsigned long long>(a.lp_prunes), a.seconds_off,
                a.seconds_on, a.identical ? "yes" : "NO");
    rows.push_back(a);
  };

  report("example", models::paper_example());
  report("samplerate", models::samplerate_converter());
  report("modem", models::modem());
  report("satellite", models::satellite_receiver());
  report("mpeg4", models::mpeg4_sp_decoder());
  // H.263 at 20 throughput levels: the Sec. 11 quantisation remedy keeps
  // the 594-block front tractable for an exhaustive off/on pair.
  report("h263 (20 lvl)", models::h263_decoder(), 20);

  bool all_identical = true;
  for (const Ablation& a : rows) all_identical = all_identical && a.identical;
  std::printf("\nfronts byte-identical with LP pruning on: %s\n",
              all_identical ? "OK" : "MISMATCH");

  if (!json_path.empty()) {
    std::vector<std::string> records;
    records.reserve(rows.size());
    for (const Ablation& a : rows) {
      records.push_back(bench::json_obj({
          bench::json_field("model", bench::json_str(a.name)),
          bench::json_field("pareto", bench::json_num(static_cast<u64>(a.points))),
          bench::json_field("sims_off", bench::json_num(a.sims_off)),
          bench::json_field("sims_on", bench::json_num(a.sims_on)),
          bench::json_field("sims_saved_pct", bench::json_num(saved_pct(a))),
          bench::json_field("lp_cuts", bench::json_num(a.lp_cuts)),
          bench::json_field("lp_prunes", bench::json_num(a.lp_prunes)),
          bench::json_field("seconds_off", bench::json_num(a.seconds_off)),
          bench::json_field("seconds_on", bench::json_num(a.seconds_on)),
          bench::json_field("identical",
                            a.identical ? std::string("true")
                                        : std::string("false")),
      }));
    }
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    out << bench::json_obj({bench::json_field("lp_prune",
                                              bench::json_arr(records))})
        << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (report_dir.has_value()) {
    trace::ReportFragment f(
        "LP cycle-cut pruning: candidates answered without simulation",
        "bench_lp_prune");
    f.paragraph(
        "The exhaustive engine consults the exact-rational LP cycle cuts "
        "(DESIGN.md §13) before simulating a candidate or descending into "
        "a subtree: when no distribution under the cut bound can beat the "
        "armed incumbent, the whole candidate is answered analytically. "
        "The bounds are necessary conditions, so the front must be — and "
        "is — byte-identical with pruning on or off. The simulation count "
        "usually drops, but not always: with the throughput cache on, a "
        "candidate the LP answers records no equivalence box (DESIGN.md "
        "§7), so a later candidate that box would have answered is "
        "simulated instead (samplerate). Wall-clock deltas live in "
        "BENCH_lp_prune.json.");
    std::vector<std::vector<std::string>> table;
    table.reserve(rows.size());
    for (const Ablation& a : rows) {
      char pct[16];
      std::snprintf(pct, sizeof pct, "%.1f%%", saved_pct(a));
      table.push_back({a.name, std::to_string(a.points),
                       std::to_string(a.sims_off), std::to_string(a.sims_on),
                       pct, std::to_string(a.lp_cuts),
                       std::to_string(a.lp_prunes),
                       a.identical ? "yes" : "NO"});
    }
    f.table({"graph", "pareto", "sims(off)", "sims(on)", "saved", "cuts",
             "prunes", "identical"},
            table);
    f.bullet(std::string("fronts byte-identical with LP pruning on: ") +
             (all_identical ? "OK" : "MISMATCH"));
    f.write(*report_dir, "lp_prune");
  }
  return all_identical ? 0 : 1;
}
