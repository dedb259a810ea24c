#include "trace/report.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/diagnostics.hpp"

namespace buffy::trace {

ReportFragment::ReportFragment(std::string title, std::string binary)
    : title_(std::move(title)), binary_(std::move(binary)) {}

void ReportFragment::paragraph(const std::string& text) {
  blocks_.push_back(text + "\n");
}

void ReportFragment::bullet(const std::string& text) {
  // Consecutive bullets merge into one list: append to the previous block
  // when it is itself a bullet line.
  if (!blocks_.empty() && blocks_.back().rfind("- ", 0) == 0) {
    blocks_.back() += "- " + text + "\n";
  } else {
    blocks_.push_back("- " + text + "\n");
  }
}

void ReportFragment::table(const std::vector<std::string>& header,
                           const std::vector<std::vector<std::string>>& rows) {
  std::string t = "|";
  for (const std::string& h : header) t += " " + h + " |";
  t += "\n|";
  for (std::size_t i = 0; i < header.size(); ++i) t += "---|";
  t += "\n";
  for (const auto& row : rows) {
    BUFFY_REQUIRE(row.size() == header.size(),
                  "report table row width mismatch");
    t += "|";
    for (const std::string& cell : row) t += " " + cell + " |";
    t += "\n";
  }
  blocks_.push_back(std::move(t));
}

void ReportFragment::code_block(const std::string& text,
                                const std::string& info) {
  std::string b = "```" + info + "\n" + text;
  if (text.empty() || text.back() != '\n') b += "\n";
  b += "```\n";
  blocks_.push_back(std::move(b));
}

std::string ReportFragment::str() const {
  std::string out = "## " + title_ + "\n";
  out += "Binary: `" + binary_ + "`\n";
  for (const std::string& block : blocks_) {
    out += "\n" + block;
  }
  return out;
}

std::string ReportFragment::write(const std::string& dir,
                                  const std::string& name) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + name + ".md";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open report fragment '" + path + "'");
  out << str();
  out.close();
  if (!out) throw Error("failed writing report fragment '" + path + "'");
  return path;
}

const std::vector<ManifestEntry>& experiments_manifest() {
  static const std::vector<ManifestEntry> manifest = {
      {"table1_schedule", "bench_table1_schedule"},
      {"fig3_4_statespace", "bench_fig3_4_statespace"},
      {"fig5_pareto_example", "bench_fig5_pareto_example"},
      {"fig7_bounds", "bench_fig7_bounds"},
      {"fig13_pareto_modem", "bench_fig13_pareto_modem"},
      {"table2_main", "bench_table2_main"},
      {"quantization_ablation", "bench_quantization_ablation"},
      {"dse_ablation", "bench_dse_ablation"},
      {"lp_prune", "bench_lp_prune"},
      {"memory_models", "bench_memory_models"},
      {"csdf_extension", "bench_csdf_extension"},
      {"mapping", "bench_mapping"},
      {"extended_models", "bench_extended_models"},
      {"parallel_dse", "bench_parallel_dse"},
      {"parallel_scaling", "bench_parallel_scaling"},
      {"throughput_hotpath", "bench_throughput_hotpath"},
      {"simd_lanes", "bench_simd_lanes"},
  };
  return manifest;
}

std::string stitch_experiments(const std::string& report_dir) {
  std::string out =
      "# EXPERIMENTS — paper vs. measured\n"
      "\n"
      "<!-- GENERATED FILE — do not edit by hand.\n"
      "     Each section below is a fragment under report/, emitted by the\n"
      "     named bench binary (run it with --report-dir report); the\n"
      "     make_experiments tool stitches the fragments into this file:\n"
      "         ./build/tools/make_experiments --report-dir report --out "
      "EXPERIMENTS.md\n"
      "     CI regenerates the fast fragments and fails when this file\n"
      "     drifts from the regenerated copy (docs-freshness check). -->\n"
      "\n"
      "Every table and figure of the paper's evaluation maps to one\n"
      "no-argument binary under `bench/` (see DESIGN.md §3 for the full\n"
      "index). Each binary checks its own \"paper shape\" assertions, exits\n"
      "non-zero on a mismatch, and — with `--report-dir DIR` — renders its\n"
      "section of this file as a Markdown fragment.\n"
      "\n"
      "**Reading guide.** The provided scan of the paper has a garbled\n"
      "Table 2 and bitmap figures, so exact numeric entries for the larger\n"
      "graphs are not recoverable from the text; for those rows the\n"
      "comparison is to the paper's *qualitative claims* (which the text\n"
      "states explicitly). Everything the text states numerically — all of\n"
      "it concerns the Fig. 1 running example — is reproduced exactly. The\n"
      "three [BML99] graphs and the H.263 decoder are reconstructions with\n"
      "the published structural sizes (DESIGN.md, \"Substitutions\"); their\n"
      "absolute numbers are therefore *measured references* for this\n"
      "repository, not claims about the 2006 testbed. Fragments carry only\n"
      "machine-independent measurements (fronts, state counts, simulation\n"
      "counts); wall-clock comparisons — the paper used an 800 MHz Pentium\n"
      "III — live in the bench stdout and the micro-benchmarks below.\n";

  std::string missing;
  for (const ManifestEntry& entry : experiments_manifest()) {
    const std::string path =
        report_dir + "/" + std::string(entry.fragment) + ".md";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      missing += "\n  " + path + "  (regenerate: ./build/bench/" +
                 entry.binary + " --report-dir " + report_dir + ")";
      continue;
    }
    std::ostringstream content;
    content << in.rdbuf();
    out += "\n---\n\n" + content.str();
  }
  if (!missing.empty()) {
    throw Error("missing report fragments:" + missing);
  }

  out +=
      "\n---\n\n"
      "## Micro-benchmarks\n"
      "Binary: `bench_micro` (google-benchmark)\n"
      "\n"
      "Machine-dependent by nature, so not stitched from a fragment:\n"
      "engine event rates, hashing and MCM timings, plus the tracing\n"
      "guard overhead (`BM_throughput_trace_*`: a quiet `trace::enabled()`\n"
      "check must stay within 2% of the untraced throughput run). Run\n"
      "`./build/bench/bench_micro` locally for current numbers.\n";
  return out;
}

}  // namespace buffy::trace
