// Markdown report fragments and the EXPERIMENTS.md stitcher (DESIGN.md §8).
//
// Every reproduction bench renders its paper-vs-measured section as a
// *fragment*: one self-contained Markdown file under report/ holding only
// deterministic content (throughputs, sizes, state counts, Pareto fronts,
// Gantt charts — never wall-clock times, which vary per machine). The
// make_experiments tool stitches the fragments, in the fixed manifest
// order below, into EXPERIMENTS.md — so the experiment documentation is a
// generated artifact that CI can regenerate and diff instead of a
// hand-maintained table that drifts.
//
// ReportFragment is a small Markdown builder; the domain-specific table
// renderers (Pareto fronts, Gantt charts) live with the benches
// (bench/report_util.hpp) to keep this module free of upward
// dependencies.
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace buffy::trace {

/// Builds one Markdown fragment: a section heading plus paragraphs,
/// pipe tables, bullet lists and fenced code blocks, in insertion order.
class ReportFragment {
 public:
  /// `title` becomes a "## title" heading; `binary` names the bench that
  /// regenerates this fragment (rendered as a "Binary:" line).
  ReportFragment(std::string title, std::string binary);

  void paragraph(const std::string& text);
  void bullet(const std::string& text);
  /// Pipe table; every row must have header.size() cells.
  void table(const std::vector<std::string>& header,
             const std::vector<std::vector<std::string>>& rows);
  /// Fenced code block (empty info string by default).
  void code_block(const std::string& text, const std::string& info = "");

  /// The fragment as Markdown, ending in exactly one newline.
  [[nodiscard]] std::string str() const;

  /// Writes str() to `<dir>/<name>.md`, creating `dir` if needed.
  /// Returns the path written. Throws Error on I/O failure.
  std::string write(const std::string& dir, const std::string& name) const;

 private:
  std::string title_;
  std::string binary_;
  std::vector<std::string> blocks_;
};

/// One entry of the EXPERIMENTS.md manifest: which fragment file a bench
/// produces. Order in the manifest = order of sections in EXPERIMENTS.md.
struct ManifestEntry {
  const char* fragment;  // file stem under report/ (no ".md")
  const char* binary;    // bench target that regenerates it
};

/// The fixed section order of the generated EXPERIMENTS.md.
[[nodiscard]] const std::vector<ManifestEntry>& experiments_manifest();

/// Stitches `<report_dir>/<fragment>.md` for every manifest entry into
/// the full EXPERIMENTS.md text (header + reading guide + fragments).
/// Throws Error naming every missing fragment and the bench to run.
[[nodiscard]] std::string stitch_experiments(const std::string& report_dir);

}  // namespace buffy::trace
