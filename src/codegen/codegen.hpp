// Generation of the specialised exploration program (paper Sec. 10, Fig. 8).
//
// The buffy tool of the paper does not interpret the graph at exploration
// time: it emits a C++ program whose execSDFgraph() has the firing rules of
// each actor unrolled into straight-line checks (CHECK_TOKENS / CHECK_SPACE
// / CONSUME / PRODUCE directives). This module reproduces that program
// generator; the emitted source is self-contained C++17 and computes the
// throughput of the target actor for a storage distribution given on the
// command line (defaulting to the per-channel lower bounds).
//
// One generator emits every variant, selected by an ExplorerShape:
//
//  * no lanes, no certificate: the scalar Fig. 8 program above;
//  * lanes: the lane-parallel twin (DESIGN.md §15), a structure-of-arrays
//    explorer stepping `lanes` candidate distributions in lockstep with
//    whole-word masks — constant-folded rates, flattened channel rows,
//    unrolled actor loops — that batch-evaluates whole same-size waves in
//    `--dse` mode;
//  * a certificate (DESIGN.md §16): the exploration is clamped to the
//    certified storage budget. Without lanes this is the checked scalar
//    program, which guards every token/occupancy/time update with
//    overflow checks; with lanes it is the statically-narrow program,
//    which runs on 32-bit lane rows with no per-step checks at all — the
//    certificate's envelopes prove they cannot fire.
//
// Lane programs print byte-identical stdout to the scalar program of the
// same certificate setting; the differential tests in
// tests/test_codegen.cpp compile both and compare, so a wrong
// certificate shows up as either a diff or a guarded abort.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "analysis/bounds.hpp"
#include "sdf/graph.hpp"

namespace buffy::codegen {

/// Which explorer variant to emit (see the file comment).
struct ExplorerShape {
  /// Lockstep lane count baked in as `constexpr kLanes`, in [1, 64].
  /// Unset = the scalar program.
  std::optional<std::size_t> lanes;
  /// Magnitude certificate of the graph (analysis::derive_bounds with one
  /// budget entry per channel); not owned, may be null. Set = clamp the
  /// exploration to its budget and emit the checked (scalar) or narrow
  /// (lanes) program.
  const analysis::BoundsCertificate* certificate = nullptr;
};

/// \brief Returns the full source text of the specialised exploration
/// program of the given shape.
///
/// The lane program holds the state of `lanes` simultaneous executions in
/// structure-of-arrays rows and advances them in lockstep, retiring each
/// lane the moment its cycle closes or deadlock is proven and refilling it
/// from the candidate queue — the generated twin of the runtime lane
/// kernel (DESIGN.md §15). In `--dse` mode it pops one whole same-size
/// wave at a time and folds results in pop order, so its stdout is
/// byte-identical to the scalar program's at every lane width. The narrow
/// lane program keeps absolute timestamps 64-bit: they are bounded by the
/// step horizon, not the budget.
///
/// \param graph  The SDF graph to specialise the program for.
/// \param target The actor whose firing rate the program measures.
/// \param shape  Lane count and certificate; default = scalar Fig. 8.
/// \return Self-contained C++17 source; build with `c++ -std=c++17`.
/// \throws Error when \p target is not an actor of \p graph, the lane
/// count is outside [1, 64], or the certificate does not match \p graph
/// (shape, consistency, one budget entry per channel). With lanes, the
/// certificate must also be exact (fits_i64) and its magnitude_bound
/// within the narrow kernel limit (state::kNarrowLimit).
[[nodiscard]] std::string generate_explorer_source(
    const sdf::Graph& graph, sdf::ActorId target,
    const ExplorerShape& shape = {});

/// \brief Writes generate_explorer_source(graph, target, shape) to a file.
/// \throws Error on IO failure or whatever the generator throws.
void write_explorer_source(const sdf::Graph& graph, sdf::ActorId target,
                           const std::string& path,
                           const ExplorerShape& shape = {});

}  // namespace buffy::codegen
