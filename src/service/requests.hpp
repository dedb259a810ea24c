// Request handling buffyd and buffyd-router share (DESIGN.md §10): graph
// payload decoding, target resolution, magnitude admission, the one
// exception -> ErrorCode mapping and the encoder of the Pareto front both
// daemons' explore answers carry. The wire format itself is
// service/protocol.hpp.
#pragma once

#include <optional>
#include <string>

#include "base/checked_math.hpp"
#include "buffer/bounds.hpp"
#include "buffer/pareto.hpp"
#include "exec/cancellation.hpp"
#include "sdf/graph.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace buffy::service {

/// Decodes the request's graph payload with the io/ readers (Auto sniffs:
/// XML starts with '<' after whitespace, everything else is the DSL).
/// Reader diagnostics propagate as ParseError (parse_error responses).
[[nodiscard]] sdf::Graph parse_graph(const Request& req);

/// The named target actor, or the graph's last actor when `name` is
/// empty. Throws ProtocolError(GraphInvalid) for an unknown name or an
/// empty graph.
[[nodiscard]] sdf::ActorId resolve_target(const sdf::Graph& graph,
                                          const std::string& name);

/// Magnitude admission (DESIGN.md §16): derives the graph's static
/// magnitude certificate under the structural default budget and throws
/// ProtocolError(MagnitudeOverflow) when its envelopes leave i64 — every
/// engine downstream would only reach an OverflowError mid-analysis.
/// Inconsistent graphs pass through: the analysis entry points diagnose
/// them with their richer graph_error messages.
void admit_magnitudes(const sdf::Graph& graph);

/// The error response for the exception being handled; call it from
/// inside a catch block. The one exception -> ErrorCode mapping of both
/// daemons: exec::Cancelled is `cancelled` when `cancel_root` (the
/// explicit cancel / disconnect token) fired and `deadline_exceeded`
/// (with `deadline_message`) otherwise; ProtocolError keeps its code;
/// ParseError is parse_error; InternalError and non-buffy exceptions are
/// internal_error; every other buffy Error (invalid graphs, capacities
/// below initial tokens, safety bounds exceeded) is graph_error — the
/// graph/request combination is invalid, the daemon is fine.
[[nodiscard]] std::string current_error_response(
    std::optional<i64> id, const exec::CancellationToken& cancel_root,
    const std::string& deadline_message);

/// Sets the trade-off members every explore answer carries, in wire order:
/// `deadlock`, `bounds` (omitted on deadlock), `front` (the exact text
/// explore_cli prints — the tests byte-compare it) and `points`.
void set_front(JsonValue& result, const buffer::DesignSpaceBounds& bounds,
               const buffer::ParetoSet& front);

}  // namespace buffy::service
