// buffyd wire protocol: newline-delimited JSON requests and responses
// (DESIGN.md §10).
//
// One request per line, one response per line. Every request is a JSON
// object with a "method" member; analysis methods carry the graph inline
// (XML or DSL payload, parsed by the existing io/ readers) so the daemon
// holds no filesystem state. Responses echo the request's "id" (when one
// was given) and are either
//
//   {"id":N,"ok":true,"result":{...}}
//   {"id":N,"ok":false,"error":{"code":"...","message":"..."}}
//
// Error codes are a closed set (error_code_name below); clients dispatch
// on the code, the message is for humans. Responses to pool-dispatched
// methods (analyze_throughput, explore_pareto) may arrive out of request
// order — clients correlate by id.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "base/checked_math.hpp"
#include "base/diagnostics.hpp"
#include "base/rational.hpp"
#include "service/json.hpp"

namespace buffy::service {

/// The closed set of protocol error codes (DESIGN.md §10).
enum class ErrorCode {
  /// Request line is not valid JSON, not an object, or missing/mistyped
  /// members.
  BadRequest,
  /// The graph payload failed to parse (XML or DSL diagnostics).
  GraphParseError,
  /// The graph parsed but is structurally or semantically invalid
  /// (inconsistent rates, unknown target actor, bad capacities).
  GraphInvalid,
  /// Backpressure: the job queue is at capacity; retry later.
  Overloaded,
  /// The request's deadline expired before the analysis finished.
  DeadlineExceeded,
  /// The request was cancelled (a "cancel" request or client disconnect).
  Cancelled,
  /// The daemon is draining: the request was queued but never started.
  ShuttingDown,
  /// The graph is consistent but its static magnitude envelopes leave
  /// signed 64-bit range (analysis::derive_bounds, DESIGN.md §16): no
  /// engine can analyse it without overflowing, so admission rejects it
  /// up front with the offending envelope named in the message.
  MagnitudeOverflow,
  /// A bug in the daemon (invariant violation); reported, never crashes
  /// the process.
  InternalError,
};

/// Stable wire name of an error code ("bad_request", "overloaded", ...).
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// Thrown by request handling; the server turns it into an error
/// response with the carried code.
class ProtocolError : public Error {
 public:
  ProtocolError(ErrorCode code, const std::string& what)
      : Error(what), code_(code) {}
  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Request methods.
enum class Method {
  /// Maximal throughput of the graph (MCM reference), or — with
  /// "capacities" — the simulated throughput under that distribution.
  AnalyzeThroughput,
  /// Full storage/throughput design-space exploration (the Pareto front).
  ExplorePareto,
  /// One per-size evaluation of the exhaustive engine's divide and
  /// conquer (buffer::explore_size_slice) — the unit the fleet router
  /// scatters across worker processes (DESIGN.md §17). Carries the graph
  /// plus the engine-effective exploration options so the outcome is a
  /// pure function of the request.
  ExploreSlice,
  /// Daemon metrics: request counters, job queue, cache state.
  Status,
  /// Cancels an in-flight request of this connection by id.
  Cancel,
  /// Graceful drain: in-flight requests complete, queued ones are
  /// rejected with shutting_down, then the daemon exits.
  Shutdown,
};

/// Graph payload encodings.
enum class GraphFormat {
  Auto,  ///< XML when the payload starts with '<', DSL otherwise.
  Dsl,
  Xml,
};

/// One parsed request (the union of all methods' fields).
struct Request {
  std::optional<i64> id;
  Method method = Method::Status;

  // analyze_throughput / explore_pareto
  std::string graph_text;
  GraphFormat format = GraphFormat::Auto;
  std::string target;  ///< Actor name; empty = last actor of the graph.

  // analyze_throughput
  std::vector<i64> capacities;  ///< Empty = maximal throughput.

  // explore_pareto
  std::optional<std::string> engine;  ///< "inc" (default) or "exh".
  /// "exact" (default): full engine exploration. "fast": the LP-only
  /// front (buffer/fast_front) — every point sound but approximate,
  /// answered without per-candidate simulation.
  std::optional<std::string> quality;
  std::optional<i64> levels;
  std::optional<i64> max_size;
  std::optional<Rational> goal;
  std::optional<Rational> min_throughput;
  bool use_cache = true;
  /// Router-only hint on explore_pareto: scatter the exhaustive d&c
  /// across the worker fleet instead of routing the whole request to the
  /// graph's home shard. Workers ignore it.
  bool scatter = false;

  // explore_slice
  std::optional<i64> slice_size;
  std::optional<Rational> slice_goal;
  std::vector<i64> slice_seed;  ///< Empty = unseeded slice.

  // analyze_throughput / explore_pareto / explore_slice
  std::optional<i64> deadline_ms;

  // cancel
  std::optional<i64> cancel_id;
};

/// Parses one request line. Throws ProtocolError(BadRequest) on malformed
/// JSON, unknown methods, or mistyped members — the graph payload itself
/// is NOT parsed here (that happens in the worker, under the request's
/// deadline).
[[nodiscard]] Request parse_request(const std::string& line);

/// Renders a success response line (no trailing newline).
[[nodiscard]] std::string ok_response(std::optional<i64> id,
                                      const JsonValue& result);

/// Renders an error response line (no trailing newline).
[[nodiscard]] std::string error_response(std::optional<i64> id,
                                         ErrorCode code,
                                         const std::string& message);

/// Renders an error response line around a ready `error` object: a code a
/// worker reported, or extra members such as `retry_after_ms`.
[[nodiscard]] std::string error_response(std::optional<i64> id,
                                         const JsonValue& error);

}  // namespace buffy::service
