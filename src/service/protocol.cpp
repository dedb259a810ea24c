#include "service/protocol.hpp"

namespace buffy::service {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw ProtocolError(ErrorCode::BadRequest, what);
}

// Typed member extraction: each accessor reports the member name in its
// diagnostic so clients can fix the request without reading daemon code.
std::optional<i64> opt_int(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->is_null()) return std::nullopt;
  if (!v->is_int()) bad(std::string("member '") + key + "' must be an integer");
  return v->as_int();
}

std::optional<std::string> opt_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->is_null()) return std::nullopt;
  if (!v->is_string()) bad(std::string("member '") + key + "' must be a string");
  return v->as_string();
}

std::optional<bool> opt_bool(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->is_null()) return std::nullopt;
  if (!v->is_bool()) bad(std::string("member '") + key + "' must be a boolean");
  return v->as_bool();
}

std::optional<Rational> opt_rational(const JsonValue& obj, const char* key) {
  const std::optional<std::string> text = opt_string(obj, key);
  if (!text.has_value()) return std::nullopt;
  try {
    return parse_rational(*text);
  } catch (const Error& e) {
    bad(std::string("member '") + key + "': " + e.what());
  }
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadRequest:
      return "bad_request";
    case ErrorCode::GraphParseError:
      return "parse_error";
    case ErrorCode::GraphInvalid:
      return "graph_error";
    case ErrorCode::Overloaded:
      return "overloaded";
    case ErrorCode::DeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::Cancelled:
      return "cancelled";
    case ErrorCode::ShuttingDown:
      return "shutting_down";
    case ErrorCode::MagnitudeOverflow:
      return "magnitude_overflow";
    case ErrorCode::InternalError:
      return "internal_error";
  }
  return "internal_error";
}

Request parse_request(const std::string& line) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const Error& e) {
    bad(e.what());
  }
  if (!doc.is_object()) bad("a request must be a JSON object");

  Request req;
  req.id = opt_int(doc, "id");

  const std::optional<std::string> method = opt_string(doc, "method");
  if (!method.has_value()) bad("missing member 'method'");
  if (*method == "analyze_throughput") {
    req.method = Method::AnalyzeThroughput;
  } else if (*method == "explore_pareto") {
    req.method = Method::ExplorePareto;
  } else if (*method == "explore_slice") {
    req.method = Method::ExploreSlice;
  } else if (*method == "status") {
    req.method = Method::Status;
  } else if (*method == "cancel") {
    req.method = Method::Cancel;
  } else if (*method == "shutdown") {
    req.method = Method::Shutdown;
  } else {
    bad("unknown method '" + *method + "'");
  }

  if (req.method == Method::AnalyzeThroughput ||
      req.method == Method::ExplorePareto ||
      req.method == Method::ExploreSlice) {
    const std::optional<std::string> graph = opt_string(doc, "graph");
    if (!graph.has_value() || graph->empty()) {
      bad("missing member 'graph' (inline XML or DSL payload)");
    }
    req.graph_text = *graph;
    if (const std::optional<std::string> fmt = opt_string(doc, "format")) {
      if (*fmt == "dsl") {
        req.format = GraphFormat::Dsl;
      } else if (*fmt == "xml") {
        req.format = GraphFormat::Xml;
      } else if (*fmt == "auto") {
        req.format = GraphFormat::Auto;
      } else {
        bad("member 'format' must be \"dsl\", \"xml\" or \"auto\"");
      }
    }
    req.target = opt_string(doc, "target").value_or("");
    req.deadline_ms = opt_int(doc, "deadline_ms");
    if (req.deadline_ms.has_value() && *req.deadline_ms < 0) {
      bad("member 'deadline_ms' must be >= 0");
    }
  }

  if (req.method == Method::AnalyzeThroughput) {
    if (const JsonValue* caps = doc.find("capacities")) {
      if (!caps->is_array()) bad("member 'capacities' must be an array");
      for (const JsonValue& c : caps->as_array()) {
        if (!c.is_int()) bad("member 'capacities' must hold integers");
        req.capacities.push_back(c.as_int());
      }
      if (req.capacities.empty()) {
        bad("member 'capacities' must not be an empty array");
      }
    }
  }

  if (req.method == Method::ExplorePareto ||
      req.method == Method::ExploreSlice) {
    req.engine = opt_string(doc, "engine");
    if (req.engine.has_value() && *req.engine != "inc" &&
        *req.engine != "exh") {
      bad("member 'engine' must be \"inc\" or \"exh\"");
    }
    req.quality = opt_string(doc, "quality");
    if (req.quality.has_value() && *req.quality != "fast" &&
        *req.quality != "exact") {
      bad("member 'quality' must be \"fast\" or \"exact\"");
    }
    req.levels = opt_int(doc, "levels");
    if (req.levels.has_value() && *req.levels < 1) {
      bad("member 'levels' must be >= 1");
    }
    req.max_size = opt_int(doc, "max_size");
    req.goal = opt_rational(doc, "goal");
    req.min_throughput = opt_rational(doc, "min_throughput");
    req.threads = opt_int(doc, "threads");
    if (req.threads.has_value() && *req.threads < 1) {
      bad("member 'threads' must be >= 1");
    }
    req.use_cache = opt_bool(doc, "cache").value_or(true);
  }

  if (req.method == Method::ExplorePareto) {
    req.scatter = opt_bool(doc, "scatter").value_or(false);
  }

  if (req.method == Method::ExploreSlice) {
    req.slice_size = opt_int(doc, "size");
    if (!req.slice_size.has_value()) {
      bad("explore_slice requires member 'size'");
    }
    req.slice_goal = opt_rational(doc, "slice_goal");
    if (!req.slice_goal.has_value()) {
      bad("explore_slice requires member 'slice_goal'");
    }
    if (const JsonValue* seed = doc.find("seed")) {
      if (!seed->is_array()) bad("member 'seed' must be an array");
      for (const JsonValue& c : seed->as_array()) {
        if (!c.is_int()) bad("member 'seed' must hold integers");
        req.slice_seed.push_back(c.as_int());
      }
      if (req.slice_seed.empty()) {
        bad("member 'seed' must not be an empty array");
      }
    }
  }

  if (req.method == Method::Cancel) {
    req.cancel_id = opt_int(doc, "target_id");
    if (!req.cancel_id.has_value()) {
      bad("cancel requires member 'target_id'");
    }
  }

  return req;
}

std::string ok_response(std::optional<i64> id, const JsonValue& result) {
  JsonValue resp = JsonValue::object();
  if (id.has_value()) resp.set("id", JsonValue::integer(*id));
  resp.set("ok", JsonValue::boolean(true));
  resp.set("result", result);
  return resp.dump();
}

std::string error_response(std::optional<i64> id, ErrorCode code,
                           const std::string& message) {
  JsonValue err = JsonValue::object();
  err.set("code", JsonValue::string(error_code_name(code)));
  err.set("message", JsonValue::string(message));
  return error_response(id, err);
}

std::string error_response(std::optional<i64> id, const JsonValue& error) {
  JsonValue resp = JsonValue::object();
  if (id.has_value()) resp.set("id", JsonValue::integer(*id));
  resp.set("ok", JsonValue::boolean(false));
  resp.set("error", error);
  return resp.dump();
}

}  // namespace buffy::service
