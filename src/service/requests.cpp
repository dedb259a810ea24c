#include "service/requests.hpp"

#include "analysis/bounds.hpp"
#include "io/dsl.hpp"
#include "io/sdf_xml.hpp"

namespace buffy::service {

sdf::Graph parse_graph(const Request& req) {
  GraphFormat format = req.format;
  if (format == GraphFormat::Auto) {
    format = GraphFormat::Dsl;
    for (const char c : req.graph_text) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
      if (c == '<') format = GraphFormat::Xml;
      break;
    }
  }
  return format == GraphFormat::Xml ? io::read_sdf_xml(req.graph_text)
                                    : io::read_dsl(req.graph_text);
}

sdf::ActorId resolve_target(const sdf::Graph& graph, const std::string& name) {
  if (graph.num_actors() == 0) {
    throw ProtocolError(ErrorCode::GraphInvalid, "the graph has no actors");
  }
  if (name.empty()) return sdf::ActorId(graph.num_actors() - 1);
  const std::optional<sdf::ActorId> id = graph.find_actor(name);
  if (!id.has_value()) {
    throw ProtocolError(ErrorCode::GraphInvalid,
                        "no actor named '" + name + "'");
  }
  return *id;
}

void admit_magnitudes(const sdf::Graph& graph) {
  // Quality downgrade is NOT decided here: the certificate's
  // lp_coeff_bound envelope covers every LP the budget box could build and
  // routinely exceeds the stamped bound of the problems the fast tier
  // actually solves — buffyd's handle_explore judges the solves' outcome.
  const analysis::BoundsCertificate cert = analysis::derive_bounds(graph);
  if (cert.consistent && !cert.fits_i64) {
    throw ProtocolError(ErrorCode::MagnitudeOverflow,
                        "graph '" + graph.name() +
                            "' rejected at admission: " +
                            cert.overflow_detail);
  }
}

std::string current_error_response(std::optional<i64> id,
                                   const exec::CancellationToken& cancel_root,
                                   const std::string& deadline_message) {
  try {
    throw;
  } catch (const exec::Cancelled&) {
    return cancel_root.cancelled()
               ? error_response(id, ErrorCode::Cancelled,
                                "the request was cancelled")
               : error_response(id, ErrorCode::DeadlineExceeded,
                                deadline_message);
  } catch (const ProtocolError& e) {
    return error_response(id, e.code(), e.what());
  } catch (const ParseError& e) {
    return error_response(id, ErrorCode::GraphParseError, e.what());
  } catch (const InternalError& e) {
    return error_response(id, ErrorCode::InternalError, e.what());
  } catch (const Error& e) {
    return error_response(id, ErrorCode::GraphInvalid, e.what());
  } catch (const std::exception& e) {
    return error_response(id, ErrorCode::InternalError, e.what());
  }
}

void set_front(JsonValue& result, const buffer::DesignSpaceBounds& bounds,
               const buffer::ParetoSet& front) {
  result.set("deadlock", JsonValue::boolean(bounds.deadlock));
  if (!bounds.deadlock) {
    JsonValue b = JsonValue::object();
    b.set("lb_size", JsonValue::integer(bounds.lb_size));
    b.set("ub_size", JsonValue::integer(bounds.ub_size));
    b.set("max_throughput", JsonValue::string(bounds.max_throughput.str()));
    result.set("bounds", b);
  }
  result.set("front", JsonValue::string(front.str()));
  JsonValue points = JsonValue::array();
  for (const buffer::ParetoPoint& p : front.points()) {
    JsonValue point = JsonValue::object();
    point.set("size", JsonValue::integer(p.size()));
    point.set("throughput", JsonValue::string(p.throughput.str()));
    JsonValue caps = JsonValue::array();
    for (const i64 c : p.distribution.capacities()) {
      caps.push_back(JsonValue::integer(c));
    }
    point.set("capacities", caps);
    points.push_back(point);
  }
  result.set("points", points);
}

}  // namespace buffy::service
