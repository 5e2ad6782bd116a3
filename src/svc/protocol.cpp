#include "svc/protocol.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <system_error>
#include <type_traits>
#include <utility>

#include "support/error.hpp"

namespace topomap::svc {

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kMap: return "map";
    case RequestKind::kExplain: return "explain";
    case RequestKind::kEvacuate: return "evacuate";
    case RequestKind::kOptimal: return "optimal";
    case RequestKind::kStatus: return "status";
    case RequestKind::kMetrics: return "metrics";
    case RequestKind::kFlight: return "flight";
  }
  TOPOMAP_UNREACHABLE("unhandled RequestKind");
}

RequestKind parse_request_kind(const std::string& s) {
  if (s == "map") return RequestKind::kMap;
  if (s == "explain") return RequestKind::kExplain;
  if (s == "evacuate") return RequestKind::kEvacuate;
  if (s == "optimal") return RequestKind::kOptimal;
  if (s == "status") return RequestKind::kStatus;
  if (s == "metrics") return RequestKind::kMetrics;
  if (s == "flight") return RequestKind::kFlight;
  throw precondition_error(
      "svc request: unknown kind '" + s +
      "' (want map | explain | evacuate | optimal | status | metrics | "
      "flight)");
}

namespace {

/// Field accessors that name the offending key on a type mismatch.
const json::Value& require_member(const json::Value& obj,
                                  const std::string& key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr)
    throw precondition_error("svc request: missing field '" + key + "'");
  return *v;
}

std::string get_string(const json::Value& v, const std::string& key) {
  if (!v.is_string())
    throw precondition_error("svc request: field '" + key +
                             "' must be a string");
  return v.as_string();
}

double get_number(const json::Value& v, const std::string& key) {
  if (!v.is_number())
    throw precondition_error("svc request: field '" + key +
                             "' must be a number");
  return v.as_number();
}

/// 2^53: every integer up to it is a double exactly.
constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

std::int64_t get_integer(const json::Value& v, const std::string& key) {
  const double d = get_number(v, key);
  if (std::floor(d) != d ||
      std::abs(d) > static_cast<double>(kMaxExactInteger))
    throw precondition_error("svc request: field '" + key +
                             "' must be an integer");
  return static_cast<std::int64_t>(d);
}

/// A uint64_t field: a non-negative integer number, or, for values above
/// 2^53 that a JSON number cannot carry exactly, a string of decimal
/// digits up to 2^64 - 1.
std::uint64_t get_unsigned(const json::Value& v, const std::string& key) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    const char* const end = s.data() + s.size();
    std::uint64_t u = 0;
    // Unsigned from_chars takes digits only: no sign, space or prefix.
    const auto [ptr, ec] = std::from_chars(s.data(), end, u);
    if (ec != std::errc() || ptr != end)
      throw precondition_error(
          "svc request: field '" + key +
          "' must be a non-negative integer, or a string of decimal digits "
          "up to 18446744073709551615");
    return u;
  }
  const std::int64_t i = get_integer(v, key);
  if (i < 0)
    throw precondition_error("svc request: field '" + key +
                             "' must be non-negative");
  return static_cast<std::uint64_t>(i);
}

/// An integer field of type T: out-of-range values are rejected, not
/// wrapped into T.
template <class T>
T get_ranged(const json::Value& v, const std::string& key) {
  return checked_narrow<T>(get_integer(v, key),
                           "svc request: field '" + key + "'");
}

bool get_bool(const json::Value& v, const std::string& key) {
  if (!v.is_bool())
    throw precondition_error("svc request: field '" + key +
                             "' must be a boolean");
  return v.as_bool();
}

void check_schema(const json::Value& doc, const char* expected_name) {
  if (!doc.is_object())
    throw precondition_error("svc: document is not a JSON object");
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != expected_name)
    throw precondition_error(std::string("svc: expected schema '") +
                             expected_name + "'");
  const json::Value* version = doc.find("schema_version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kSchemaVersion)
    throw precondition_error("svc: unsupported schema_version (want " +
                             std::to_string(kSchemaVersion) + ")");
}

/// Every ops::Params field under its wire name, in wire order: the one
/// list both to_json and from_json walk.
template <class P, class F>
void for_each_param(P& p, F&& f) {
  f("tasks", p.tasks);
  f("topology", p.topology);
  f("strategy", p.strategy);
  f("seed", p.seed);
  f("baseline", p.baseline);
  f("baseline_blind", p.baseline_blind);
  f("top_k", p.top_k);
  f("refine_passes", p.refine_passes);
  f("load_weight", p.load_weight);
  f("budget", p.budget);
  f("compare", p.compare);
  f("no_symmetry", p.no_symmetry);
  f("fail_link", p.fail_link);
  f("fail_node", p.fail_node);
  f("degrade_link", p.degrade_link);
  f("restore_node", p.restore_node);
  f("restore_link", p.restore_link);
  f("random_link_faults", p.random_link_faults);
  f("random_node_faults", p.random_node_faults);
  f("random_degrades", p.random_degrades);
  f("fault_seed", p.fault_seed);
}

}  // namespace

json::Value Request::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("schema", kRequestSchemaName);
  doc.set("schema_version", kSchemaVersion);
  doc.set("id", id);
  doc.set("kind", to_string(kind));
  json::Value params = json::Value::object();
  for_each_param(*this, [&params](const char* key, const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                 std::uint64_t>) {
      if (field > kMaxExactInteger) {
        params.set(key, std::to_string(field));
        return;
      }
    }
    params.set(key, field);
  });
  doc.set("params", std::move(params));
  return doc;
}

Request Request::from_json(const json::Value& doc) {
  check_schema(doc, kRequestSchemaName);
  Request req;
  req.id = get_string(require_member(doc, "id"), "id");
  if (req.id.empty())
    throw precondition_error("svc request: 'id' must be non-empty");
  req.kind =
      parse_request_kind(get_string(require_member(doc, "kind"), "kind"));
  const json::Value* params = doc.find("params");
  if (params == nullptr) return req;  // all defaults
  if (!params->is_object())
    throw precondition_error("svc request: 'params' must be an object");
  for (const auto& [key, value] : params->members()) {
    bool known = false;
    for_each_param(req, [&](const char* name, auto& field) {
      if (key != name) return;
      known = true;
      using T = std::remove_reference_t<decltype(field)>;
      if constexpr (std::is_same_v<T, std::string>)
        field = get_string(value, key);
      else if constexpr (std::is_same_v<T, bool>)
        field = get_bool(value, key);
      else if constexpr (std::is_same_v<T, double>)
        field = get_number(value, key);
      else if constexpr (std::is_same_v<T, std::uint64_t>)
        field = get_unsigned(value, key);
      else
        field = get_ranged<T>(value, key);
    });
    if (!known)
      throw precondition_error("svc request: unknown parameter '" + key +
                               "'");
  }
  return req;
}

std::string machine_key(const std::string& topology_spec,
                        const topo::FaultSpec& faults) {
  std::ostringstream os;
  os << topology_spec;
  if (faults.empty()) return os.str();
  os << "|L:";
  for (const auto& [a, b] : faults.fail_links) os << a << '-' << b << ',';
  os << "|N:";
  for (int p : faults.fail_nodes) os << p << ',';
  os << "|D:";
  for (const topo::LinkDegradeSpec& d : faults.degrades)
    os << d.a << '-' << d.b << '@' << json::format_number(d.health) << ',';
  os << "|RN:";
  for (const topo::NodeRestoreSpec& r : faults.restore_nodes)
    os << r.p << '@' << r.epoch << ',';
  os << "|RL:";
  for (const topo::LinkRestoreSpec& r : faults.restore_links)
    os << r.a << '-' << r.b << '@' << r.epoch << ',';
  os << "|r:" << faults.random_link_faults << ':'
     << faults.random_node_faults << ':' << faults.random_degrades;
  // The seed only matters when random draws happen — keying on it
  // otherwise would split identical machines into separate pool entries.
  if (faults.random_link_faults > 0 || faults.random_node_faults > 0 ||
      faults.random_degrades > 0)
    os << "|s:" << faults.seed;
  return os.str();
}

int checked_tcp_port(std::int64_t port, const std::string& what) {
  if (port < 1 || port > 65535)
    throw precondition_error(what + ": port " + std::to_string(port) +
                             " is outside 1..65535");
  return static_cast<int>(port);
}

int exit_code_for(const std::string& category) {
  if (category == "precondition") return 2;
  if (category == "invariant") return 3;
  if (category == "io") return 4;
  return 1;  // "usage" and anything unclassified
}

void write_response(json::Writer& w, const std::string& id,
                    const ErrorInfo* error,
                    const std::function<void(json::Writer&)>& write_result) {
  w.begin_object();
  w.member("schema", kResponseSchemaName);
  w.member("schema_version", kSchemaVersion);
  w.member("id", id);
  w.member("status", error == nullptr ? "ok" : "error");
  if (error != nullptr) {
    w.key("error").begin_object();
    w.member("category", error->category);
    w.member("message", error->message);
    w.member("exit_code", exit_code_for(error->category));
    w.end_object();
  } else {
    w.key("result");
    write_result(w);
  }
  w.end_object();
}

std::string Response::dump(int indent) const {
  std::string out;
  json::Writer w(out, indent);
  write_response(w, id, ok ? nullptr : &error,
                 [this](json::Writer& rw) { rw.value(result); });
  return out;
}

json::Value Response::to_json() const { return json::Value::parse(dump()); }

Response Response::from_json(json::Value doc) {
  check_schema(doc, kResponseSchemaName);
  Response resp;
  resp.id = get_string(require_member(doc, "id"), "id");
  const std::string status =
      get_string(require_member(doc, "status"), "status");
  if (status == "ok") {
    resp.ok = true;
    if (!require_member(doc, "result").is_object())
      throw precondition_error("svc response: 'result' must be an object");
    resp.result = std::move(*doc.find("result"));
  } else if (status == "error") {
    resp.ok = false;
    const json::Value& e = require_member(doc, "error");
    if (!e.is_object())
      throw precondition_error("svc response: 'error' must be an object");
    resp.error.category = get_string(require_member(e, "category"),
                                     "error.category");
    resp.error.message =
        get_string(require_member(e, "message"), "error.message");
  } else {
    throw precondition_error("svc response: status must be 'ok' or 'error'");
  }
  return resp;
}

Response make_error_response(const std::string& id,
                             std::exception_ptr error) {
  Response resp;
  resp.id = id;
  resp.ok = false;
  try {
    std::rethrow_exception(error);
  } catch (const usage_error& e) {
    resp.error = {"usage", e.what()};
  } catch (const precondition_error& e) {
    resp.error = {"precondition", e.what()};
  } catch (const invariant_error& e) {
    resp.error = {"invariant", e.what()};
  } catch (const io_error& e) {
    resp.error = {"io", e.what()};
  } catch (const std::exception& e) {
    resp.error = {"usage", e.what()};
  }
  return resp;
}

}  // namespace topomap::svc
