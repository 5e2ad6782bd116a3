// The topomapd request/response protocol: schema-versioned JSON documents
// ("topomap.svc.request" / "topomap.svc.response", version 1) carried one
// per frame (svc/frame.hpp).
//
// A request names a kind — map, explain, evacuate, optimal, status,
// metrics, flight — plus ops::Params, the parameter struct the topomap CLI
// fills from its flags: workload/topology/strategy specs, a seed, and the
// fault flag family (verbatim topo::parse_fault_spec inputs, so the client
// validates with the CLI's parser and the server revalidates).  Parsing is
// strict in both directions: wrong schema/version, missing ids, unknown
// kinds, unknown parameter keys, and mistyped values all throw
// topomap::precondition_error naming the field, so malformed requests fail
// loudly instead of mapping something the caller did not ask for.  The
// uint64_t seeds (`seed`, `fault_seed`) are written as JSON numbers up to
// 2^53 and as decimal-digit strings above it, where a double would round
// them; either form is read.
//
// Responses are either {"status":"ok","result":{...}} or
// {"status":"error","error":{"category","message"}}.  Error categories
// mirror the CLI exit-code taxonomy 1:1 — "usage" → 1, "precondition" → 2,
// "invariant" → 3, "io" → 4 — so `topomap client` exits with exactly the
// code the equivalent one-shot command would have.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>

#include "ops/ops.hpp"
#include "support/json.hpp"
#include "topo/fault_spec.hpp"

namespace topomap::svc {

namespace json = ::topomap::support::json;

inline constexpr const char* kRequestSchemaName = "topomap.svc.request";
inline constexpr const char* kResponseSchemaName = "topomap.svc.response";
inline constexpr int kSchemaVersion = 1;

enum class RequestKind {
  kMap,
  kExplain,
  kEvacuate,
  kOptimal,
  kStatus,
  kMetrics,  ///< telemetry snapshot (topomap.svc.metrics v1)
  kFlight,   ///< recent lifecycle events (topomap.svc.flight v1)
};

/// Number of request kinds (for per-kind counter arrays).
inline constexpr int kNumRequestKinds = 7;

const char* to_string(RequestKind kind);

/// Parses "map" | "explain" | "evacuate" | "optimal" | "status" |
/// "metrics" | "flight"; throws precondition_error on anything else.
RequestKind parse_request_kind(const std::string& s);

/// One protocol request: an id and a kind over the ops::Params fields.
/// The parameter defaults are `topomap map`'s, so {id, kind:"map"} is the
/// CLI's default map.  `evacuate` and `optimal` have other CLI defaults
/// (stencil2d:7x8; stencil2d:3x3 on torus:3x3) that a request must spell
/// out; with the bare defaults evacuate fails for want of a fault and
/// optimal exceeds the oracle's 12-task cap.
struct Request : ops::Params {
  std::string id;
  RequestKind kind = RequestKind::kStatus;

  json::Value to_json() const;

  /// Strict parse + validation of one request document.
  static Request from_json(const json::Value& doc);
};

/// Canonical machine identity for svc::CachePool keying: the topology spec
/// plus the *parsed* fault spec serialized deterministically (so the key
/// is independent of flag-string whitespace/duplication quirks — parsing
/// is strict enough that equal keys mean identical machines).  This is the
/// server-side analogue of core::CacheHandle's identity+fault-version key.
std::string machine_key(const std::string& topology_spec,
                        const topo::FaultSpec& faults);

struct ErrorInfo {
  std::string category;  // "usage" | "precondition" | "invariant" | "io"
  std::string message;
};

/// `port` as a TCP port number in [1, 65535]; throws precondition_error
/// naming `what` otherwise.  The one range check behind topomapd's
/// --tcp-port, Server::start and the client's --tcp endpoint, so no port
/// wraps through a narrowing cast.
int checked_tcp_port(std::int64_t port, const std::string& what);

/// The CLI exit code for an error category (unknown categories map to 1,
/// like any unclassified CLI failure).
int exit_code_for(const std::string& category);

struct Response {
  std::string id;
  bool ok = true;
  ErrorInfo error;                        // when !ok
  json::Value result = json::Value::object();  // when ok

  /// The response document's bytes (write_response), in Value::dump's
  /// forms: compact when indent < 0.
  std::string dump(int indent = -1) const;

  /// The response document as a tree: dump() parsed back, so the tree and
  /// the bytes come from the one envelope writer.
  json::Value to_json() const;

  /// Strict parse + validation of one response document.  Validates
  /// first, then moves `result` out of `doc`: a temporary document moves
  /// in whole, an lvalue is copied.
  static Response from_json(json::Value doc);
};

/// Write one response document: the envelope for `id`, then either the
/// error object (`error` non-null) or the "result" member, which
/// `write_result` writes.  The one renderer of response bytes, behind
/// Service::respond and Response::dump.
void write_response(json::Writer& w, const std::string& id,
                    const ErrorInfo* error,
                    const std::function<void(json::Writer&)>& write_result);

/// Build the error response for the exception currently being handled,
/// mapping exception types onto the taxonomy (usage_error → "usage",
/// precondition_error → "precondition", invariant_error → "invariant",
/// io_error → "io", anything else → "usage" with the raw message).
Response make_error_response(const std::string& id, std::exception_ptr error);

}  // namespace topomap::svc
