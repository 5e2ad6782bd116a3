// Seeded, structure-aware fuzzing of the two parsers that read untrusted
// bytes off a topomapd connection, support::json::Value::parse and
// svc::FrameDecoder, and of the svc schema readers on top of them.  Seeds
// are JSON documents the other suites already exercise (request and
// response envelopes, metrics and flight snapshots, the obs round-trip
// texts); the mutator edits them at the level JSON cares about (brackets,
// quotes, escapes, number texts, nesting depth, splices of one document
// into another) as well as byte by byte.
//
// The contract under test:
//   * every input either parses or throws topomap::precondition_error —
//     no other exception, no crash, no hang (the sanitizer builds run this
//     suite under ASan/UBSan);
//   * whatever parses survives its own dump: parse(dump(x)) == x, numbers
//     bit for bit, in compact and pretty form.  The one document that does
//     not dump is one holding a non-finite number (an out-of-range text
//     like 1e400 parses to infinity, as strtod reads it), and dumping it
//     throws precondition_error;
//   * json::Writer, fed a document event by event, writes Value::dump's
//     bytes, and both equal a reference printer's, compact and indented;
//   * svc::Request::from_json, svc::Response::from_json and the metrics
//     and flight validators either accept a parsed document or throw
//     precondition_error, and whatever they accept survives
//     from_json(to_json(x));
//   * the frame decoder returns exactly the framed payloads of an intact
//     stream however it is chunked, and on a damaged stream either returns
//     payloads within its cap or throws precondition_error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/json.hpp"
#include "svc/frame.hpp"
#include "svc/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace topomap {
namespace {

namespace json = support::json;
using json::Value;

/// Documents the suites already hold, rendered by the code that writes
/// them on the wire.
std::vector<std::string> seed_corpus() {
  std::vector<std::string> seeds = {
      R"({"a": 1, "b": -2.5, "c": "hi\nthere", "d": [true, false, null], )"
      R"("e": {"nested": [1, 2, 3]}})",
      R"({"zulu":1,"alpha":0.25})",
      R"(["é\ud800\u0001", "tab\tquote\"slash\\/", -0, 1e-5, 5e-324])",
      R"({"schema":"topomap.svc.request","schema_version":1,"id":"x",)"
      R"("kind":"map","params":{"tasks":"stencil2d:4x4","seed":3}})",
  };
  // The uint64_t seeds' digit-string form, valid and not.
  for (const char* seed : {"18446744073709551615", "-1", "1e3", "",
                           "18446744073709551616"})
    seeds.push_back(
        R"({"schema":"topomap.svc.request","schema_version":1,"id":"s",)"
        R"("kind":"map","params":{"seed":")" +
        std::string(seed) + R"(","fault_seed":")" + seed + R"("}})");
  svc::Request req;
  req.id = "r-42";
  req.kind = svc::RequestKind::kExplain;
  req.tasks = "stencil2d:4x4";
  req.topology = "torus:4x4";
  req.baseline = "random";
  req.degrade_link = "0:1:0.5";
  seeds.push_back(req.to_json().dump());

  svc::Service service;
  req.id = "explain";
  seeds.push_back(service.handle(req).to_json().dump());
  svc::Request map = req;
  map.id = "map";
  map.kind = svc::RequestKind::kMap;
  map.strategy = "topolb+refine";
  seeds.push_back(service.handle(map).to_json().dump(2));
  svc::Request bad = map;
  bad.id = "bad";
  bad.strategy = "frobnicate";
  seeds.push_back(service.handle(bad).to_json().dump());
  seeds.push_back(service.metrics_snapshot().dump());
  svc::Request status = map;
  status.id = "status";
  status.kind = svc::RequestKind::kStatus;
  seeds.push_back(service.respond(status));
  seeds.push_back(service.flight().to_json().dump());
  return seeds;
}

/// Fragments that steer mutations into the parser's interesting states.
const std::vector<std::string>& tokens() {
  static const std::vector<std::string> t = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\u12", "\\ud800",
      "\\n", "-", "+", ".", "e", "E", "0", "-0", "00", "1e400", "-1e400",
      "1e-400", "4.9e-324", "1.7976931348623157e308", "0.1",
      "123456789012345678901234567890", "9007199254740993", "true", "fals",
      "null", "nul", " ", "\n", std::string(1, '\0'), "\x01", "\xff",
      "\xc3\xa9", "{\"k\":", "[1,", "\"\\\"\""};
  return t;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : gen_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(gen_() % n);
  }

  std::string mutate(std::string text, const std::vector<std::string>& pool) {
    const int rounds = 1 + static_cast<int>(below(4));
    for (int r = 0; r < rounds; ++r) {
      const std::size_t at = below(text.size() + 1);
      switch (below(9)) {
        case 0:  // flip one byte
          if (!text.empty())
            text[below(text.size())] = static_cast<char>(gen_() & 0xFF);
          break;
        case 1:  // insert a JSON fragment
          text.insert(at, tokens()[below(tokens().size())]);
          break;
        case 2:  // delete a range
          text.erase(at, 1 + below(16));
          break;
        case 3: {  // duplicate a range in place
          const std::string piece = text.substr(at, 1 + below(64));
          text.insert(at, piece);
          break;
        }
        case 4: {  // splice a range of another document
          const std::string& other = pool[below(pool.size())];
          const std::size_t from = below(other.size());
          text.insert(at, other.substr(from, 1 + below(128)));
          break;
        }
        case 5:  // truncate
          text.resize(at);
          break;
        case 6:  // replace a number text with an edge number
          replace_number(text);
          break;
        case 7: {  // bury the document under deep nesting
          const std::size_t depth = 1 + below(80);
          text = std::string(depth, '[') + text + std::string(depth, ']');
          break;
        }
        default: {  // swap two ranges
          if (text.size() < 4) break;
          const std::size_t a = below(text.size() / 2);
          const std::size_t b = text.size() / 2 + below(text.size() / 2);
          const std::size_t n = 1 + below(std::min<std::size_t>(
                                        16, std::min(b - a, text.size() - b)));
          const std::string left = text.substr(a, n);
          const std::string right = text.substr(b, n);
          text.replace(b, n, left);
          text.replace(a, n, right);
        }
      }
    }
    return text;
  }

 private:
  void replace_number(std::string& text) {
    static const char* const kEdges[] = {
        "-0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
        "9007199254740991", "9007199254740992", "1e15", "1e16", "1e21",
        "0.1", "1e-5", "1e400", "-1e400", "1e-400", "0.30000000000000004"};
    std::size_t p = below(text.size());
    while (p < text.size() && !(text[p] >= '0' && text[p] <= '9')) ++p;
    if (p == text.size()) return;
    std::size_t end = p;
    while (end < text.size() &&
           std::strchr("0123456789.eE+-", text[end]) != nullptr)
      ++end;
    text.replace(p, end - p, kEdges[below(std::size(kEdges))]);
  }

  std::mt19937_64 gen_;
};

std::uint64_t bits_of(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Structural equality with numbers compared bit for bit (so -0 != 0).
bool same(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Value::Kind::kNull: return true;
    case Value::Kind::kBool: return a.as_bool() == b.as_bool();
    case Value::Kind::kNumber:
      return bits_of(a.as_number()) == bits_of(b.as_number());
    case Value::Kind::kString: return a.as_string() == b.as_string();
    case Value::Kind::kArray: {
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i)
        if (!same(a.items()[i], b.items()[i])) return false;
      return true;
    }
    case Value::Kind::kObject: {
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i)
        if (a.members()[i].first != b.members()[i].first ||
            !same(a.members()[i].second, b.members()[i].second))
          return false;
      return true;
    }
  }
  return false;
}

bool all_finite(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNumber: return std::isfinite(v.as_number());
    case Value::Kind::kArray:
      for (const Value& item : v.items())
        if (!all_finite(item)) return false;
      return true;
    case Value::Kind::kObject:
      for (const auto& [key, member] : v.members())
        if (!all_finite(member)) return false;
      return true;
    default: return true;
  }
}

/// Parse `text` under the contract; returns true when it parsed.
bool check_parse(const std::string& text) {
  Value v;
  try {
    v = Value::parse(text);
  } catch (const precondition_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parse threw a non-precondition error: " << e.what();
    return false;
  }
  if (!all_finite(v)) {
    EXPECT_THROW((void)v.dump(), precondition_error);
    return true;
  }
  for (const int indent : {-1, 2}) {
    const std::string once = v.dump(indent);
    const Value back = Value::parse(once);
    EXPECT_TRUE(same(v, back)) << "round trip changed: " << once;
    EXPECT_EQ(back.dump(indent), once);
  }
  return true;
}

/// Value::dump's bytes as the recursive printer that preceded json::Writer
/// wrote them, kept here as the reference the Writer must reproduce.
void reference_escaped(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void reference_dump(const Value& v, std::string& out, int indent, int depth) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.kind()) {
    case Value::Kind::kNull: out += "null"; break;
    case Value::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::kNumber: out += json::format_number(v.as_number()); break;
    case Value::Kind::kString: reference_escaped(out, v.as_string()); break;
    case Value::Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        reference_dump(v.items()[i], out, indent, depth + 1);
      }
      if (v.size() > 0) newline_pad(depth);
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        reference_escaped(out, v.members()[i].first);
        out += pretty ? ": " : ":";
        reference_dump(v.members()[i].second, out, indent, depth + 1);
      }
      if (v.size() > 0) newline_pad(depth);
      out += '}';
      break;
    }
  }
}

/// Feed `v` to a Writer one event per node, the way typed results are
/// written (no Writer::value(const Value&) anywhere below the root).
void write_events(json::Writer& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull: w.null(); break;
    case Value::Kind::kBool: w.value(v.as_bool()); break;
    case Value::Kind::kNumber: w.value(v.as_number()); break;
    case Value::Kind::kString: w.value(v.as_string()); break;
    case Value::Kind::kArray:
      w.begin_array();
      for (const Value& item : v.items()) write_events(w, item);
      w.end_array();
      break;
    case Value::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        write_events(w, member);
      }
      w.end_object();
      break;
  }
}

/// The Writer's event stream, Value::dump and the reference printer agree
/// on `v` in the compact form and at indents 0 and 2.
void check_writer(const Value& v) {
  for (const int indent : {-1, 0, 2}) {
    std::string reference;
    reference_dump(v, reference, indent, 0);
    std::string streamed;
    json::Writer w(streamed, indent);
    write_events(w, v);
    EXPECT_EQ(streamed, reference) << "indent " << indent;
    EXPECT_EQ(v.dump(indent), reference) << "indent " << indent;
  }
}

TEST(FuzzJson, WriterMatchesDumpOnEveryCorpusDocument) {
  const std::vector<std::string> pool = seed_corpus();
  for (const std::string& seed : pool) check_writer(Value::parse(seed));
  Mutator mutator(0x5eed0004);
  int checked = 0;
  for (int i = 0; i < 5000 && !HasFailure(); ++i) {
    Value v;
    try {
      v = Value::parse(mutator.mutate(pool[mutator.below(pool.size())], pool));
    } catch (const precondition_error&) {
      continue;
    }
    if (!all_finite(v)) continue;
    check_writer(v);
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

/// Run a schema reader on a parsed document under the contract: it
/// accepts, or throws precondition_error.  Returns whether it accepted.
template <class Read>
bool accepts(Read&& read, const char* what) {
  try {
    read();
    return true;
  } catch (const precondition_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw a non-precondition error: " << e.what();
    return false;
  }
}

TEST(FuzzSvc, SchemaReadersAcceptOrThrowPreconditionAndRoundTrip) {
  const std::vector<std::string> pool = seed_corpus();
  Mutator mutator(0x5eed0005);
  int requests = 0, responses = 0, snapshots = 0;
  for (int i = 0; i < 20000 && !HasFailure(); ++i) {
    Value doc;
    try {
      doc = Value::parse(mutator.mutate(pool[mutator.below(pool.size())], pool));
    } catch (const precondition_error&) {
      continue;
    }
    if (!all_finite(doc)) continue;
    svc::Request req;
    if (accepts([&] { req = svc::Request::from_json(doc); }, "Request")) {
      ++requests;
      const std::string once = req.to_json().dump();
      const svc::Request back = svc::Request::from_json(req.to_json());
      EXPECT_EQ(back.to_json().dump(), once);
      EXPECT_EQ(back.id, req.id);
      EXPECT_EQ(back.kind, req.kind);
    }
    svc::Response resp;
    if (accepts([&] { resp = svc::Response::from_json(doc); }, "Response")) {
      ++responses;
      const std::string once = resp.dump();
      const svc::Response back = svc::Response::from_json(resp.to_json());
      EXPECT_EQ(back.dump(), once);
      EXPECT_EQ(back.ok, resp.ok);
    }
    snapshots +=
        accepts([&] { svc::validate_metrics_snapshot(doc); }, "metrics") +
        accepts([&] { svc::validate_flight_snapshot(doc); }, "flight");
  }
  // Some mutants stay valid, so the accepting paths run too.
  EXPECT_GT(requests, 0);
  EXPECT_GT(responses, 0);
  EXPECT_GT(snapshots, 0);
}

TEST(FuzzJson, SeedsRoundTrip) {
  for (const std::string& seed : seed_corpus())
    EXPECT_TRUE(check_parse(seed)) << seed;
}

TEST(FuzzJson, MutatedDocumentsParseOrThrowPrecondition) {
  const std::vector<std::string> pool = seed_corpus();
  Mutator mutator(0x5eed0001);
  int parsed = 0;
  constexpr int kIterations = 20000;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    const std::string& seed = pool[mutator.below(pool.size())];
    parsed += check_parse(mutator.mutate(seed, pool)) ? 1 : 0;
  }
  // The mutator keeps a share of inputs valid, so the round trip is
  // exercised, not only the error paths.
  EXPECT_GT(parsed, kIterations / 50);
  EXPECT_LT(parsed, kIterations);
}

TEST(FuzzJson, DeepNestingIsRejectedNotOverflowed) {
  for (const std::size_t depth : {64u, 65u, 1000u, 100000u}) {
    const std::string text =
        std::string(depth, '[') + std::string(depth, ']');
    if (depth <= 65) {
      EXPECT_TRUE(check_parse(text)) << depth;
    } else {
      EXPECT_THROW((void)Value::parse(text), precondition_error) << depth;
    }
  }
}

/// Feed `stream` to a decoder in random-sized chunks; returns the payloads
/// it produced, and whether it threw precondition_error (after which the
/// stream is abandoned, as a connection would be).
std::vector<std::string> decode(const std::string& stream,
                                std::size_t max_payload, Mutator& m,
                                bool* rejected) {
  svc::FrameDecoder dec(max_payload);
  std::vector<std::string> out;
  *rejected = false;
  try {
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t n = std::min(stream.size() - at, 1 + m.below(300));
      dec.feed(std::string_view(stream).substr(at, n));
      at += n;
      while (auto payload = dec.next()) out.push_back(std::move(*payload));
    }
  } catch (const precondition_error&) {
    *rejected = true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "decoder threw a non-precondition error: " << e.what();
  }
  return out;
}

TEST(FuzzFrame, IntactStreamsDecodeExactlyAtAnyChunking) {
  const std::vector<std::string> pool = seed_corpus();
  Mutator m(0x5eed0002);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> sent;
    std::string stream;
    for (std::size_t k = m.below(6); k > 0; --k) {
      sent.push_back(pool[m.below(pool.size())]);
      stream += svc::encode_frame(sent.back());
    }
    bool rejected = false;
    EXPECT_EQ(decode(stream, svc::kDefaultMaxPayload, m, &rejected), sent);
    EXPECT_FALSE(rejected);
  }
}

TEST(FuzzFrame, DamagedStreamsDecodeWithinCapOrThrowPrecondition) {
  const std::vector<std::string> pool = seed_corpus();
  Mutator m(0x5eed0003);
  int rejected_streams = 0;
  for (int i = 0; i < 3000 && !HasFailure(); ++i) {
    std::string stream;
    for (std::size_t k = 1 + m.below(4); k > 0; --k)
      stream += svc::encode_frame(pool[m.below(pool.size())]);
    stream = m.mutate(std::move(stream), pool);
    const std::size_t cap = m.below(2) ? 4096 : svc::kDefaultMaxPayload;
    bool rejected = false;
    for (const std::string& payload : decode(stream, cap, m, &rejected)) {
      EXPECT_LE(payload.size(), cap);
      check_parse(payload);  // what the server does next with the bytes
    }
    rejected_streams += rejected ? 1 : 0;
  }
  EXPECT_GT(rejected_streams, 0);
}

}  // namespace
}  // namespace topomap
