// Seeded, structure-aware fuzzing of the two parsers that read untrusted
// bytes off a topomapd connection: support::json::Value::parse and
// svc::FrameDecoder.  Seeds are JSON documents the other suites already
// exercise (request and response envelopes, a metrics snapshot, the obs
// round-trip texts); the mutator edits them at the level JSON cares about
// (brackets, quotes, escapes, number texts, nesting depth, splices of one
// document into another) as well as byte by byte.
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
