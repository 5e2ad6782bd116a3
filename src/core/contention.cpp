#include "core/contention.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "support/error.hpp"
#include "support/stats.hpp"

namespace topomap::core {

namespace {

/// Per-link accumulator: pair key (a * n + b) -> bytes.
using PairLoads = std::unordered_map<std::uint64_t, double>;

/// Walk every task-graph edge's routes (both directions, bytes/2 each — the
/// core::link_loads convention) and hand (link key, pair key, bytes) to
/// `sink`.  Sequential and in edge-list order: deterministic by
/// construction.
template <typename Sink>
void for_each_link_crossing(const graph::TaskGraph& g,
                            const topo::Topology& topo, const Mapping& m,
                            Sink&& sink) {
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size does not match task graph");
  TOPOMAP_REQUIRE(is_complete(m, topo), "mapping is incomplete");
  const auto p = static_cast<std::uint64_t>(topo.size());
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  for (const graph::UndirectedEdge& e : g.edges()) {
    const int pa = m[static_cast<std::size_t>(e.a)];
    const int pb = m[static_cast<std::size_t>(e.b)];
    if (pa == pb) continue;
    const std::uint64_t pair_key =
        static_cast<std::uint64_t>(e.a) * n + static_cast<std::uint64_t>(e.b);
    const double half = e.bytes / 2.0;
    for (const auto& [src, dst] : {std::pair{pa, pb}, std::pair{pb, pa}}) {
      const std::vector<int> path = topo.route(src, dst);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto link_key = static_cast<std::uint64_t>(path[i]) * p +
                              static_cast<std::uint64_t>(path[i + 1]);
        sink(link_key, pair_key, half);
      }
    }
  }
}

ContentionStats stats_from_loads(std::vector<double> loads, int links_total) {
  ContentionStats stats;
  stats.links_total = links_total;
  std::sort(loads.begin(), loads.end());
  double sum_sq = 0.0;
  // Ascending-sorted accumulation: deterministic, and exact for the
  // integral-valued byte weights the benches and tests use.
  for (const double x : loads) {
    stats.total_bytes += x;
    sum_sq += x * x;
    if (x > 0.0) ++stats.links_used;
  }
  stats.max_bytes = loads.empty() ? 0.0 : loads.back();
  stats.mean_bytes =
      links_total > 0 ? stats.total_bytes / links_total : 0.0;
  stats.l2 = std::sqrt(sum_sq);
  // Gini over *all* directed links (unused links are zero-load samples):
  // G = sum_i (2i - n + 1) x_(i) / (n * total) with x ascending.
  if (stats.total_bytes > 0.0 && links_total > 0) {
    const auto used = static_cast<std::int64_t>(loads.size());
    const auto n = static_cast<std::int64_t>(links_total);
    const std::int64_t pad = n - used;  // implicit leading zeros
    double weighted = 0.0;
    for (std::int64_t i = 0; i < used; ++i)
      weighted +=
          static_cast<double>(2 * (pad + i) - n + 1) * loads[static_cast<std::size_t>(i)];
    stats.gini = weighted / (static_cast<double>(n) * stats.total_bytes);
  }
  return stats;
}

struct PairKeyed {
  std::uint64_t key;
  double bytes;
};

std::vector<LinkContributor> sorted_contributors(const PairLoads& pairs,
                                                 std::uint64_t n) {
  std::vector<PairKeyed> flat;
  flat.reserve(pairs.size());
  for (const auto& [key, bytes] : pairs) flat.push_back({key, bytes});
  std::sort(flat.begin(), flat.end(), [](const PairKeyed& x, const PairKeyed& y) {
    if (x.bytes != y.bytes) return x.bytes > y.bytes;
    return x.key < y.key;
  });
  std::vector<LinkContributor> out;
  out.reserve(flat.size());
  for (const PairKeyed& f : flat)
    out.push_back({static_cast<int>(f.key / n), static_cast<int>(f.key % n),
                   f.bytes});
  return out;
}

std::string pair_list(const std::vector<LinkContributor>& contributors,
                      int limit, bool with_bytes) {
  std::ostringstream os;
  const int shown =
      std::min<int>(limit, static_cast<int>(contributors.size()));
  for (int i = 0; i < shown; ++i) {
    if (i > 0) os << ", ";
    os << "(" << contributors[static_cast<std::size_t>(i)].a << ","
       << contributors[static_cast<std::size_t>(i)].b << ")";
    if (with_bytes)
      os << " " << support::json::format_number(
                           contributors[static_cast<std::size_t>(i)].bytes)
         << " B";
  }
  if (static_cast<int>(contributors.size()) > shown)
    os << ", +" << contributors.size() - static_cast<std::size_t>(shown)
       << " more";
  return os.str();
}

}  // namespace

ContentionReport attribute_link_loads(const graph::TaskGraph& g,
                                      const topo::Topology& topo,
                                      const Mapping& m) {
  const auto p = static_cast<std::uint64_t>(topo.size());
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  std::unordered_map<std::uint64_t, PairLoads> per_link;
  for_each_link_crossing(
      g, topo, m,
      [&](std::uint64_t link_key, std::uint64_t pair_key, double bytes) {
        per_link[link_key][pair_key] += bytes;
      });

  ContentionReport report;
  report.links.reserve(per_link.size());
  std::vector<double> loads;
  loads.reserve(per_link.size());
  for (const auto& [link_key, pairs] : per_link) {
    LinkAttribution link;
    link.from = static_cast<int>(link_key / p);
    link.to = static_cast<int>(link_key % p);
    link.contributors = sorted_contributors(pairs, n);
    // The link total is *defined* as the sum of its contributors, in their
    // sorted order, so the sum-of-contributors invariant holds bit-exactly.
    for (const LinkContributor& c : link.contributors) link.bytes += c.bytes;
    loads.push_back(link.bytes);
    report.links.push_back(std::move(link));
  }
  std::sort(report.links.begin(), report.links.end(),
            [](const LinkAttribution& x, const LinkAttribution& y) {
              if (x.bytes != y.bytes) return x.bytes > y.bytes;
              if (x.from != y.from) return x.from < y.from;
              return x.to < y.to;
            });
  report.stats = stats_from_loads(std::move(loads), topo.directed_link_count());
  return report;
}

ContentionStats contention_stats(const graph::TaskGraph& g,
                                 const topo::Topology& topo,
                                 const Mapping& m) {
  std::unordered_map<std::uint64_t, double> load;
  for_each_link_crossing(g, topo, m,
                         [&](std::uint64_t link_key, std::uint64_t,
                             double bytes) { load[link_key] += bytes; });
  std::vector<double> loads;
  loads.reserve(load.size());
  for (const auto& [key, bytes] : load) loads.push_back(bytes);
  return stats_from_loads(std::move(loads), topo.directed_link_count());
}

ContentionDiff diff_contention(const ContentionReport& a,
                               const ContentionReport& b) {
  ContentionDiff diff;
  diff.stats_a = a.stats;
  diff.stats_b = b.stats;
  TOPOMAP_REQUIRE(a.stats.links_total == b.stats.links_total,
                  "contention diff: reports describe different machines");

  // Align by (from, to); links absent on one side count as zero-load.
  std::map<std::pair<int, int>, std::pair<const LinkAttribution*,
                                          const LinkAttribution*>>
      by_link;
  for (const LinkAttribution& link : a.links)
    by_link[{link.from, link.to}].first = &link;
  for (const LinkAttribution& link : b.links)
    by_link[{link.from, link.to}].second = &link;

  static const std::vector<LinkContributor> kNone;
  for (const auto& [key, ab] : by_link) {
    const auto& ca = ab.first != nullptr ? ab.first->contributors : kNone;
    const auto& cb = ab.second != nullptr ? ab.second->contributors : kNone;
    LinkDelta d;
    d.from = key.first;
    d.to = key.second;
    d.bytes_a = ab.first != nullptr ? ab.first->bytes : 0.0;
    d.bytes_b = ab.second != nullptr ? ab.second->bytes : 0.0;
    d.delta = d.bytes_b - d.bytes_a;
    auto pair_in = [](const std::vector<LinkContributor>& list, int pa,
                      int pb) {
      for (const LinkContributor& c : list)
        if (c.a == pa && c.b == pb) return true;
      return false;
    };
    for (const LinkContributor& c : ca)
      if (!pair_in(cb, c.a, c.b)) d.moved_off.push_back(c);
    for (const LinkContributor& c : cb)
      if (!pair_in(ca, c.a, c.b)) d.moved_on.push_back(c);
    if (d.delta != 0.0 || !d.moved_off.empty() || !d.moved_on.empty())
      diff.links.push_back(std::move(d));
  }
  std::sort(diff.links.begin(), diff.links.end(),
            [](const LinkDelta& x, const LinkDelta& y) {
              const double ax = std::abs(x.delta), ay = std::abs(y.delta);
              if (ax != ay) return ax > ay;
              if (x.from != y.from) return x.from < y.from;
              return x.to < y.to;
            });
  return diff;
}

support::json::Value contention_stats_to_json(const ContentionStats& stats) {
  support::json::Value v = support::json::Value::object();
  v.set("total_bytes", stats.total_bytes);
  v.set("max_bytes", stats.max_bytes);
  v.set("mean_bytes", stats.mean_bytes);
  v.set("l2", stats.l2);
  v.set("gini", stats.gini);
  v.set("links_used", stats.links_used);
  v.set("links_total", stats.links_total);
  return v;
}

namespace {

support::json::Value contributor_json(const LinkContributor& c) {
  support::json::Value v = support::json::Value::object();
  v.set("a", c.a);
  v.set("b", c.b);
  v.set("bytes", c.bytes);
  return v;
}

}  // namespace

support::json::Value contention_links_to_json(const ContentionReport& report,
                                              int top_k) {
  TOPOMAP_REQUIRE(top_k >= 1, "top_k must be >= 1");
  support::json::Value links = support::json::Value::array();
  for (const LinkAttribution& link : report.links) {
    support::json::Value v = support::json::Value::object();
    v.set("from", link.from);
    v.set("to", link.to);
    v.set("bytes", link.bytes);
    v.set("pairs", static_cast<std::int64_t>(link.contributors.size()));
    support::json::Value contributors = support::json::Value::array();
    const auto shown = std::min<std::size_t>(
        static_cast<std::size_t>(top_k), link.contributors.size());
    for (std::size_t i = 0; i < shown; ++i)
      contributors.push_back(contributor_json(link.contributors[i]));
    // The tail beyond top-K is folded into one "rest" bucket so the JSON
    // contributors still sum to the link total exactly.
    if (shown < link.contributors.size()) {
      double rest = 0.0;
      for (std::size_t i = shown; i < link.contributors.size(); ++i)
        rest += link.contributors[i].bytes;
      support::json::Value other = support::json::Value::object();
      other.set("a", -1);
      other.set("b", -1);
      other.set("bytes", rest);
      contributors.push_back(std::move(other));
    }
    v.set("contributors", std::move(contributors));
    links.push_back(std::move(v));
  }
  return links;
}

support::json::Value contention_diff_to_json(const ContentionDiff& diff,
                                             int top_k) {
  TOPOMAP_REQUIRE(top_k >= 1, "top_k must be >= 1");
  support::json::Value links = support::json::Value::array();
  for (const LinkDelta& d : diff.links) {
    support::json::Value v = support::json::Value::object();
    v.set("from", d.from);
    v.set("to", d.to);
    v.set("bytes_a", d.bytes_a);
    v.set("bytes_b", d.bytes_b);
    v.set("delta", d.delta);
    auto moved = [&](const std::vector<LinkContributor>& list) {
      support::json::Value arr = support::json::Value::array();
      const auto shown =
          std::min<std::size_t>(static_cast<std::size_t>(top_k), list.size());
      for (std::size_t i = 0; i < shown; ++i)
        arr.push_back(contributor_json(list[i]));
      return arr;
    };
    v.set("moved_off", moved(d.moved_off));
    v.set("moved_on", moved(d.moved_on));
    links.push_back(std::move(v));
  }
  return links;
}

std::string render_contention_summary(const ContentionReport& report,
                                      int top_links, int top_k) {
  std::ostringstream os;
  const ContentionStats& s = report.stats;
  os << "link loads:     max " << support::json::format_number(s.max_bytes)
     << " B, mean " << support::json::format_number(s.mean_bytes) << " B, L2 "
     << support::json::format_number(s.l2) << ", gini "
     << format_fixed(s.gini, 3) << " over " << s.links_total
     << " directed links (" << s.links_used << " used)\n";
  if (report.links.empty() || s.max_bytes <= 0.0) return os.str();

  // Heatmap strip: one ramp character per loaded link, hottest = '@',
  // ordered by (from, to) so the strip is stable across runs.  Unloaded
  // links are omitted (their count is in the stats line above).
  static const char kRamp[] = " .:-=+*#%@";
  constexpr int kRampMax = 9;   // last index of kRamp
  constexpr int kPerRow = 64;
  constexpr int kMaxRows = 16;  // cap the strip on very large machines
  std::vector<const LinkAttribution*> by_id;
  by_id.reserve(report.links.size());
  for (const LinkAttribution& link : report.links) by_id.push_back(&link);
  std::sort(by_id.begin(), by_id.end(),
            [](const LinkAttribution* x, const LinkAttribution* y) {
              if (x->from != y->from) return x->from < y->from;
              return x->to < y->to;
            });
  os << "heatmap (loaded links by id, ' '=0 '@'=max):\n";
  const int rows = std::min<int>(
      kMaxRows,
      static_cast<int>((by_id.size() + kPerRow - 1) / kPerRow));
  for (int r = 0; r < rows; ++r) {
    os << "  [";
    for (int i = r * kPerRow;
         i < (r + 1) * kPerRow && i < static_cast<int>(by_id.size()); ++i) {
      const double frac = by_id[static_cast<std::size_t>(i)]->bytes / s.max_bytes;
      const int level = std::min(
          kRampMax, static_cast<int>(std::ceil(frac * kRampMax)));
      os << kRamp[level];
    }
    os << "]\n";
  }
  if (static_cast<int>(by_id.size()) > rows * kPerRow)
    os << "  ... " << by_id.size() - static_cast<std::size_t>(rows * kPerRow)
       << " more links\n";

  os << "hottest links:\n";
  const int shown =
      std::min<int>(top_links, static_cast<int>(report.links.size()));
  for (int i = 0; i < shown; ++i) {
    const LinkAttribution& link = report.links[static_cast<std::size_t>(i)];
    os << "  (" << link.from << "," << link.to << ")  "
       << support::json::format_number(link.bytes) << " B  pairs: "
       << pair_list(link.contributors, top_k, true) << "\n";
  }
  return os.str();
}

std::string render_contention_diff(const ContentionDiff& diff, int top_links,
                                   int top_k) {
  std::ostringstream os;
  os << "mapping diff:   max link "
     << support::json::format_number(diff.stats_a.max_bytes) << " -> "
     << support::json::format_number(diff.stats_b.max_bytes) << " B, L2 "
     << support::json::format_number(diff.stats_a.l2) << " -> "
     << support::json::format_number(diff.stats_b.l2) << ", "
     << diff.links.size() << " links changed\n";
  const int shown =
      std::min<int>(top_links, static_cast<int>(diff.links.size()));
  for (int i = 0; i < shown; ++i) {
    const LinkDelta& d = diff.links[static_cast<std::size_t>(i)];
    os << "  link (" << d.from << "," << d.to << "): "
       << support::json::format_number(d.bytes_a) << " -> "
       << support::json::format_number(d.bytes_b) << " B";
    if (!d.moved_off.empty())
      os << "; moved off: " << pair_list(d.moved_off, top_k, false);
    if (!d.moved_on.empty())
      os << "; moved on: " << pair_list(d.moved_on, top_k, false);
    os << "\n";
  }
  if (static_cast<int>(diff.links.size()) > shown)
    os << "  ... " << diff.links.size() - static_cast<std::size_t>(shown)
       << " more links changed\n";
  return os.str();
}

}  // namespace topomap::core
