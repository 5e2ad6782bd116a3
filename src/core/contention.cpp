#include "core/contention.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

#include "core/detail/route_loads.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "topo/link_index.hpp"

namespace topomap::core {

namespace {

/// Aggregate statistics over `loads`, one entry per directed link.
ContentionStats stats_from_loads(std::vector<double> loads) {
  ContentionStats stats;
  stats.links_total = static_cast<int>(loads.size());
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
      stats.links_total > 0 ? stats.total_bytes / stats.links_total : 0.0;
  stats.l2 = std::sqrt(sum_sq);
  // Gini over *all* directed links (unused links are zero-load samples):
  // G = sum_i (2i - n + 1) x_(i) / (n * total) with x ascending.
  if (stats.total_bytes > 0.0) {
    const auto n = static_cast<std::int64_t>(loads.size());
    double weighted = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
      weighted += static_cast<double>(2 * i - n + 1) *
                  loads[static_cast<std::size_t>(i)];
    stats.gini = weighted / (static_cast<double>(n) * stats.total_bytes);
  }
  return stats;
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
  const topo::LinkIndex links(topo);
  const std::vector<graph::UndirectedEdge>& edges = g.edges();
  // One edge's hops over a link arrive together (its two route walks run
  // back to back), so a pair sums into the link's last contributor.
  std::vector<std::vector<LinkContributor>> per_link(
      static_cast<std::size_t>(links.size()));
  detail::route_edges(g, links, m, [&](int edge, int link, double bytes) {
    const graph::UndirectedEdge& e = edges[static_cast<std::size_t>(edge)];
    auto& contributors = per_link[static_cast<std::size_t>(link)];
    if (!contributors.empty() && contributors.back().a == e.a &&
        contributors.back().b == e.b)
      contributors.back().bytes += bytes;
    else
      contributors.push_back({e.a, e.b, bytes});
  });

  ContentionReport report;
  std::vector<double> loads(per_link.size(), 0.0);
  for (int l = 0; l < links.size(); ++l) {
    auto& contributors = per_link[static_cast<std::size_t>(l)];
    if (contributors.empty()) continue;
    std::sort(contributors.begin(), contributors.end(),
              [](const LinkContributor& x, const LinkContributor& y) {
                if (x.bytes != y.bytes) return x.bytes > y.bytes;
                if (x.a != y.a) return x.a < y.a;
                return x.b < y.b;
              });
    LinkAttribution link;
    link.from = links.from(l);
    link.to = links.to(l);
    // The link total is *defined* as the sum of its contributors, in their
    // sorted order, so the sum-of-contributors invariant holds bit-exactly.
    for (const LinkContributor& c : contributors) link.bytes += c.bytes;
    link.contributors = std::move(contributors);
    loads[static_cast<std::size_t>(l)] = link.bytes;
    report.links.push_back(std::move(link));
  }
  std::sort(report.links.begin(), report.links.end(),
            [](const LinkAttribution& x, const LinkAttribution& y) {
              if (x.bytes != y.bytes) return x.bytes > y.bytes;
              if (x.from != y.from) return x.from < y.from;
              return x.to < y.to;
            });
  report.stats = stats_from_loads(std::move(loads));
  return report;
}

ContentionStats contention_stats(const graph::TaskGraph& g,
                                 const topo::Topology& topo,
                                 const Mapping& m) {
  const topo::LinkIndex links(topo);
  return stats_from_loads(detail::routed_link_loads(g, links, m));
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

void write_contention_stats(support::json::Writer& w,
                            const ContentionStats& stats) {
  w.begin_object();
  w.member("total_bytes", stats.total_bytes);
  w.member("max_bytes", stats.max_bytes);
  w.member("mean_bytes", stats.mean_bytes);
  w.member("l2", stats.l2);
  w.member("gini", stats.gini);
  w.member("links_used", stats.links_used);
  w.member("links_total", stats.links_total);
  w.end_object();
}

namespace {

void write_contributor(support::json::Writer& w, int a, int b,
                       double bytes) {
  w.begin_object();
  w.member("a", a);
  w.member("b", b);
  w.member("bytes", bytes);
  w.end_object();
}

/// The first `top_k` entries of `list` as a JSON array of contributors.
void write_contributors(support::json::Writer& w,
                        const std::vector<LinkContributor>& list, int top_k) {
  const auto shown =
      std::min<std::size_t>(static_cast<std::size_t>(top_k), list.size());
  for (std::size_t i = 0; i < shown; ++i)
    write_contributor(w, list[i].a, list[i].b, list[i].bytes);
}

}  // namespace

void write_contention_links(support::json::Writer& w,
                            const ContentionReport& report, int top_k) {
  TOPOMAP_REQUIRE(top_k >= 1, "top_k must be >= 1");
  w.begin_array();
  for (const LinkAttribution& link : report.links) {
    w.begin_object();
    w.member("from", link.from);
    w.member("to", link.to);
    w.member("bytes", link.bytes);
    w.member("pairs", static_cast<std::int64_t>(link.contributors.size()));
    w.key("contributors").begin_array();
    write_contributors(w, link.contributors, top_k);
    // The tail beyond top-K is folded into one "rest" bucket so the JSON
    // contributors still sum to the link total exactly.
    if (static_cast<std::size_t>(top_k) < link.contributors.size()) {
      double rest = 0.0;
      for (std::size_t i = static_cast<std::size_t>(top_k);
           i < link.contributors.size(); ++i)
        rest += link.contributors[i].bytes;
      write_contributor(w, -1, -1, rest);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void write_contention_diff(support::json::Writer& w,
                           const ContentionDiff& diff, int top_k) {
  TOPOMAP_REQUIRE(top_k >= 1, "top_k must be >= 1");
  w.begin_array();
  for (const LinkDelta& d : diff.links) {
    w.begin_object();
    w.member("from", d.from);
    w.member("to", d.to);
    w.member("bytes_a", d.bytes_a);
    w.member("bytes_b", d.bytes_b);
    w.member("delta", d.delta);
    w.key("moved_off").begin_array();
    write_contributors(w, d.moved_off, top_k);
    w.end_array();
    w.key("moved_on").begin_array();
    write_contributors(w, d.moved_on, top_k);
    w.end_array();
    w.end_object();
  }
  w.end_array();
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
