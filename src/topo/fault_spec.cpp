#include "topo/fault_spec.hpp"

#include <algorithm>
#include <set>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/split.hpp"

namespace topomap::topo {

namespace {

/// Strict integer parse: the whole token must be one base-10 integer.
int parse_int(const std::string& token, const std::string& what) {
  std::size_t pos = 0;
  int value = 0;
  try {
    value = std::stoi(token, &pos);
  } catch (const std::exception&) {
    throw precondition_error(what + ": '" + token + "' is not an integer");
  }
  TOPOMAP_REQUIRE(pos == token.size(),
                  what + ": trailing characters in '" + token + "'");
  return value;
}

/// Strict double parse: the whole token must be one number.
double parse_double(const std::string& token, const std::string& what) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw precondition_error(what + ": '" + token + "' is not a number");
  }
  TOPOMAP_REQUIRE(pos == token.size(),
                  what + ": trailing characters in '" + token + "'");
  return value;
}

std::pair<int, int> norm_link(int a, int b) {
  return a < b ? std::pair<int, int>{a, b} : std::pair<int, int>{b, a};
}

/// Split one "target[@epoch]" restore entry; epoch 0 when absent.
std::pair<std::string, int> parse_timed(const std::string& entry,
                                        const std::string& what) {
  const auto at = split_fields(entry, '@');
  TOPOMAP_REQUIRE(at.size() <= 2,
                  what + ": more than one '@' in '" + entry + "'");
  int epoch = 0;
  if (at.size() == 2) {
    epoch = parse_int(at[1], what + " epoch");
    TOPOMAP_REQUIRE(epoch >= 0, what + ": negative epoch in '" + entry + "'");
  }
  return {at[0], epoch};
}

}  // namespace

bool FaultSpec::has_timed_restores() const {
  for (const NodeRestoreSpec& r : restore_nodes)
    if (r.epoch > 0) return true;
  for (const LinkRestoreSpec& r : restore_links)
    if (r.epoch > 0) return true;
  return false;
}

FaultSpec parse_fault_spec(const std::string& fail_links,
                           const std::string& fail_nodes,
                           const std::string& degrade_links,
                           std::int64_t random_link_faults,
                           std::int64_t random_node_faults,
                           std::int64_t random_degrades,
                           std::uint64_t fault_seed) {
  return parse_fault_spec(fail_links, fail_nodes, degrade_links,
                          random_link_faults, random_node_faults,
                          random_degrades, fault_seed, "", "");
}

FaultSpec parse_fault_spec(const std::string& fail_links,
                           const std::string& fail_nodes,
                           const std::string& degrade_links,
                           std::int64_t random_link_faults,
                           std::int64_t random_node_faults,
                           std::int64_t random_degrades,
                           std::uint64_t fault_seed,
                           const std::string& restore_nodes,
                           const std::string& restore_links) {
  TOPOMAP_REQUIRE(random_link_faults >= 0,
                  "--random-link-faults must be >= 0");
  TOPOMAP_REQUIRE(random_node_faults >= 0,
                  "--random-node-faults must be >= 0");
  TOPOMAP_REQUIRE(random_degrades >= 0, "--random-degrades must be >= 0");

  FaultSpec spec;
  spec.random_link_faults = static_cast<int>(random_link_faults);
  spec.random_node_faults = static_cast<int>(random_node_faults);
  spec.random_degrades = static_cast<int>(random_degrades);
  spec.seed = fault_seed;

  std::set<std::pair<int, int>> seen_links;
  if (!fail_links.empty()) {
    for (const std::string& pair : split_fields(fail_links, ',')) {
      const auto ends = split_fields(pair, ':');
      TOPOMAP_REQUIRE(ends.size() == 2,
                      "--fail-link entries must look like a:b, got '" + pair +
                          "'");
      const int a = parse_int(ends[0], "--fail-link");
      const int b = parse_int(ends[1], "--fail-link");
      TOPOMAP_REQUIRE(seen_links.insert(norm_link(a, b)).second,
                      "--fail-link lists link " + pair + " twice");
      spec.fail_links.emplace_back(a, b);
    }
  }

  if (!fail_nodes.empty()) {
    std::set<int> seen_nodes;
    for (const std::string& node : split_fields(fail_nodes, ',')) {
      const int p = parse_int(node, "--fail-node");
      TOPOMAP_REQUIRE(seen_nodes.insert(p).second,
                      "--fail-node lists processor " + node + " twice");
      spec.fail_nodes.push_back(p);
    }
  }

  if (!degrade_links.empty()) {
    std::set<std::pair<int, int>> seen_degrades;
    for (const std::string& entry : split_fields(degrade_links, ',')) {
      const auto fields = split_fields(entry, ':');
      TOPOMAP_REQUIRE(fields.size() == 3,
                      "--degrade-link entries must look like a:b:health, "
                      "got '" + entry + "'");
      LinkDegradeSpec d;
      d.a = parse_int(fields[0], "--degrade-link");
      d.b = parse_int(fields[1], "--degrade-link");
      d.health = parse_double(fields[2], "--degrade-link");
      TOPOMAP_REQUIRE(d.health >= 0.0 && d.health <= 1.0,
                      "--degrade-link health must be in [0, 1], got '" +
                          fields[2] + "'");
      const auto key = norm_link(d.a, d.b);
      TOPOMAP_REQUIRE(seen_degrades.insert(key).second,
                      "--degrade-link lists link " + fields[0] + ":" +
                          fields[1] + " twice");
      TOPOMAP_REQUIRE(seen_links.count(key) == 0,
                      "link " + fields[0] + ":" + fields[1] +
                          " appears in both --fail-link and --degrade-link");
      spec.degrades.push_back(d);
    }
  }

  if (!restore_nodes.empty()) {
    std::set<std::pair<int, int>> seen;  // (processor, epoch)
    for (const std::string& entry : split_fields(restore_nodes, ',')) {
      const auto [target, epoch] = parse_timed(entry, "--restore-node");
      NodeRestoreSpec r;
      r.p = parse_int(target, "--restore-node");
      r.epoch = epoch;
      TOPOMAP_REQUIRE(seen.insert({r.p, r.epoch}).second,
                      "--restore-node lists '" + entry + "' twice");
      TOPOMAP_REQUIRE(
          r.epoch > 0 ||
              std::find(spec.fail_nodes.begin(), spec.fail_nodes.end(),
                        r.p) == spec.fail_nodes.end(),
          "processor " + target + " appears in both --fail-node and an "
          "epoch-0 --restore-node; give the restore an @epoch");
      spec.restore_nodes.push_back(r);
    }
  }

  if (!restore_links.empty()) {
    std::set<std::pair<std::pair<int, int>, int>> seen;  // (link, epoch)
    for (const std::string& entry : split_fields(restore_links, ',')) {
      const auto [target, epoch] = parse_timed(entry, "--restore-link");
      const auto ends = split_fields(target, ':');
      TOPOMAP_REQUIRE(ends.size() == 2,
                      "--restore-link entries must look like a:b[@epoch], "
                      "got '" + entry + "'");
      LinkRestoreSpec r;
      r.a = parse_int(ends[0], "--restore-link");
      r.b = parse_int(ends[1], "--restore-link");
      r.epoch = epoch;
      const auto key = norm_link(r.a, r.b);
      TOPOMAP_REQUIRE(seen.insert({key, r.epoch}).second,
                      "--restore-link lists '" + entry + "' twice");
      TOPOMAP_REQUIRE(r.epoch > 0 || seen_links.count(key) == 0,
                      "link " + target + " appears in both --fail-link and "
                      "an epoch-0 --restore-link; give the restore an "
                      "@epoch");
      spec.restore_links.push_back(r);
    }
  }
  return spec;
}

std::shared_ptr<FaultOverlay> build_fault_overlay(const TopologyPtr& base,
                                                  const FaultSpec& spec) {
  TOPOMAP_REQUIRE(base != nullptr, "build_fault_overlay: null base topology");
  if (spec.empty()) return nullptr;
  TOPOMAP_REQUIRE(!spec.has_timed_restores(),
                  "timed restores (@epoch > 0) describe a recovery timeline; "
                  "this command applies one static fault set — use the chaos "
                  "subcommand or drop the @epoch");

  auto overlay = std::make_shared<FaultOverlay>(base);
  for (const auto& [a, b] : spec.fail_links) overlay->fail_link(a, b);
  for (int p : spec.fail_nodes) overlay->fail_node(p);
  for (const LinkDegradeSpec& d : spec.degrades) {
    // Health 0 is the hard-fault limit of the soft-fault model.
    if (d.health == 0.0)
      overlay->fail_link(d.a, d.b);
    else
      overlay->degrade_link(d.a, d.b, d.health);
  }

  Rng fault_rng(spec.seed);
  const int p = base->size();
  for (int k = 0; k < spec.random_node_faults; ++k) {
    // Draw until an alive processor comes up (kills are idempotent, so a
    // bounded retry keeps the fault count exact).
    for (int tries = 0; tries < 64 * p; ++tries) {
      const int cand =
          static_cast<int>(fault_rng.uniform(static_cast<std::uint64_t>(p)));
      if (!overlay->is_alive(cand)) continue;
      overlay->fail_node(cand);
      break;
    }
  }
  for (int k = 0; k < spec.random_link_faults; ++k) {
    for (int tries = 0; tries < 64 * p; ++tries) {
      const int a =
          static_cast<int>(fault_rng.uniform(static_cast<std::uint64_t>(p)));
      if (!overlay->is_alive(a)) continue;
      const auto nb = overlay->neighbors(a);
      if (nb.empty()) continue;
      const int b = nb[static_cast<std::size_t>(
          fault_rng.uniform(static_cast<std::uint64_t>(nb.size())))];
      overlay->fail_link(a, b);
      break;
    }
  }
  for (int k = 0; k < spec.random_degrades; ++k) {
    for (int tries = 0; tries < 64 * p; ++tries) {
      const int a =
          static_cast<int>(fault_rng.uniform(static_cast<std::uint64_t>(p)));
      if (!overlay->is_alive(a)) continue;
      const auto nb = overlay->neighbors(a);
      if (nb.empty()) continue;
      const int b = nb[static_cast<std::size_t>(
          fault_rng.uniform(static_cast<std::uint64_t>(nb.size())))];
      if (overlay->link_health(a, b) < 1.0) continue;  // keep count exact
      overlay->degrade_link(a, b, fault_rng.uniform_double(0.1, 0.9));
      break;
    }
  }

  // Epoch-0 recoveries close the static set: failures first, then repairs,
  // so "--fail-node=3,4 --restore-node=3" leaves exactly processor 4 dead.
  for (const NodeRestoreSpec& r : spec.restore_nodes)
    overlay->restore_node(r.p);
  for (const LinkRestoreSpec& r : spec.restore_links)
    overlay->restore_link(r.a, r.b);
  return overlay;
}

}  // namespace topomap::topo
