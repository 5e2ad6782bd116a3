// TopoCentLB (paper §4.5) — the simpler greedy comparator to TopoLB,
// equivalent to Baba et al.'s (P3, P4) heuristic pair:
//
//   * first iteration: select the most-communicating task;
//   * every later iteration: select the unplaced task with maximum total
//     communication to the already-placed set;
//   * place the selected task on the free processor where its hop-byte
//     cost to the placed set (first-order estimation) is minimal.
//
// Running time O(p * |E_t|) (paper's analysis), dominated by scanning free
// processors against the selected task's placed neighbours.
#pragma once

#include <utility>

#include "core/strategy.hpp"

namespace topomap::core {

class TopoCentLB final : public MappingStrategy {
 public:
  explicit TopoCentLB(CacheHandlePtr cache = nullptr)
      : cache_(std::move(cache)) {}

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override { return "TopoCentLB"; }

 private:
  CacheHandlePtr cache_;  // shared across a composition; may be null
};

}  // namespace topomap::core
