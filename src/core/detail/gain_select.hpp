// Internal: TopoLB's task-selection fold, and the test that lets it skip a
// whole block of tasks without folding them one by one.
//
// The paper picks the unplaced task with the largest gain F_avg - F_min.
// GainFold folds tasks in ascending id with the documented tie rule: a
// gain more than a relative 1e-9 above the best wins; one within that
// tolerance wins on strictly larger comm bytes (raising the best gain to
// the larger of the two); everything else changes nothing.  The tolerance
// makes "tied" non-transitive, so the fold's result depends on its order
// and only the exact sequential fold defines the pick.
//
// Skipping is exact because a task changes the fold's (best, best gain)
// state only when its gain exceeds best_gain + tol, or exceeds
// best_gain - tol while its comm bytes exceed the best's, where
// tol = 1e-9 * max(1, |gain|, |best_gain|).  Given upper bounds on a
// block's gains (hi), on their magnitudes (abs_hi) and on their comm bytes
// (comm_hi), the block changes nothing when
//   hi <= best_gain + 1e-9 * max(1, |best_gain|)              and
//   (hi <= best_gain - 1e-9 * max(1, |best_gain|, abs_hi)  or
//    comm_hi <= comm(best)):
// the first tolerance is no larger and the second no smaller than any
// task's own, and rounded products and sums are monotone, so each task's
// own comparison fails as well.  A task that changes nothing leaves the
// state as it found it, so the next task in the block meets the same
// state, and by induction so does the block's successor.
//
// A passive task (no placed neighbour) has the landscape U(t) * m(q) for
// one shared m, hence gain U * sum/nfree - U * min — linear in U up to
// rounding.  passive_gain_bound bounds a whole U range by the gains at its
// two ends plus an explicit rounding slack; both ends are needed because
// the shared sum drifts through repeated subtraction, so on a
// vertex-transitive machine the slope can come out slightly negative.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

namespace topomap::core::detail {

/// Task ids per selection block: one 64-bit mask word.
inline constexpr int kGainBlock = 64;

/// gain = F_avg - F_min of a row with F_sum `fsum` and minimum `fmin`.
inline double row_gain(double fsum, double fmin, double nfree) {
  return fsum / nfree - fmin;
}

/// The gain of a passive task with U(t) = u: F_sum = u * sum, F_min = u * min.
inline double passive_gain(double u, double sum, double nfree, double min) {
  return row_gain(u * sum, u * min, nfree);
}

/// Upper bounds on a block's gains and on their magnitudes.
struct GainBound {
  double hi;
  double abs_hi;
};

/// Bounds passive_gain(u, sum, nfree, min) and its magnitude over every u
/// in [u_lo, u_hi], 0 <= u_lo <= u_hi.  The exact gain is linear in u, so
/// it and its magnitude peak at an end of the range.  Each rounded gain
/// lies within 1.5 * eps * u * (|sum| / nfree + |min|) of the exact one
/// (four roundings), so the rounded gain of a task inside the range exceeds
/// the rounded gain at the peaking end by at most twice that; the slack
/// allows 16 eps, which also absorbs the rounding of the slack and of the
/// final sums, plus one smallest normal for errors in the subnormal range.
inline GainBound passive_gain_bound(double u_lo, double u_hi, double sum,
                                    double nfree, double min) {
  const double g_lo = passive_gain(u_lo, sum, nfree, min);
  const double g_hi = passive_gain(u_hi, sum, nfree, min);
  const double slack =
      16.0 * std::numeric_limits<double>::epsilon() * u_hi *
          (std::abs(sum) / nfree + std::abs(min)) +
      std::numeric_limits<double>::min();
  return {std::max(g_lo, g_hi) + slack,
          std::max(std::abs(g_lo), std::abs(g_hi)) + slack};
}

/// The sequential selection fold; offer tasks in ascending id.
class GainFold {
 public:
  /// Fold task t with its gain and total comm bytes.
  void offer(int t, double gain, double comm) {
    if (best_ < 0) {
      take(t, gain, comm);
      return;
    }
    const double tol =
        1e-9 * std::max(1.0, std::max(std::abs(gain), std::abs(best_gain_)));
    if (gain > best_gain_ + tol) {
      take(t, gain, comm);
    } else if (gain > best_gain_ - tol && comm > best_comm_) {
      take(t, std::max(best_gain_, gain), comm);
    }
  }

  /// True when no task with gain <= hi, |gain| <= abs_hi and comm bytes
  /// <= comm_hi can change the fold (see the header comment).
  bool skips(const GainBound& b, double comm_hi) const {
    if (best_ < 0) return false;
    const double a = std::abs(best_gain_);
    if (!(b.hi <= best_gain_ + 1e-9 * std::max(1.0, a))) return false;
    return comm_hi <= best_comm_ ||
           b.hi <= best_gain_ - 1e-9 * std::max(1.0, std::max(a, b.abs_hi));
  }

  /// The pick so far; -1 before the first offer.
  int best() const { return best_; }

 private:
  void take(int t, double gain, double comm) {
    best_ = t;
    best_gain_ = gain;
    best_comm_ = comm;
  }

  int best_ = -1;
  double best_gain_ = 0.0;
  double best_comm_ = 0.0;
};

}  // namespace topomap::core::detail
