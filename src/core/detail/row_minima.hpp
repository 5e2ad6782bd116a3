// Internal: the K smallest (f, q) pairs of one TopoLB row sweep.
//
// A sweep offers every free processor's f in increasing q.  RowMinima keeps
// the K lexicographically smallest (f, q) pairs seen so far, ascending, in
// caller-owned slots (the row's own top_f/top_q slice), so the finished
// buffer needs no sort or copy.  Because q only grows, a candidate's rank
// among the buffered pairs is the number of entries whose f is <= its own:
// it is inserted there and the entries after it shift one slot.  Once the
// buffer is full, a candidate beats the largest buffered pair exactly when
// its f is below that pair's f, so the reject test every other entry takes
// is one double compare.
#pragma once

namespace topomap::core::detail {

class RowMinima {
 public:
  /// Fill `f[0, capacity)` / `q[0, capacity)`; capacity must be >= 1.
  RowMinima(double* f, int* q, int capacity) : f_(f), q_(q), cap_(capacity) {}

  /// Offer the pair (fv, qv); qv must exceed every q offered before.
  void offer(double fv, int qv) {
    if (size_ == cap_) {
      if (!(fv < thr_)) return;
      insert(cap_ - 1, fv, qv);  // the largest pair falls off the end
      thr_ = f_[cap_ - 1];
    } else {
      insert(size_++, fv, qv);
      if (size_ == cap_) thr_ = f_[cap_ - 1];
    }
  }

  /// Buffered pairs: f()[0, size()) ascending, ties in offer order.
  int size() const { return size_; }

 private:
  /// Place (fv, qv) at its rank among the first `end` entries, shifting
  /// the larger ones up by one; slot `end` is free to receive one.
  void insert(int end, double fv, int qv) {
    int i = end;
    for (; i > 0 && f_[i - 1] > fv; --i) {
      f_[i] = f_[i - 1];
      q_[i] = q_[i - 1];
    }
    f_[i] = fv;
    q_[i] = qv;
  }

  double* const f_;
  int* const q_;
  const int cap_;
  int size_ = 0;
  // f_[cap_ - 1] once the buffer is full, kept apart so the reject test
  // reads a register rather than the row's slots, which the sweep's
  // stores to the placed-cost row may alias.
  double thr_ = 0.0;
};

}  // namespace topomap::core::detail
