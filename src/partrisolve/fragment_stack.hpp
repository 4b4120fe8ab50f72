// Placement of one rank's right-hand-side fragments in a single buffer.
//
// During a sweep a rank holds a packed fragment (its local rows x m
// right-hand sides) of a supernode from the fragment's first touch until
// the end of that supernode's visit.  DistributedTrisolver replays each
// rank's open/close sequence with this planner once per solver and records
// every fragment's row offset; forward()/backward() then carve all
// fragments out of one per-rank buffer of peak() x m values instead of
// allocating and hashing a vector per supernode on every batch.
//
// open() pushes at the top; close() marks a fragment dead and pops every
// dead fragment off the top.  A live fragment never moves and never
// overlaps another live one, whatever the open/close order.  On a
// postordered tree the sweeps are close to last-in first-out, so the peak
// is the multifrontal stack depth rather than the sum of all fragments.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sparts::partrisolve {

class FragmentStackPlanner {
 public:
  using Handle = std::size_t;

  /// Reserve `rows` rows on top of the stack.  The handle stays valid
  /// until the fragment is closed.
  Handle open(index_t rows) {
    SPARTS_CHECK(rows >= 0, "negative fragment size " << rows);
    live_.push_back({top_, false});
    top_ += rows;
    peak_ = std::max(peak_, top_);
    return live_.size() - 1;
  }

  /// First row of an open fragment.
  index_t offset(Handle h) const { return live_[h].offset; }

  void close(Handle h) {
    SPARTS_CHECK(h < live_.size() && !live_[h].dead,
                 "fragment closed twice or never opened");
    live_[h].dead = true;
    while (!live_.empty() && live_.back().dead) {
      top_ = live_.back().offset;
      live_.pop_back();
    }
  }

  /// Rows in use now / at most so far.
  index_t top() const { return top_; }
  index_t peak() const { return peak_; }

 private:
  struct Entry {
    index_t offset;
    bool dead;
  };
  std::vector<Entry> live_;  ///< open fragments (and dead ones below them)
  index_t top_ = 0;
  index_t peak_ = 0;
};

}  // namespace sparts::partrisolve
