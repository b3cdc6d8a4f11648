#include "net/queue.hpp"

#include <algorithm>
#include <cmath>

namespace tfmcc {

bool RedQueue::accepts(std::size_t backlog) {
  // Update the average queue estimate on every arrival.
  avg_ = (1.0 - cfg_.weight) * avg_ +
         cfg_.weight * static_cast<double>(backlog);

  bool drop = false;
  if (backlog >= cfg_.limit_packets || avg_ >= 2.0 * cfg_.max_th) {
    drop = true;  // hard limit / gentle region ceiling
  } else if (avg_ >= cfg_.max_th) {
    // "Gentle" RED: drop probability rises linearly from max_p to 1.
    const double pb = cfg_.max_p + (avg_ - cfg_.max_th) / cfg_.max_th *
                                       (1.0 - cfg_.max_p);
    drop = rng_.bernoulli(pb);
  } else if (avg_ >= cfg_.min_th) {
    const double pb =
        cfg_.max_p * (avg_ - cfg_.min_th) / (cfg_.max_th - cfg_.min_th);
    // Spread drops out: scale by packets since last drop.
    const double pa =
        pb / std::max(1e-9, 1.0 - static_cast<double>(count_since_drop_) * pb);
    ++count_since_drop_;
    drop = rng_.bernoulli(std::clamp(pa, 0.0, 1.0));
  } else {
    count_since_drop_ = -1;
  }

  if (drop) count_since_drop_ = 0;
  return !drop;
}

}  // namespace tfmcc
