#include "tracer.hpp"

namespace perfbench {

TraceTotals& TraceTotals::operator+=(const TraceTotals& o) {
  for (std::size_t i = 0; i < layer.size(); ++i) {
    layer[i].calls += o.layer[i].calls;
    layer[i].self_ns += o.layer[i].self_ns;
    layer[i].items += o.layer[i].items;
  }
  root_ns += o.root_ns;
  return *this;
}

TraceTotals TraceTotals::operator-(const TraceTotals& o) const {
  TraceTotals d = *this;
  for (std::size_t i = 0; i < layer.size(); ++i) {
    d.layer[i].calls -= o.layer[i].calls;
    d.layer[i].self_ns -= o.layer[i].self_ns;
    d.layer[i].items -= o.layer[i].items;
  }
  d.root_ns -= o.root_ns;
  return d;
}

void Tracer::close() {
  const Clock::time_point end = Clock::now();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t ns = ns_between(f.start, end);
  LayerStats& s = totals_[f.layer];
  ++s.calls;
  s.self_ns += ns - f.child_ns;
  if (stack_.empty()) {
    totals_.root_ns += ns;
  } else {
    stack_.back().child_ns += ns;
  }
}

}  // namespace perfbench
