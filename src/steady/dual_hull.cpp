#include "steady/dual_hull.hpp"

#include <algorithm>

namespace dyncg {

void charge_line_envelope(Machine& m, std::size_t n) {
  m.charge_local(1);
  std::size_t width = std::max<std::size_t>(1, m.size() / ceil_pow2(n));
  for (std::size_t strings = n; strings > 1; strings = (strings + 1) / 2) {
    width *= 2;
    envelope_detail::charge_combine_level(m, std::min(width, m.size()),
                                          /*s_bound=*/1);
  }
}

void charge_hull_dual(Machine& m, std::size_t n) {
  if (n <= 2) return;
  ops::charge_bitonic_sort(m);
  charge_line_envelope(m, n);  // upper
  charge_line_envelope(m, n);  // lower
  // Pack the two chains into one string.
  for (int k = 0; k < floor_log2(m.size()); ++k) {
    m.charge_exchange(static_cast<unsigned>(k));
  }
  m.charge_local(2);
}

// Anchor instantiations for the two fields the library ships.
template std::vector<Point2<double>> machine_hull_dual<double>(
    Machine&, std::vector<Point2<double>>);
template std::vector<Point2<RationalGerm>> machine_hull_dual<RationalGerm>(
    Machine&, std::vector<Point2<RationalGerm>>);

}  // namespace dyncg
