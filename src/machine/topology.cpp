#include "machine/topology.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/ackermann.hpp"
#include "support/assert.hpp"

namespace dyncg {

PatternCosts measure_pattern_costs(const Topology& topo) {
  std::size_t n = topo.size();
  int bits = floor_log2(n);
  PatternCosts costs;
  costs.exchange.assign(static_cast<std::size_t>(bits), 0);
  for (int k = 0; k < bits; ++k) {
    std::size_t worst = 0;
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t partner = r ^ (std::size_t{1} << k);
      std::size_t d =
          topo.shortest_path(topo.node_of_rank(r), topo.node_of_rank(partner));
      worst = std::max(worst, d);
    }
    costs.exchange[static_cast<std::size_t>(k)] =
        static_cast<unsigned>(worst);
  }
  std::size_t worst_shift = 0;
  for (std::size_t r = 0; r + 1 < n; ++r) {
    worst_shift = std::max(worst_shift,
                           topo.shortest_path(topo.node_of_rank(r),
                                              topo.node_of_rank(r + 1)));
  }
  costs.shift = static_cast<unsigned>(std::max<std::size_t>(1, worst_shift));
  return costs;
}

unsigned Topology::exchange_rounds(unsigned k) const {
  DYNCG_ASSERT(k < costs_.exchange.size(), "exchange offset out of range");
  return costs_.exchange[k];
}

namespace {

// The closed forms of the topology.hpp table.
PatternCosts mesh_pattern_costs(std::uint32_t side, MeshOrder order) {
  const unsigned m = static_cast<unsigned>(floor_log2(side));
  PatternCosts costs;
  costs.exchange.resize(2 * m);
  for (unsigned k = 0; k < 2 * m; ++k) {
    unsigned& c = costs.exchange[k];
    switch (order) {
      case MeshOrder::kProximity:
        c = k % 2 == 0 ? 3 * (1u << (k / 2)) - 2 : 1u << ((k + 1) / 2);
        break;
      case MeshOrder::kRowMajor:
        c = k < m ? 1u << k : 1u << (k - m);
        break;
      case MeshOrder::kShuffledRowMajor:
        c = 1u << (k / 2);
        break;
      case MeshOrder::kSnake:
        c = k < m ? 1u << k : k == m ? side : 1u << (k - m);
        break;
    }
  }
  bool row_jump =
      order == MeshOrder::kRowMajor || order == MeshOrder::kShuffledRowMajor;
  costs.shift = row_jump ? side : 1;
  return costs;
}

PatternCosts hypercube_pattern_costs(std::uint32_t dims, CubeOrder order) {
  PatternCosts costs;
  costs.exchange.resize(dims);
  for (std::uint32_t k = 0; k < dims; ++k) {
    costs.exchange[k] = order == CubeOrder::kGray && k > 0 ? 2 : 1;
  }
  costs.shift = order == CubeOrder::kGray ? 1 : std::max(1u, dims);
  return costs;
}

}  // namespace

// --- Mesh ------------------------------------------------------------------

MeshTopology::MeshTopology(std::uint32_t side, MeshOrder order)
    : side_(side), order_(order) {
  DYNCG_ASSERT(side >= 1 && (side & (side - 1)) == 0,
               "mesh side must be a power of two");
  set_pattern_costs(mesh_pattern_costs(side, order));
}

std::size_t MeshTopology::size() const {
  return static_cast<std::size_t>(side_) * side_;
}

std::string MeshTopology::name() const {
  return std::string("mesh-") + std::to_string(side_) + "x" +
         std::to_string(side_) + "/" + to_string(order_);
}

bool MeshTopology::adjacent(std::size_t a, std::size_t b) const {
  return shortest_path(a, b) == 1;
}

std::vector<std::size_t> MeshTopology::neighbors(std::size_t v) const {
  std::size_t row = v / side_, col = v % side_;
  std::vector<std::size_t> out;
  if (row > 0) out.push_back(v - side_);
  if (row + 1 < side_) out.push_back(v + side_);
  if (col > 0) out.push_back(v - 1);
  if (col + 1 < side_) out.push_back(v + 1);
  return out;
}

std::size_t MeshTopology::shortest_path(std::size_t a, std::size_t b) const {
  long ar = static_cast<long>(a / side_), ac = static_cast<long>(a % side_);
  long br = static_cast<long>(b / side_), bc = static_cast<long>(b % side_);
  return static_cast<std::size_t>(std::labs(ar - br) + std::labs(ac - bc));
}

std::size_t MeshTopology::diameter() const {
  return 2 * (static_cast<std::size_t>(side_) - 1);
}

std::size_t MeshTopology::node_of_rank(std::size_t r) const {
  RowCol rc = mesh_rank_to_rc(order_, side_, r);
  return static_cast<std::size_t>(rc.row) * side_ + rc.col;
}

std::size_t MeshTopology::rank_of_node(std::size_t v) const {
  RowCol rc{static_cast<std::uint32_t>(v / side_),
            static_cast<std::uint32_t>(v % side_)};
  return static_cast<std::size_t>(mesh_rc_to_rank(order_, side_, rc));
}

// --- Hypercube ---------------------------------------------------------------

HypercubeTopology::HypercubeTopology(std::uint32_t dims, CubeOrder order)
    : dims_(dims), order_(order) {
  DYNCG_ASSERT(dims <= kMaxHypercubeDims, "hypercube too large to simulate");
  set_pattern_costs(hypercube_pattern_costs(dims, order));
}

std::size_t HypercubeTopology::size() const {
  return std::size_t{1} << dims_;
}

std::string HypercubeTopology::name() const {
  return std::string("hypercube-2^") + std::to_string(dims_) + "/" +
         to_string(order_);
}

bool HypercubeTopology::adjacent(std::size_t a, std::size_t b) const {
  return std::popcount(a ^ b) == 1;
}

std::vector<std::size_t> HypercubeTopology::neighbors(std::size_t v) const {
  std::vector<std::size_t> out;
  out.reserve(dims_);
  for (std::uint32_t k = 0; k < dims_; ++k) out.push_back(v ^ (std::size_t{1} << k));
  return out;
}

std::size_t HypercubeTopology::shortest_path(std::size_t a,
                                             std::size_t b) const {
  return static_cast<std::size_t>(std::popcount(a ^ b));
}

std::size_t HypercubeTopology::diameter() const { return dims_; }

std::size_t HypercubeTopology::node_of_rank(std::size_t r) const {
  return order_ == CubeOrder::kGray ? gray_encode(r) : r;
}

std::size_t HypercubeTopology::rank_of_node(std::size_t v) const {
  return order_ == CubeOrder::kGray ? gray_decode(v) : v;
}

// --- Factories ----------------------------------------------------------------

std::shared_ptr<const Topology> make_mesh_for(std::size_t n, MeshOrder order) {
  std::uint64_t p4 = ceil_pow4(std::max<std::size_t>(n, 1));
  auto side = static_cast<std::uint32_t>(std::uint64_t{1}
                                         << (floor_log2(p4) / 2));
  return std::make_shared<MeshTopology>(side, order);
}

std::shared_ptr<const Topology> make_hypercube_for(std::size_t n,
                                                   CubeOrder order) {
  std::uint64_t p2 = ceil_pow2(std::max<std::size_t>(n, 1));
  return std::make_shared<HypercubeTopology>(
      static_cast<std::uint32_t>(floor_log2(p2)), order);
}

}  // namespace dyncg
