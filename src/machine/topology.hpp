#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/indexing.hpp"

// Interconnection topologies (Sections 2.2 and 2.3).
//
// A topology fixes the PE lattice/graph, a linear ("string") order of the
// PEs, and — crucially for the cost model — the number of synchronous rounds
// each communication pattern costs.  The ops layer expresses every algorithm
// in "hypercube normal form": full-machine exchanges between linear-order
// partners whose ranks differ in bit k (`exchange_rounds(k)`), unit shifts
// between consecutive ranks (`shift_rounds()`), and row/column sweeps.  Each
// topology charges its true price for those patterns: the maximum
// shortest-path distance over all partner pairs of the pattern.
//
// For the mesh and the hypercube that price has a closed form, independent
// of the machine size (m = log2 side):
//
//   hypercube, natural order  : exchange(k) = 1 (dimension-k link);
//                               shift = max(1, dims)
//   hypercube, Gray order     : exchange(k) = 1 for k = 0, else 2 (Hamming
//                               distance of Gray neighbours); shift = 1
//   mesh, proximity (Hilbert) : exchange(k) = 3*2^(k/2) - 2 for even k,
//                               2^((k+1)/2) for odd k; shift = 1
//   mesh, row-major           : exchange(k) = 2^k for k < m, 2^(k-m) above;
//                               shift = side (a row boundary)
//   mesh, shuffled row-major  : exchange(k) = 2^floor(k/2); shift = side
//   mesh, snake               : exchange(k) = 2^k for k < m, side for k = m,
//                               2^(k-m) above; shift = 1
//
// so a mesh or hypercube is built in O(log n) time and memory: no rank
// tables, node_of_rank/rank_of_node are computed from the indexing scheme
// on the fly.  measure_pattern_costs() is the definition the formulas
// satisfy — an O(n log n) scan of shortest_path over every partner pair —
// and the test suite checks the two against each other at every mesh side
// and cube dimension up to 2^16 PEs (2^20 in the slow-labelled test).  The
// topologies without a closed form (machine/other_topologies.hpp) are
// priced by that scan once per process.
namespace dyncg {

class Topology;

// Rounds per communication pattern.
struct PatternCosts {
  std::vector<unsigned> exchange;  // per rank bit: r <-> r ^ 2^k
  unsigned shift = 1;              // unit shift r -> r + 1

  bool operator==(const PatternCosts&) const = default;
};

// The maximum shortest-path distance over all partner pairs of each
// pattern (a unit shift costs at least 1).  O(n log n) shortest_path calls.
PatternCosts measure_pattern_costs(const Topology& topo);

class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::size_t size() const = 0;
  virtual std::string name() const = 0;

  // Physical graph, on node ids in [0, size).
  virtual bool adjacent(std::size_t a, std::size_t b) const = 0;
  virtual std::vector<std::size_t> neighbors(std::size_t v) const = 0;
  virtual std::size_t shortest_path(std::size_t a, std::size_t b) const = 0;
  virtual std::size_t diameter() const = 0;

  // Linear order of the PEs ("strings" of Sections 2.2/2.3).
  virtual std::size_t node_of_rank(std::size_t r) const = 0;
  virtual std::size_t rank_of_node(std::size_t v) const = 0;

  // Rounds for a full-machine exchange between ranks r and r ^ 2^k.
  unsigned exchange_rounds(unsigned k) const;
  // Rounds for a unit shift between consecutive ranks.
  unsigned shift_rounds() const { return costs_.shift; }
  const PatternCosts& pattern_costs() const { return costs_; }

 protected:
  // Called by subclasses once the geometry is fixed.
  void set_pattern_costs(PatternCosts costs) { costs_ = std::move(costs); }

 private:
  PatternCosts costs_;
};

// Two-dimensional mesh of size side*side (side a power of two), Figure 1.
class MeshTopology final : public Topology {
 public:
  MeshTopology(std::uint32_t side, MeshOrder order = MeshOrder::kProximity);

  std::size_t size() const override;
  std::string name() const override;
  bool adjacent(std::size_t a, std::size_t b) const override;
  std::vector<std::size_t> neighbors(std::size_t v) const override;
  std::size_t shortest_path(std::size_t a, std::size_t b) const override;
  std::size_t diameter() const override;
  std::size_t node_of_rank(std::size_t r) const override;
  std::size_t rank_of_node(std::size_t v) const override;

  std::uint32_t side() const { return side_; }
  MeshOrder order() const { return order_; }

 private:
  std::uint32_t side_;
  MeshOrder order_;
};

// Hypercube with 2^dims PEs, Figure 3.  Register files of 2^24 words are
// the simulation's ceiling.
inline constexpr std::uint32_t kMaxHypercubeDims = 24;

class HypercubeTopology final : public Topology {
 public:
  explicit HypercubeTopology(std::uint32_t dims,
                             CubeOrder order = CubeOrder::kGray);

  std::size_t size() const override;
  std::string name() const override;
  bool adjacent(std::size_t a, std::size_t b) const override;
  std::vector<std::size_t> neighbors(std::size_t v) const override;
  std::size_t shortest_path(std::size_t a, std::size_t b) const override;
  std::size_t diameter() const override;
  std::size_t node_of_rank(std::size_t r) const override;
  std::size_t rank_of_node(std::size_t v) const override;

  std::uint32_t dims() const { return dims_; }
  CubeOrder order() const { return order_; }

 private:
  std::uint32_t dims_;
  CubeOrder order_;
};

// Factories for the sizes the paper uses: a mesh of size 4^ceil(log4 n) and
// a hypercube of size 2^ceil(log2 n) (Section 3).
std::shared_ptr<const Topology> make_mesh_for(std::size_t n,
                                              MeshOrder order = MeshOrder::kProximity);
std::shared_ptr<const Topology> make_hypercube_for(std::size_t n,
                                                   CubeOrder order = CubeOrder::kGray);

}  // namespace dyncg
