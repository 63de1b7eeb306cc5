// Slow check of the closed-form pattern costs (machine/topology.hpp) at
// the sizes the server actually builds: the O(n log n) measured scan at
// 2^18 and 2^20 PEs for the proximity mesh and the Gray hypercube.  The
// default suite checks every order up to 2^16 PEs (test_machine); this one
// runs only on request:
//
//   ctest -C slow -L slow
#include <gtest/gtest.h>

#include "machine/topology.hpp"

namespace dyncg {
namespace {

TEST(PatternCostsSlow, ProximityMeshAt2To18And2To20) {
  for (std::uint32_t side : {512u, 1024u}) {
    MeshTopology mesh(side, MeshOrder::kProximity);
    EXPECT_EQ(mesh.pattern_costs(), measure_pattern_costs(mesh))
        << mesh.name();
  }
}

TEST(PatternCostsSlow, GrayHypercubeAt2To18And2To20) {
  for (std::uint32_t dims : {18u, 20u}) {
    HypercubeTopology cube(dims, CubeOrder::kGray);
    EXPECT_EQ(cube.pattern_costs(), measure_pattern_costs(cube))
        << cube.name();
  }
}

}  // namespace
}  // namespace dyncg
