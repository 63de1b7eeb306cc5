#pragma once

#include <cstdint>

#include "machine/machine.hpp"

// CREW PRAM baseline (Section 6).
//
// The paper's comparator for the envelope problem is the O(log n)-time
// CREW PRAM algorithm of [Chandran and Mount 1989].  A mesh or hypercube
// can only run a PRAM program by emulating its shared memory: every PRAM
// step becomes one concurrent-read plus one concurrent-write round, each
// costing Theta(n^(1/2)) on the mesh and Theta(log^2 n) (bitonic) or
// expected Theta(log n) (randomized model) on the hypercube.  Section 6
// concludes that direct simulation is strictly worse than the native
// algorithms of Section 3; bench_sec6_vs_pram regenerates that comparison.
namespace dyncg {

// Step ledger of a CREW PRAM with `processors` processors.
class CrewPram {
 public:
  explicit CrewPram(std::size_t processors) : processors_(processors) {}

  std::size_t processors() const { return processors_; }
  std::uint64_t steps() const { return steps_; }
  void charge_steps(std::uint64_t s) { steps_ += s; }
  void reset() { steps_ = 0; }

 private:
  std::size_t processors_;
  std::uint64_t steps_ = 0;
};

// Rounds one emulated PRAM step costs on the host machine: one sort-based
// concurrent read + concurrent write on `host` (Section 2.6 emulation),
// charged to its ledger.  The emulation's schedule does not depend on the
// access pattern, so it is charged without being executed.
std::uint64_t crcw_step_rounds(Machine& host);

struct DirectSimulationCost {
  std::uint64_t pram_steps;
  std::uint64_t rounds_per_step;  // measured on the host
  std::uint64_t total_rounds;     // pram_steps * rounds_per_step
};

// Cost of directly simulating a PRAM program of `pram_steps` steps on the
// host machine.
DirectSimulationCost direct_simulation_cost(Machine& host,
                                            std::uint64_t pram_steps);

}  // namespace dyncg
