#include "pram/pram.hpp"

#include "ops/crcw.hpp"

namespace dyncg {

std::uint64_t crcw_step_rounds(Machine& host) {
  // One concurrent read and one concurrent write.  Their charge does not
  // depend on the access pattern, so nothing is executed.
  CostMeter meter(host.ledger());
  ops::charge_concurrent_access(host);
  ops::charge_concurrent_access(host);
  return meter.elapsed().rounds;
}

DirectSimulationCost direct_simulation_cost(Machine& host,
                                            std::uint64_t pram_steps) {
  std::uint64_t per = crcw_step_rounds(host);
  return DirectSimulationCost{pram_steps, per, pram_steps * per};
}

}  // namespace dyncg
