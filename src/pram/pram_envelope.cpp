#include "pram/pram_envelope.hpp"

#include "pieces/envelope_serial.hpp"
#include "support/ackermann.hpp"
#include "support/assert.hpp"

namespace dyncg {
namespace {

// PRAM steps of one merge-tree level whose largest pair holds `pieces`
// pieces: a parallel merge of the endpoint records (each of the O(pieces)
// processors binary-searches the other list: ceil(log2 pieces) steps) plus
// O(1) steps of local subpiece work and compaction.
std::uint64_t level_steps(std::size_t pieces) {
  std::uint64_t lg = pieces > 1
                         ? static_cast<std::uint64_t>(floor_log2(pieces)) + 1
                         : 1;
  return lg + 3;
}

}  // namespace

PramEnvelopeResult pram_envelope(const PolyFamily& fam, bool take_min) {
  DYNCG_ASSERT(fam.size() >= 1, "empty family");
  CrewPram pram(fam.size());
  std::vector<PiecewiseFn> level = singleton_strings(fam);
  pram.charge_steps(1);
  while (level.size() > 1) {
    std::size_t max_pieces = 1;
    for (std::size_t b = 0; b + 1 < level.size(); b += 2) {
      max_pieces = std::max(max_pieces, level[b].piece_count() +
                                            level[b + 1].piece_count());
    }
    combine_level(fam, level, take_min);
    pram.charge_steps(level_steps(max_pieces));
  }
  return PramEnvelopeResult{std::move(level[0]), pram.steps()};
}

std::uint64_t chandran_mount_steps(std::size_t n) {
  if (n <= 1) return kChandranMountConstant;
  return kChandranMountConstant *
         (static_cast<std::uint64_t>(floor_log2(ceil_pow2(n))));
}

SerialEnvelopeResult serial_envelope_baseline(const PolyFamily& fam,
                                              bool take_min) {
  // The D&C recurrence T(n) = 2T(n/2) + O(lambda(n,s)) of [Atallah 1985];
  // we count elementary piece operations: one per singleton, then every
  // overlay cell visited at every level.
  std::uint64_t ops = fam.size();
  std::vector<PiecewiseFn> level = singleton_strings(fam);
  while (level.size() > 1) {
    const std::size_t pairs = level.size() / 2;
    for (std::size_t i = 0; i < 2 * pairs; ++i) ops += level[i].piece_count();
    combine_level(fam, level, take_min);
    for (std::size_t b = 0; b < pairs; ++b) ops += level[b].piece_count();
  }
  return SerialEnvelopeResult{std::move(level[0]), ops};
}

}  // namespace dyncg
