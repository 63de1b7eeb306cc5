#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "machine/machine.hpp"
#include "ops/basic.hpp"
#include "support/trace.hpp"
#include "support/ackermann.hpp"
#include "support/assert.hpp"

// Sorting and merging (Section 2.6, Table 1).
//
// The workhorse is Batcher's bitonic network [Batcher 1968] expressed in
// XOR normal form: every compare-exchange stage pairs ranks r <-> r ^ 2^k.
// On the hypercube each stage is one link traversal, giving the classic
// Theta(log^2 n) sort; on the mesh under shuffled-row-major or proximity
// indexing a stage at offset 2^k costs Theta(2^(k/2)) rounds, and the double
// geometric sum collapses to Theta(n^(1/2)) — the optimal mesh sort of
// [Nassimi and Sahni 1979] that Table 1 assumes (matching the
// [Thompson and Kung 1977] bound).
//
// Ablation alternatives: odd-even transposition (Theta(n), any linear
// order), shearsort (Theta(n^(1/2) log n), mesh rows/columns), and a
// randomized sort whose cost is *charged* per the expected-Theta(log n)
// bound of [Reif and Valiant 1987] — see DESIGN.md for why flashsort is
// model-charged rather than reimplemented.
namespace dyncg {
namespace ops {

// --- the bitonic schedule ----------------------------------------------------

// Walks Batcher's bitonic network over aligned blocks of `width` elements
// (a power of two), calling stage(stride, size_mask) once per
// compare-exchange stage in network order.  A stage pairs elements
// {r, r ^ stride}; element r's subsequence sorts ascending iff
// (r & size_mask) == 0.  The schedule depends on the width alone, so every
// executed sort and every charge-only one walk the same stages.
template <class Stage>
void walk_bitonic_schedule(std::size_t width, Stage&& stage) {
  for (std::size_t size = 2; size <= width; size <<= 1) {
    // Directions are block-local: the final (size == width) pass must sort
    // every block ascending, so the mask is reduced modulo the block.
    std::size_t mask = size & (width - 1);
    for (std::size_t stride = size >> 1; stride >= 1; stride >>= 1) {
      stage(stride, mask);
    }
  }
}

// The price of one stage over a file holding `slots` elements per PE (a
// power of two): element strides below `slots` are PE-local
// compare-exchanges; a stride of slots * 2^k is a PE exchange at offset 2^k.
inline void charge_bitonic_stage(Machine& m, std::size_t stride,
                                 std::size_t slots) {
  if (stride >= slots) {
    m.charge_exchange(static_cast<unsigned>(floor_log2(stride / slots)));
  }
  m.charge_local(1);
}

// Charge-only bitonic sort: bills exactly what bitonic_sort (slots == 1) or
// bitonic_sort_slotted bills for sorting a whole file with `slots` elements
// per PE, and touches no data.  Fault penalties are paid as the executed
// sort pays them.
inline void charge_bitonic_sort(Machine& m, std::size_t slots = 1) {
  walk_bitonic_schedule(m.size() * slots,
                        [&m, slots](std::size_t stride, std::size_t) {
                          charge_bitonic_stage(m, stride, slots);
                        });
}

// One executed compare-exchange stage over the whole file; charges nothing.
template <class T, class Less>
void compare_exchange_stage(std::vector<T>& elems, std::size_t stride,
                            std::size_t size_mask, Less& less) {
  // Compare-exchange pairs {r, r ^ stride} partition the ranks, and only the
  // lower rank of each pair acts, so the iterations touch disjoint slots.
  parallel_for(elems.size(), [&](std::size_t r) {
    std::size_t partner = r ^ stride;
    if (partner <= r) return;
    bool ascending = (r & size_mask) == 0;
    bool out_of_order = ascending ? less(elems[partner], elems[r])
                                  : less(elems[r], elems[partner]);
    if (out_of_order) std::swap(elems[r], elems[partner]);
  }, kRegisterLoopGrain);
}

// The network alone: sorts `elems` exactly as bitonic_sort would and
// charges nothing.  For callers that bill a longer schedule in one piece
// (machine_hull_dual).
template <class T, class Less = std::less<T>>
void bitonic_network(std::vector<T>& elems, Less less = Less{}) {
  walk_bitonic_schedule(elems.size(), [&](std::size_t stride,
                                          std::size_t mask) {
    compare_exchange_stage(elems, stride, mask, less);
  });
}

// Bitonic sort of each aligned width-block, ascending in rank order.
template <class T, class Less = std::less<T>>
void bitonic_sort(Machine& m, std::vector<T>& regs, Less less = Less{},
                  std::size_t width = 0) {
  TRACE_SPAN_COST("ops.bitonic_sort", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  DYNCG_ASSERT(regs.size() == n, "register file size mismatch");
  walk_bitonic_schedule(width, [&](std::size_t stride, std::size_t mask) {
    charge_bitonic_stage(m, stride, /*slots=*/1);
    compare_exchange_stage(regs, stride, mask, less);
  });
}

// Merge: each width-block consists of two ascending halves; on return the
// block is ascending.  The second half is first reversed in place (a pure
// XOR pattern, one exchange per bit), turning the block into a bitonic
// sequence, and a single bitonic merge pass finishes.
template <class T, class Less = std::less<T>>
void bitonic_merge(Machine& m, std::vector<T>& regs, Less less = Less{},
                   std::size_t width = 0) {
  TRACE_SPAN_COST("ops.bitonic_merge", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  std::size_t half = width / 2;
  DYNCG_ASSERT(half >= 1, "merge needs width >= 2");
  // Reverse the upper half of each block: rank bits below log(half) flip.
  int rev_levels = floor_log2(half);
  for (int k = 0; k < rev_levels; ++k) {
    m.charge_exchange(static_cast<unsigned>(k));
  }
  m.charge_local(1);
  for (std::size_t block = 0; block < n; block += width) {
    std::reverse(regs.begin() + static_cast<long>(block + half),
                 regs.begin() + static_cast<long>(block + width));
  }
  // One bitonic merge pass over the (now bitonic) block, ascending
  // everywhere (mask 0).
  for (std::size_t stride = half; stride >= 1; stride >>= 1) {
    charge_bitonic_stage(m, stride, /*slots=*/1);
    compare_exchange_stage(regs, stride, /*size_mask=*/0, less);
  }
}

// Odd-even transposition sort along the linear PE order: width rounds of
// neighbor compare-exchange.  Theta(n) — the ablation baseline showing what
// ignoring the 2-D structure costs.
template <class T, class Less = std::less<T>>
void odd_even_transposition_sort(Machine& m, std::vector<T>& regs,
                                 Less less = Less{}, std::size_t width = 0) {
  TRACE_SPAN_COST("ops.odd_even_sort", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  for (std::size_t phase = 0; phase < width; ++phase) {
    m.charge_shift(1);
    m.charge_local(1);
    for (std::size_t r = phase % 2; r + 1 < n; r += 2) {
      if ((r % width) + 1 >= width) continue;  // block boundary
      if (less(regs[r + 1], regs[r])) std::swap(regs[r], regs[r + 1]);
    }
  }
}

// Shearsort on the mesh: ceil(log side) + 1 alternating phases of snake row
// sorts and column sorts, each phase `side` rounds of physical-neighbor
// compare-exchange.  Theta(n^(1/2) log n).  Sorts into snake order by
// lattice position; the result is returned in *rank* order of the
// topology's snake indexing, so callers compare against a snake-ordered
// expectation.  Requires a MeshTopology machine.
template <class T, class Less = std::less<T>>
void shearsort(Machine& m, std::vector<T>& regs, Less less = Less{}) {
  TRACE_SPAN_COST("ops.shearsort", m.ledger());
  const auto* mesh = dynamic_cast<const MeshTopology*>(&m.topology());
  DYNCG_ASSERT(mesh != nullptr, "shearsort requires a mesh");
  std::size_t side = mesh->side();
  std::size_t n = m.size();
  // Work in lattice space.
  std::vector<T> grid(n);
  for (std::size_t r = 0; r < n; ++r) grid[m.topology().node_of_rank(r)] = regs[r];

  auto sort_rows_snake = [&]() {
    m.ledger().add_rounds(side);
    m.ledger().add_messages(n * side);
    m.charge_local(1);
    for (std::size_t row = 0; row < side; ++row) {
      auto first = grid.begin() + static_cast<long>(row * side);
      if (row % 2 == 0) {
        std::sort(first, first + static_cast<long>(side), less);
      } else {
        std::sort(first, first + static_cast<long>(side),
                  [&less](const T& a, const T& b) { return less(b, a); });
      }
    }
  };
  auto sort_columns = [&]() {
    m.ledger().add_rounds(side);
    m.ledger().add_messages(n * side);
    m.charge_local(1);
    std::vector<T> col(side);
    for (std::size_t c = 0; c < side; ++c) {
      for (std::size_t r = 0; r < side; ++r) col[r] = grid[r * side + c];
      std::sort(col.begin(), col.end(), less);
      for (std::size_t r = 0; r < side; ++r) grid[r * side + c] = col[r];
    }
  };

  int phases = floor_log2(side) + 1;
  for (int p = 0; p < phases; ++p) {
    sort_rows_snake();
    sort_columns();
  }
  sort_rows_snake();

  // Read the snake order back out.
  for (std::size_t r = 0; r < n; ++r) {
    RowCol rc = mesh_rank_to_rc(MeshOrder::kSnake, mesh->side(),
                                static_cast<std::uint64_t>(r));
    regs[r] = grid[static_cast<std::size_t>(rc.row) * side + rc.col];
  }
}

// Bitonic sort of a file holding `slots` elements per PE (slots a power of
// two).  Element-level strides below `slots` are PE-local compare-exchanges;
// a stride of slots * 2^k is a PE exchange at offset 2^k, so the Theta cost
// matches the one-element-per-PE sort for constant slots.  Used wherever a
// PE owns O(1) records (collision roots, all-pairs files);
// charge_bitonic_sort prices the concurrent-access files of crcw.hpp.
template <class T, class Less = std::less<T>>
void bitonic_sort_slotted(Machine& m, std::vector<T>& elems,
                          std::size_t slots, Less less = Less{}) {
  TRACE_SPAN_COST("ops.bitonic_sort_slotted", m.ledger());
  std::size_t total = elems.size();
  DYNCG_ASSERT(slots >= 1 && (slots & (slots - 1)) == 0,
               "slots must be a power of two");
  DYNCG_ASSERT(total == m.size() * slots, "slotted file size mismatch");
  walk_bitonic_schedule(total, [&](std::size_t stride, std::size_t mask) {
    charge_bitonic_stage(m, stride, slots);
    compare_exchange_stage(elems, stride, mask, less);
  });
}

// Randomized sort with the cost model of [Reif and Valiant 1987]: the data
// is sorted logically and the ledger is charged kFlashsortConstant * log n
// rounds — the cited expected bound.  This substitutes for flashsort, which
// is impractical to reimplement faithfully; see DESIGN.md.  Used only for
// the "expected time" rows of Tables 2-4 on the hypercube.
inline constexpr unsigned kFlashsortConstant = 8;

template <class T, class Less = std::less<T>>
void randomized_sort_model(Machine& m, std::vector<T>& regs,
                           Less less = Less{}, std::size_t width = 0) {
  TRACE_SPAN_COST("ops.randomized_sort_model", m.ledger());
  std::size_t n = m.size();
  if (width == 0) width = n;
  check_block(n, width);
  DYNCG_ASSERT(dynamic_cast<const HypercubeTopology*>(&m.topology()) != nullptr,
               "the Reif-Valiant model charge applies to hypercubes");
  m.ledger().add_rounds(kFlashsortConstant *
                        static_cast<std::uint64_t>(floor_log2(width)));
  m.ledger().add_messages(n);
  m.charge_local(1);
  for (std::size_t block = 0; block < n; block += width) {
    std::stable_sort(regs.begin() + static_cast<long>(block),
                     regs.begin() + static_cast<long>(block + width), less);
  }
}

// Sort dispatch used by the higher-level algorithms: worst-case bitonic by
// default, the randomized model when the caller opts in (hypercube only).
enum class SortAlgo { kBitonic, kRandomizedModel };

template <class T, class Less = std::less<T>>
void sort(Machine& m, std::vector<T>& regs, Less less = Less{},
          std::size_t width = 0, SortAlgo algo = SortAlgo::kBitonic) {
  if (algo == SortAlgo::kRandomizedModel) {
    randomized_sort_model(m, regs, less, width);
  } else {
    bitonic_sort(m, regs, less, width);
  }
}

}  // namespace ops
}  // namespace dyncg
