#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "ops/sorting.hpp"

// Sort-based concurrent read / concurrent write and grouping (Section 2.6).
//
// A mesh or hypercube has no shared memory, so the PRAM's concurrent reads
// and writes are emulated by sorting: all data records and request records
// are sorted together by key, values propagate within key groups by a
// segmented scan, and answers are sorted back to their requesters.  This is
// exactly the emulation whose cost the paper quotes when comparing against
// direct PRAM simulation — Theta(n^(1/2)) per access round on the mesh,
// Theta(log^2 n) (bitonic) on the hypercube.
//
// The combined record file holds two records per PE (one data slot, one
// query slot).  A bitonic stage at element offset 2^k maps to a PE exchange
// at offset 2^(k-1) (offset 1 is PE-local), so the doubled sort costs the
// same Theta as the plain one.
//
// The emulation's only outputs are a keyed lookup and its charge, and the
// charge does not depend on the data.  So the ledger is billed the
// network's exact schedule (charge_concurrent_access: two doubled bitonic
// sorts and one doubled scan, fault penalties included), while the answer
// is computed on the host: the live data records are ordered by key with
// std::stable_sort and each request is a binary search.  The executed
// network survives as a test oracle (tests/crcw_network_oracle.hpp), and
// the tests hold the two to the same answers and the same ledger.
namespace dyncg {
namespace ops {

// The charge of one concurrent access (read or write) on `m`: the doubled
// sort by key, the doubled segmented scan, one local answer step and the
// doubled sort home.  Exactly what the executed network bills.
inline void charge_concurrent_access(Machine& m) {
  const std::size_t n2 = 2 * m.size();
  charge_bitonic_sort(m, /*slots=*/2);
  for (int k = 0; k < floor_log2(n2); ++k) {
    charge_bitonic_stage(m, std::size_t{1} << k, /*slots=*/2);
  }
  m.charge_local(1);
  charge_bitonic_sort(m, /*slots=*/2);
}

namespace detail {

// Ranks of the live records, ordered by key; equal keys stay in rank order.
// std::stable_sort, not std::sort: some callers' key orders (DirKey over
// germs) are not guaranteed strict weak orders, and std::sort's unguarded
// partition may then run out of bounds, where a merge sort cannot.
template <class Key, class Value>
std::vector<std::size_t> ranks_by_key(
    const std::vector<std::optional<std::pair<Key, Value>>>& records) {
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (records[r].has_value()) order.push_back(r);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&records](std::size_t a, std::size_t b) {
                     return records[a]->first < records[b]->first;
                   });
  return order;
}

}  // namespace detail

// Concurrent read.  PE r may own one (key, value) record (`data[r]`) and may
// ask for one key (`queries[r]`).  Returns, aligned with the query PEs, the
// value of the matching data record, or nullopt if no such key exists.
// Keys need operator<.  With exact_match = false, the read returns the
// value of the *predecessor* record (largest data key <= query key) — this
// is the "grouping" operation the paper uses for multiple simultaneous
// searches on ordered data (e.g. locating sectors in Lemma 5.5).  Where
// several data records share the answering key, the read returns the one
// on the highest-ranked PE.
template <class Key, class Value>
std::vector<std::optional<Value>> concurrent_read(
    Machine& m, const std::vector<std::optional<std::pair<Key, Value>>>& data,
    const std::vector<std::optional<Key>>& queries, bool exact_match = true) {
  TRACE_SPAN_COST("ops.concurrent_read", m.ledger());
  std::size_t n = m.size();
  DYNCG_ASSERT(data.size() == n && queries.size() == n,
               "register file size mismatch");
  charge_concurrent_access(m);

  std::vector<std::size_t> order = detail::ranks_by_key(data);
  std::vector<std::optional<Value>> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (!queries[r].has_value()) continue;
    const Key& q = *queries[r];
    // Past the last data record whose key is not above q.
    auto end = std::partition_point(
        order.begin(), order.end(),
        [&data, &q](std::size_t d) { return !(q < data[d]->first); });
    if (end == order.begin()) continue;
    const auto& [key, value] = *data[*(end - 1)];
    if (exact_match && key < q) continue;
    out[r] = value;
  }
  return out;
}

// Concurrent write with a combining semigroup: PE r may submit one
// (key, value) request; the returned file gives, for each key owner
// (`owners[r]`), the op-combination of all values written to that key
// (nullopt if none).  Models the combining CW the PRAM simulation needs.
// `op` must be associative and commutative: the network combines a key's
// values in an order of its own.
template <class Key, class Value, class Op>
std::vector<std::optional<Value>> concurrent_write(
    Machine& m,
    const std::vector<std::optional<std::pair<Key, Value>>>& requests,
    const std::vector<std::optional<Key>>& owners, Op op) {
  TRACE_SPAN_COST("ops.concurrent_write", m.ledger());
  std::size_t n = m.size();
  DYNCG_ASSERT(requests.size() == n && owners.size() == n,
               "register file size mismatch");
  charge_concurrent_access(m);

  std::vector<std::size_t> order = detail::ranks_by_key(requests);
  auto key_at = [&](std::size_t i) -> const Key& {
    return requests[order[i]]->first;
  };
  // Fold every key group once; group_total[i] is set at each group's start.
  std::vector<std::optional<Value>> group_total(order.size());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i + 1;
    Value acc = requests[order[i]]->second;
    for (; j < order.size() && !(key_at(i) < key_at(j)); ++j) {
      acc = op(acc, requests[order[j]]->second);
    }
    group_total[i] = std::move(acc);
    i = j;
  }

  std::vector<std::optional<Value>> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (!owners[r].has_value()) continue;
    const Key& q = *owners[r];
    auto lo = std::partition_point(
        order.begin(), order.end(),
        [&requests, &q](std::size_t d) { return requests[d]->first < q; });
    if (lo == order.end() || q < requests[*lo]->first) continue;
    out[r] = group_total[static_cast<std::size_t>(lo - order.begin())];
  }
  return out;
}

// Route each live item to the given destination rank (a permutation on the
// live items).  Implemented by the paper's standard "routing via sorting".
template <class T>
void route(Machine& m, std::vector<std::optional<T>>& regs,
           const std::vector<std::size_t>& dest) {
  TRACE_SPAN_COST("ops.route", m.ledger());
  std::size_t n = m.size();
  struct Slot {
    bool live = false;
    std::size_t dest = ~std::size_t{0};
    std::optional<T> value{};
  };
  std::vector<Slot> file(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (regs[r].has_value()) file[r] = Slot{true, dest[r], std::move(regs[r])};
  }
  bitonic_sort(m, file, [](const Slot& a, const Slot& b) {
    if (a.live != b.live) return a.live;
    return a.dest < b.dest;
  });
  for (std::size_t r = 0; r < n; ++r) regs[r].reset();
  for (std::size_t r = 0; r < n; ++r) {
    if (file[r].live) {
      DYNCG_ASSERT(file[r].dest < n, "route destination out of range");
      regs[file[r].dest] = std::move(file[r].value);
    }
  }
  // Sorting by destination places item with dest d at the rank equal to its
  // order position; for a permutation of live items onto distinct ranks the
  // final fix-up is a monotone concentration, charged as one ladder.
  int levels = floor_log2(n);
  for (int k = 0; k < levels; ++k) m.charge_exchange(static_cast<unsigned>(k));
}

}  // namespace ops
}  // namespace dyncg
