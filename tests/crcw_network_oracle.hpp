#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "support/ackermann.hpp"
#include "support/assert.hpp"

// The executed Section 2.6 network behind ops::concurrent_read and
// ops::concurrent_write: a doubled bitonic sort by key, a doubled segmented
// scan and a doubled sort home, run record by record on a 2P-element file.
// The library answers on the host and charges the network's schedule
// (ops/crcw.hpp); this is the definition both are checked against, the way
// measure_pattern_costs defines the closed-form pattern prices.  Its loops
// are written out here rather than walked through ops::walk_bitonic_schedule,
// so the walker is checked against an independent copy.
namespace dyncg {
namespace crcw_oracle {

// Bitonic sort of a 2n-element file laid out two elements per PE.
template <class T, class Less>
void sort_doubled(Machine& m, std::vector<T>& elems, Less less) {
  std::size_t n2 = elems.size();
  DYNCG_ASSERT(n2 == 2 * m.size(), "doubled file must hold 2 per PE");
  for (std::size_t size = 2; size <= n2; size <<= 1) {
    std::size_t mask = size & (n2 - 1);
    for (std::size_t stride = size >> 1; stride >= 1; stride >>= 1) {
      if (stride == 1) {
        m.charge_local(1);
      } else {
        m.charge_exchange(static_cast<unsigned>(floor_log2(stride)) - 1);
        m.charge_local(1);
      }
      for (std::size_t r = 0; r < n2; ++r) {
        std::size_t partner = r ^ stride;
        if (partner <= r) continue;
        bool ascending = (r & mask) == 0;
        bool bad = ascending ? less(elems[partner], elems[r])
                             : less(elems[r], elems[partner]);
        if (bad) std::swap(elems[r], elems[partner]);
      }
    }
  }
}

// Inclusive scan of a doubled file (2 elements per PE, rank order).
template <class T, class Op>
void prefix_doubled(Machine& m, std::vector<T>& elems, Op op) {
  std::size_t n2 = elems.size();
  DYNCG_ASSERT(n2 == 2 * m.size(), "doubled file must hold 2 per PE");
  std::vector<T> total = elems;
  int levels = floor_log2(n2);
  for (int k = 0; k < levels; ++k) {
    std::size_t stride = std::size_t{1} << k;
    if (k == 0) {
      m.charge_local(1);
    } else {
      m.charge_exchange(static_cast<unsigned>(k) - 1);
      m.charge_local(1);
    }
    std::vector<T> incoming(total);
    for (std::size_t r = 0; r < n2; ++r) {
      std::size_t partner = r ^ stride;
      if (r & stride) {
        elems[r] = op(incoming[partner], elems[r]);
        total[r] = op(incoming[partner], total[r]);
      } else {
        total[r] = op(total[r], incoming[partner]);
      }
    }
  }
}

template <class Key, class Value>
struct Rec {
  bool live = false;
  Key key{};
  int tag = 2;  // 0 = data / write request, 1 = query / owner slot
  std::size_t origin = 0;
  std::optional<Value> value{};
};

template <class Key, class Value>
bool key_order(const Rec<Key, Value>& a, const Rec<Key, Value>& b) {
  if (a.live != b.live) return a.live;  // dead records last
  if (!a.live) return false;
  if (a.key < b.key) return true;
  if (b.key < a.key) return false;
  return a.tag < b.tag;  // data before queries of the same key
}

template <class Key, class Value>
bool home_order(const Rec<Key, Value>& a, const Rec<Key, Value>& b) {
  if (a.live != b.live) return a.live;
  if (!a.live) return false;
  if (a.origin != b.origin) return a.origin < b.origin;
  return a.tag < b.tag;
}

template <class Key, class Value>
std::vector<Rec<Key, Value>> record_file(
    std::size_t n, const std::vector<std::optional<std::pair<Key, Value>>>& data,
    const std::vector<std::optional<Key>>& queries) {
  std::vector<Rec<Key, Value>> file(2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    if (data[r].has_value()) {
      file[2 * r] = Rec<Key, Value>{true, data[r]->first, 0, r, data[r]->second};
    }
    if (queries[r].has_value()) {
      file[2 * r + 1] = Rec<Key, Value>{true, *queries[r], 1, r, std::nullopt};
    }
  }
  return file;
}

template <class Key, class Value>
std::vector<std::optional<Value>> answers_home(
    Machine& m, std::vector<Rec<Key, Value>>& file) {
  sort_doubled(m, file, home_order<Key, Value>);
  std::vector<std::optional<Value>> out(m.size());
  for (const Rec<Key, Value>& rec : file) {
    if (rec.live && rec.tag == 1) out[rec.origin] = rec.value;
  }
  return out;
}

template <class Key, class Value>
std::vector<std::optional<Value>> concurrent_read(
    Machine& m, const std::vector<std::optional<std::pair<Key, Value>>>& data,
    const std::vector<std::optional<Key>>& queries, bool exact_match = true) {
  std::vector<Rec<Key, Value>> file = record_file(m.size(), data, queries);
  sort_doubled(m, file, key_order<Key, Value>);

  // Propagate each data record rightward to the queries it serves.
  struct Carry {
    bool has = false;
    Key key{};
    std::optional<Value> value{};
  };
  std::vector<Carry> carry(file.size());
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i].live && file[i].tag == 0) {
      carry[i] = Carry{true, file[i].key, file[i].value};
    }
  }
  prefix_doubled(m, carry, [](const Carry& a, const Carry& b) {
    return b.has ? b : a;
  });
  m.charge_local(1);
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i].live && file[i].tag == 1 && carry[i].has) {
      bool key_le = !(file[i].key < carry[i].key);
      bool key_eq = key_le && !(carry[i].key < file[i].key);
      if (exact_match ? key_eq : key_le) file[i].value = carry[i].value;
    }
  }
  return answers_home(m, file);
}

template <class Key, class Value, class Op>
std::vector<std::optional<Value>> concurrent_write(
    Machine& m,
    const std::vector<std::optional<std::pair<Key, Value>>>& requests,
    const std::vector<std::optional<Key>>& owners, Op op) {
  std::vector<Rec<Key, Value>> file = record_file(m.size(), requests, owners);
  sort_doubled(m, file, key_order<Key, Value>);

  // Segmented combine within key groups; the owner slot (last of its group)
  // picks up the inclusive combination.
  struct Carry {
    bool has = false;
    Key key{};
    std::optional<Value> acc{};
  };
  std::vector<Carry> carry(file.size());
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i].live && file[i].tag == 0) {
      carry[i] = Carry{true, file[i].key, file[i].value};
    }
  }
  prefix_doubled(m, carry, [&op](const Carry& a, const Carry& b) {
    if (!b.has) return a;
    if (!a.has) return b;
    bool same = !(a.key < b.key) && !(b.key < a.key);
    if (!same) return b;
    Carry c = b;
    if (a.acc.has_value() && b.acc.has_value()) {
      c.acc = op(*a.acc, *b.acc);
    } else if (a.acc.has_value()) {
      c.acc = a.acc;
    }
    return c;
  });
  m.charge_local(1);
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i].live && file[i].tag == 1 && carry[i].has) {
      bool same =
          !(file[i].key < carry[i].key) && !(carry[i].key < file[i].key);
      if (same) file[i].value = carry[i].acc;
    }
  }
  return answers_home(m, file);
}

}  // namespace crcw_oracle
}  // namespace dyncg
