// Grouping: map every row to a dense group id in first-encounter row order.
//
// Integer keys whose (previous group, value) domain fits in the row count
// group through a direct-indexed slot table: a pass for the value range,
// then one sequential pass that numbers the slots, with scratch in
// proportion to the domain rather than the rows. Every other input
// (DOUBLE, string, wide-range integers) groups through a hash table.
//
// Large hash-path inputs run a partitioned parallel build: each fixed
// morsel builds a local first-encounter dictionary concurrently, the
// per-morsel dictionaries are merged sequentially in morsel order
// (assigning the global group ids), and a final parallel pass renumbers the
// per-row local ids through the per-morsel local->global maps. Because morsel boundaries are fixed and the
// dictionaries merge in morsel order, global ids are assigned in exactly the
// first-encounter row order of a sequential scan — the output is
// bit-identical at any thread count.

#include <optional>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/gdk/hash.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace gdk {

namespace {

// Canonical key bits per row: NULLs share one fixed pattern so that SQL
// GROUP BY places all NULLs in a single group.
template <typename T>
uint64_t RowKey(const std::vector<T>& v, size_t i) {
  if (TypeTraits<T>::IsNil(v[i])) return 0xF1F1F1F1F1F1F1F1ULL;
  return KeyBits(v[i]);
}

uint64_t KeyerAt(const BAT& b, size_t i) {
  switch (b.type()) {
    case PhysType::kBit:
      return RowKey(b.bits(), i);
    case PhysType::kInt:
      return RowKey(b.ints(), i);
    case PhysType::kLng:
      return RowKey(b.lngs(), i);
    case PhysType::kDbl:
      return RowKey(b.dbls(), i);
    case PhysType::kOid:
    case PhysType::kStr:
      // Str offsets are canonical within a heap (deduplicated).
      return RowKey(b.oids(), i);
  }
  return 0;
}

inline uint64_t GroupHash(oid_t prev_gid, uint64_t key_bits) {
  return Fingerprint64(HashCombine(Fingerprint64(prev_gid), key_bits));
}

// Sequential first-encounter pass (small inputs / single-threaded pool).
GroupResult SequentialGroup(const BAT& b, const BAT* prev, size_t n) {
  GroupResult res;
  res.groups = BAT::Make(PhysType::kOid);
  res.extents = BAT::Make(PhysType::kOid);
  auto& gids = res.groups->oids();
  gids.resize(n);
  res.extents->Reserve(n / 4 + 16);

  // Open-addressing first-encounter table: entries are group ids chained
  // through the shared bucket+next arrays; each group remembers its
  // (previous-group, key-bits) pair for the equality re-check.
  OidHashTable table(n);
  std::vector<oid_t> grp_prev;
  std::vector<uint64_t> grp_key;
  grp_prev.reserve(n / 4 + 16);
  grp_key.reserve(n / 4 + 16);

  auto& extents = res.extents->oids();
  for (size_t i = 0; i < n; ++i) {
    oid_t prev_gid = prev == nullptr ? 0 : prev->oids()[i];
    uint64_t kb = KeyerAt(b, i);
    uint64_t h = GroupHash(prev_gid, kb);
    oid_t gid = table.FindFirst(h, [&](oid_t g) {
      return grp_prev[g] == prev_gid && grp_key[g] == kb;
    });
    if (gid == kOidNil) {
      gid = static_cast<oid_t>(res.ngroups++);
      grp_prev.push_back(prev_gid);
      grp_key.push_back(kb);
      table.Insert(h, gid);
      extents.push_back(static_cast<oid_t>(i));
    }
    gids[i] = gid;
  }
  return res;
}

// One morsel's first-encounter dictionary: parallel arrays indexed by local
// group id, in local first-encounter (= row) order.
struct MorselDict {
  std::vector<oid_t> prev_gid;
  std::vector<uint64_t> key;
  std::vector<oid_t> first_row;
  std::vector<oid_t> to_global;  // filled by the merge pass
};

GroupResult PartitionedGroup(const BAT& b, const BAT* prev, size_t n,
                             size_t nmorsels) {
  GroupResult res;
  res.groups = BAT::Make(PhysType::kOid);
  res.extents = BAT::Make(PhysType::kOid);
  auto& gids = res.groups->oids();
  gids.resize(n);

  // Pass 1 (parallel): per-morsel local dictionaries; gids temporarily
  // holds each row's local group id.
  std::vector<MorselDict> dicts(nmorsels);
  ThreadPool::Get().ParallelFor(
      n, kMorselRows, [&](size_t m, size_t begin, size_t end) {
        MorselDict& d = dicts[m];
        size_t rows = end - begin;
        OidHashTable table(rows);
        d.prev_gid.reserve(rows / 4 + 16);
        d.key.reserve(rows / 4 + 16);
        d.first_row.reserve(rows / 4 + 16);
        for (size_t i = begin; i < end; ++i) {
          oid_t prev_gid = prev == nullptr ? 0 : prev->oids()[i];
          uint64_t kb = KeyerAt(b, i);
          uint64_t h = GroupHash(prev_gid, kb);
          oid_t lg = table.FindFirst(h, [&](oid_t g) {
            return d.prev_gid[g] == prev_gid && d.key[g] == kb;
          });
          if (lg == kOidNil) {
            lg = static_cast<oid_t>(d.prev_gid.size());
            d.prev_gid.push_back(prev_gid);
            d.key.push_back(kb);
            d.first_row.push_back(static_cast<oid_t>(i));
            // Entry ids are local to this morsel's table.
            table.Insert(h, lg);
          }
          gids[i] = lg;
        }
      });

  // Pass 2 (sequential): merge the dictionaries in morsel order. Scanning
  // morsels in order and each dictionary in local first-encounter order
  // visits distinct keys exactly in global first-encounter row order, so the
  // assigned ids (and extents) match the sequential pass bit for bit.
  size_t total_locals = 0;
  for (const MorselDict& d : dicts) total_locals += d.prev_gid.size();
  OidHashTable table(total_locals);
  std::vector<oid_t> grp_prev;
  std::vector<uint64_t> grp_key;
  grp_prev.reserve(total_locals);
  grp_key.reserve(total_locals);
  auto& extents = res.extents->oids();
  extents.reserve(total_locals);
  for (MorselDict& d : dicts) {
    size_t nlocal = d.prev_gid.size();
    d.to_global.resize(nlocal);
    for (size_t g = 0; g < nlocal; ++g) {
      uint64_t h = GroupHash(d.prev_gid[g], d.key[g]);
      oid_t gid = table.FindFirst(h, [&](oid_t e) {
        return grp_prev[e] == d.prev_gid[g] && grp_key[e] == d.key[g];
      });
      if (gid == kOidNil) {
        gid = static_cast<oid_t>(res.ngroups++);
        grp_prev.push_back(d.prev_gid[g]);
        grp_key.push_back(d.key[g]);
        table.Insert(h, gid);
        extents.push_back(d.first_row[g]);
      }
      d.to_global[g] = gid;
    }
  }

  // Pass 3 (parallel): renumber local ids through the per-morsel maps.
  ThreadPool::Get().ParallelFor(
      n, kMorselRows, [&](size_t m, size_t begin, size_t end) {
        const std::vector<oid_t>& to_global = dicts[m].to_global;
        for (size_t i = begin; i < end; ++i) {
          gids[i] = to_global[gids[i]];
        }
      });
  return res;
}

// The non-NULL value range of an integer key column: its smallest value
// and max - min. The span is taken in unsigned arithmetic, so even an lng
// column spanning INT64_MIN+1..INT64_MAX has a representable span. An
// all-NULL column reports min 0, span 0.
template <typename T>
struct KeyRange {
  T min{};
  uint64_t span = 0;
};

template <typename T>
KeyRange<T> RangeOf(const std::vector<T>& v) {
  KeyRange<T> r;
  T hi{};
  bool any = false;
  for (T x : v) {
    if (TypeTraits<T>::IsNil(x)) continue;
    if (!any) {
      r.min = hi = x;
      any = true;
    } else if (x < r.min) {
      r.min = x;
    } else if (x > hi) {
      hi = x;
    }
  }
  r.span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(r.min);
  return r;
}

// Dense grouping of an integer key column: slot (prev group, value) is
// prev * width + (NULL ? 0 : value - min + 1), and the slot table maps each
// slot to its group id, assigned in first-encounter row order like the
// hash path, so groups, extents and ngroups match it bit for bit.
template <typename T>
Result<GroupResult> DenseGroup(const std::vector<T>& v, const BAT* prev,
                               size_t prev_ngroups, const KeyRange<T>& r) {
  size_t n = v.size();
  uint64_t width = r.span + 2;
  GroupResult res;
  res.groups = BAT::Make(PhysType::kOid);
  res.extents = BAT::Make(PhysType::kOid);
  auto& gids = res.groups->oids();
  gids.resize(n);
  auto& extents = res.extents->oids();
  std::vector<oid_t> slots(
      static_cast<size_t>(width * (prev == nullptr ? 1 : prev_ngroups)),
      kOidNil);
  const oid_t* prev_gids = prev == nullptr ? nullptr : prev->oids().data();
  for (size_t i = 0; i < n; ++i) {
    uint64_t base = 0;
    if (prev_gids != nullptr) {
      if (prev_gids[i] >= prev_ngroups) {
        return Status::InvalidArgument(StrFormat(
            "Group: previous group id %llu at row %zu is not below the "
            "previous group count %zu",
            static_cast<unsigned long long>(prev_gids[i]), i, prev_ngroups));
      }
      base = prev_gids[i] * width;
    }
    uint64_t off = TypeTraits<T>::IsNil(v[i])
                       ? 0
                       : static_cast<uint64_t>(v[i]) -
                             static_cast<uint64_t>(r.min) + 1;
    oid_t& slot = slots[static_cast<size_t>(base + off)];
    if (slot == kOidNil) {
      slot = static_cast<oid_t>(res.ngroups++);
      extents.push_back(static_cast<oid_t>(i));
    }
    gids[i] = slot;
  }
  return res;
}

// Dense grouping when the (previous group, value) domain, one NULL slot
// per previous group included, holds at most as many slots as there are
// rows; nullopt sends the caller to the hash path.
template <typename T>
std::optional<Result<GroupResult>> TryDenseGroup(const std::vector<T>& v,
                                                 const BAT* prev,
                                                 size_t prev_ngroups) {
  size_t n = v.size();
  KeyRange<T> r = RangeOf(v);
  // span + 2 cannot wrap once span < n.
  if (r.span >= n) return std::nullopt;
  uint64_t width = r.span + 2;
  uint64_t outer = prev == nullptr ? 1 : prev_ngroups;
  if (outer > n / width) return std::nullopt;
  return DenseGroup(v, prev, prev_ngroups, r);
}

}  // namespace

Result<GroupResult> Group(const BAT& b, const BAT* prev, size_t prev_ngroups) {
  size_t n = b.Count();
  if (prev != nullptr && prev->type() != PhysType::kOid) {
    return Status::InvalidArgument(
        StrFormat("Group: previous grouping is a %s BAT, not oid",
                  PhysTypeName(prev->type())));
  }
  if (prev != nullptr && prev->Count() != n) {
    return Status::Internal("Group: refinement grouping misaligned");
  }
  std::optional<Result<GroupResult>> dense;
  switch (b.type()) {
    case PhysType::kBit:
      dense = TryDenseGroup(b.bits(), prev, prev_ngroups);
      break;
    case PhysType::kInt:
      dense = TryDenseGroup(b.ints(), prev, prev_ngroups);
      break;
    case PhysType::kLng:
      dense = TryDenseGroup(b.lngs(), prev, prev_ngroups);
      break;
    case PhysType::kOid:
      dense = TryDenseGroup(b.oids(), prev, prev_ngroups);
      break;
    case PhysType::kDbl:
    case PhysType::kStr:
      break;
  }
  if (dense.has_value()) return std::move(*dense);
  size_t nmorsels = MorselCount(n, kMorselRows);
  if (nmorsels <= 1 || ThreadPool::Get().thread_count() <= 1) {
    return SequentialGroup(b, prev, n);
  }
  return PartitionedGroup(b, prev, n, nmorsels);
}

}  // namespace gdk
}  // namespace sciql
