// Parallel sort & order-index subsystem.
//
// OrderIndex partitions the row ids into fixed morsels, sorts every morsel
// concurrently and combines the sorted runs with a binary merge tree whose
// shape depends only on (n, grain). Because the comparator is a total order
// (the row id breaks every tie), the result is the unique stable sort
// permutation, so any combination order — and therefore any thread count —
// produces bit-identical output (the same contract as the other
// morsel-parallel kernels; see docs/execution.md).
//
// Typed fast paths avoid per-comparison type dispatch: each numeric key
// column is pre-encoded into an order-preserving uint64 sort key (nil maps
// below every value, matching MonetDB's "nil is smallest"), and string
// columns are pre-decoded into string_views with a nil flag. Top-k over a
// single numeric key computes the same sort key as it reads each row, so it
// allocates in proportion to k, not to the input.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string_view>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace gdk {

namespace {

// Order-preserving uint64 encodings. Nil maps to 0 and every non-nil value
// maps strictly above it. Doubles collapse -0.0 onto 0.0 so key equality
// matches operator== (ties stay ties and stability decides, exactly like a
// three-way value compare would).
inline uint64_t SortKey(uint8_t v) {
  return v == kBitNil ? 0 : 1 + static_cast<uint64_t>(v);
}
inline uint64_t SortKey(int32_t v) {
  // kIntNil (INT32_MIN) lands below every other int32 after the sign flip.
  return static_cast<uint64_t>(static_cast<int64_t>(v)) ^ (1ull << 63);
}
inline uint64_t SortKey(int64_t v) {
  // kLngNil (INT64_MIN) maps to 0.
  return static_cast<uint64_t>(v) ^ (1ull << 63);
}
inline uint64_t SortKey(double v) {
  if (IsDblNil(v)) return 0;
  double d = v == 0.0 ? 0.0 : v;  // -0.0 ties with 0.0
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  // Flip negatives entirely, set the sign bit on non-negatives: total order
  // matching double <. No non-nil value can map to 0 (that would be a NaN).
  return (bits & (1ull << 63)) ? ~bits : bits | (1ull << 63);
}
inline uint64_t SortKey(uint64_t v) {
  return v == kOidNil ? 0 : v + 1;  // non-nil oids are < kOidNil, no overflow
}

// One prepared key column: numeric columns carry pre-encoded sort keys,
// string columns carry decoded views plus a nil flag.
struct SortCol {
  bool desc = false;
  bool is_str = false;
  std::vector<uint64_t> keys;            // numeric encoding (empty for str)
  std::vector<std::string_view> strs;    // decoded string payloads
  std::vector<uint8_t> nils;             // str nil flags

  // Three-way compare of rows a and b in this column's ascending order.
  int Compare(oid_t a, oid_t b) const {
    if (!is_str) {
      uint64_t ka = keys[a], kb = keys[b];
      return (ka > kb) - (ka < kb);
    }
    int na = nils[a] ? 0 : 1;
    int nb = nils[b] ? 0 : 1;
    if (na == 0 || nb == 0) return na - nb;
    int cmp = strs[a].compare(strs[b]);
    return (cmp > 0) - (cmp < 0);
  }
};

template <typename T>
void EncodeKeys(const std::vector<T>& v, std::vector<uint64_t>* keys) {
  keys->resize(v.size());
  ParallelRows(v.size(), kMorselRows, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) (*keys)[i] = SortKey(v[i]);
    return Status::OK();
  });
}

SortCol PrepareCol(const BAT& b, bool desc) {
  SortCol col;
  col.desc = desc;
  switch (b.type()) {
    case PhysType::kBit:
      EncodeKeys(b.bits(), &col.keys);
      break;
    case PhysType::kInt:
      EncodeKeys(b.ints(), &col.keys);
      break;
    case PhysType::kLng:
      EncodeKeys(b.lngs(), &col.keys);
      break;
    case PhysType::kDbl:
      EncodeKeys(b.dbls(), &col.keys);
      break;
    case PhysType::kOid:
      EncodeKeys(b.oids(), &col.keys);
      break;
    case PhysType::kStr: {
      col.is_str = true;
      size_t n = b.Count();
      col.strs.resize(n);
      col.nils.resize(n);
      ParallelRows(n, kMorselRows, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          col.nils[i] = b.IsNullAt(i) ? 1 : 0;
          col.strs[i] = col.nils[i] ? std::string_view() : b.GetStr(i);
        }
        return Status::OK();
      });
      break;
    }
  }
  return col;
}

// Sort the permutation `idx` with the total order `less`: parallel
// morsel-local sorts, then a binary merge tree over the runs. Both the
// morsel boundaries and the tree shape depend only on (n, grain), and
// `less` is total, so the result equals a sequential std::sort.
template <typename Less>
void ParallelSortPermutation(std::vector<oid_t>* idx, const Less& less) {
  size_t n = idx->size();
  size_t nmorsels = MorselCount(n, kMorselRows);
  auto first = idx->begin();
  if (nmorsels <= 1 || ThreadPool::Get().thread_count() <= 1) {
    std::sort(first, idx->end(), less);
    return;
  }
  auto& pool = ThreadPool::Get();
  pool.ParallelFor(n, kMorselRows, [&](size_t, size_t begin, size_t end) {
    std::sort(first + begin, first + end, less);
  });
  for (size_t width = kMorselRows; width < n; width *= 2) {
    size_t npairs = (n + 2 * width - 1) / (2 * width);
    pool.ParallelFor(npairs, 1, [&](size_t, size_t pb, size_t pe) {
      for (size_t p = pb; p < pe; ++p) {
        size_t lo = p * 2 * width;
        size_t mid = std::min(n, lo + width);
        size_t hi = std::min(n, lo + 2 * width);
        if (mid < hi) {
          std::inplace_merge(first + lo, first + mid, first + hi, less);
        }
      }
    });
  }
}

// Key sources for a single numeric key: each maps a row to its
// order-preserving uint64 sort key. The full sort compares every row
// O(log n) times, so it reads PrepareCol's encoded copy; top-k compares
// most rows once, against the heap top, so it encodes on read and never
// writes the n-row copy.
struct EncodedKey {
  const uint64_t* keys;
  uint64_t operator()(oid_t row) const { return keys[row]; }
};
template <typename T>
struct KeyOnRead {
  const T* vals;
  uint64_t operator()(oid_t row) const { return SortKey(vals[row]); }
};

// Invoke `fn` with the total-order comparator over a key source: one
// numeric column's row -> sort key map (`key`, `desc`), or the prepared key
// columns. A single numeric prepared column compares through the first
// overload with its encoded keys; everything else walks the column list.
// The row id breaks every tie. The one factory serves both the full sort
// and FirstN, so the top-k contract ("FirstN == sort + slice, bit for bit")
// cannot drift between two comparator copies.
template <typename Key, typename Fn>
auto WithComparator(Key key, bool desc, Fn fn) {
  if (!desc) {
    return fn([key](oid_t a, oid_t b) {
      uint64_t ka = key(a), kb = key(b);
      return ka != kb ? ka < kb : a < b;
    });
  }
  return fn([key](oid_t a, oid_t b) {
    uint64_t ka = key(a), kb = key(b);
    return ka != kb ? ka > kb : a < b;
  });
}

template <typename Fn>
auto WithComparator(const std::vector<SortCol>& cols, Fn fn) {
  if (cols.size() == 1 && !cols[0].is_str) {
    return WithComparator(EncodedKey{cols[0].keys.data()}, cols[0].desc, fn);
  }
  return fn([&cols](oid_t a, oid_t b) {
    for (const SortCol& c : cols) {
      int cmp = c.Compare(a, b);
      if (cmp != 0) return c.desc ? cmp > 0 : cmp < 0;
    }
    return a < b;
  });
}

// Sort [0, n) by the prepared key columns, stable (row id breaks ties).
std::vector<oid_t> SortedPermutation(size_t n,
                                     const std::vector<SortCol>& cols) {
  std::vector<oid_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  WithComparator(cols, [&idx](const auto& less) {
    ParallelSortPermutation(&idx, less);
  });
  return idx;
}

// Append the rows of [begin, end) that belong to the k smallest under
// `less`, maintained as a max-heap (heap top = worst retained row, evicted
// when a better row arrives). The retained set is exactly the morsel's
// first k under the total order, so it does not depend on scheduling.
template <typename Less>
void BoundedTopK(size_t begin, size_t end, size_t k, const Less& less,
                 std::vector<oid_t>* heap) {
  std::vector<oid_t>& h = *heap;
  for (size_t i = begin; i < end; ++i) {
    oid_t row = static_cast<oid_t>(i);
    if (h.size() < k) {
      h.push_back(row);
      std::push_heap(h.begin(), h.end(), less);
    } else if (less(row, h.front())) {
      std::pop_heap(h.begin(), h.end(), less);
      h.back() = row;
      std::push_heap(h.begin(), h.end(), less);
    }
  }
}

// First k rows of the stable sort order over [0, n): per-morsel bounded
// heaps, then one sort of the candidate union (<= k rows per morsel, and
// every global top-k row is some morsel's top-k row). Morsel boundaries are
// fixed by (n, grain) and `less` is total, so the candidate set and the
// final first-k are unique — bit-identical at any thread count.
template <typename Less>
std::vector<oid_t> FirstNPermutation(size_t n, size_t k, const Less& less) {
  size_t nmorsels = MorselCount(n, kMorselRows);
  std::vector<oid_t> cand;
  if (nmorsels <= 1 || ThreadPool::Get().thread_count() <= 1) {
    cand.reserve(std::min(n, k));
    BoundedTopK(0, n, k, less, &cand);
  } else {
    std::vector<std::vector<oid_t>> parts(nmorsels);
    ThreadPool::Get().ParallelFor(
        n, kMorselRows, [&](size_t m, size_t begin, size_t end) {
          parts[m].reserve(std::min(end - begin, k));
          BoundedTopK(begin, end, k, less, &parts[m]);
        });
    size_t total = 0;
    for (const auto& p : parts) total += p.size();
    cand.reserve(total);
    for (const auto& p : parts) cand.insert(cand.end(), p.begin(), p.end());
  }
  std::sort(cand.begin(), cand.end(), less);
  if (cand.size() > k) cand.resize(k);
  return cand;
}

// First k rows of the stable order over `keys`, through the shared
// comparator factory (the exact order SortedPermutation uses). A single
// numeric key reads its sort keys on the fly; other specs prepare their
// columns as the full sort does.
std::vector<oid_t> FirstNOfKeys(const std::vector<const BAT*>& keys,
                                const std::vector<bool>& desc, size_t k) {
  size_t n = keys[0]->Count();
  auto first_n = [n, k](const auto& less) {
    return FirstNPermutation(n, k, less);
  };
  if (keys.size() == 1) {
    const BAT& b = *keys[0];
    switch (b.type()) {
      case PhysType::kBit:
        return WithComparator(KeyOnRead<uint8_t>{b.bits().data()}, desc[0],
                              first_n);
      case PhysType::kInt:
        return WithComparator(KeyOnRead<int32_t>{b.ints().data()}, desc[0],
                              first_n);
      case PhysType::kLng:
        return WithComparator(KeyOnRead<int64_t>{b.lngs().data()}, desc[0],
                              first_n);
      case PhysType::kDbl:
        return WithComparator(KeyOnRead<double>{b.dbls().data()}, desc[0],
                              first_n);
      case PhysType::kOid:
        return WithComparator(KeyOnRead<uint64_t>{b.oids().data()}, desc[0],
                              first_n);
      case PhysType::kStr:
        break;
    }
  }
  std::vector<SortCol> cols;
  cols.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    cols.push_back(PrepareCol(*keys[i], desc[i]));
  }
  return WithComparator(cols, first_n);
}

// Key-tuple equality of rows a and b: the sort's tie relation, through the
// shared nil-first tuple comparator.
bool RowsTie(const std::vector<const BAT*>& keys, oid_t a, oid_t b) {
  return CompareKeyRows(keys, a, keys, b) == 0;
}

// The stable permutation of the negated spec, derived from the canonical
// index `asc` in O(n) without sorting: equal-key runs reverse as blocks
// while keeping ascending row ids inside each run (ties keep first-arrival
// order under either direction, because flipping every key negates the
// order of distinct key classes but leaves the row-id tie-break alone). In
// particular the nil block — nil is smallest — relocates from the head to
// the tail, so a descending sort emits nils last. Emission stops once
// `limit` rows are out (whole runs are emitted, then truncated).
std::vector<oid_t> ReversedRuns(const std::vector<const BAT*>& keys,
                                const std::vector<oid_t>& asc,
                                size_t limit = SIZE_MAX) {
  std::vector<oid_t> out;
  out.reserve(std::min(asc.size(), limit));
  size_t end = asc.size();
  while (end > 0 && out.size() < limit) {
    size_t start = end - 1;
    while (start > 0 && RowsTie(keys, asc[start - 1], asc[start])) --start;
    out.insert(out.end(), asc.begin() + static_cast<ptrdiff_t>(start),
               asc.begin() + static_cast<ptrdiff_t>(end));
    end = start;
  }
  if (out.size() > limit) out.resize(limit);
  return out;
}

std::vector<bool> NegateSpec(const std::vector<bool>& desc) {
  std::vector<bool> out(desc.size());
  for (size_t i = 0; i < desc.size(); ++i) out[i] = !desc[i];
  return out;
}

// Look up the cached index serving `keys`/`desc`: the canonical spec's
// entry (single-key ascending lives on BAT::order_index, multi-key in the
// keyed cache). Sets *negated when the caller must run-reverse it.
OrderIndexPtr LookupCachedSpec(const std::vector<const BAT*>& keys,
                               const std::vector<bool>& desc, bool* negated) {
  *negated = desc[0];
  const std::vector<bool> canon = desc[0] ? NegateSpec(desc) : desc;
  if (keys.size() == 1) return keys[0]->order_index();
  return keys[0]->FindOrderIndexSpec(keys, canon);
}

void CountSpecEvent(std::atomic<uint64_t> KernelTelemetry::*total,
                    std::atomic<uint64_t> KernelTelemetry::*multi,
                    size_t nkeys) {
  Telemetry().*total += 1;
  if (nkeys > 1) Telemetry().*multi += 1;
}

}  // namespace

KernelTelemetry& Telemetry() {
  static KernelTelemetry t;
  return t;
}

const std::vector<TelemetryField>& TelemetryFields() {
  static const auto* fields = new std::vector<TelemetryField>{
      {"joins_hash", "hash build + probe joins",
       &KernelTelemetry::joins_hash, &TelemetrySnapshot::joins_hash},
      {"joins_indexed_probe", "one-sided index joins",
       &KernelTelemetry::joins_indexed_probe,
       &TelemetrySnapshot::joins_indexed_probe},
      {"joins_merge", "both-sides-indexed merge joins",
       &KernelTelemetry::joins_merge, &TelemetrySnapshot::joins_merge},
      {"joins_merge_str", "merge joins that were string-keyed",
       &KernelTelemetry::joins_merge_str, &TelemetrySnapshot::joins_merge_str},
      {"joins_merge_multi", "merge joins that were multi-key",
       &KernelTelemetry::joins_merge_multi,
       &TelemetrySnapshot::joins_merge_multi},
      {"firstn_index_window", "top-k served by an index head copy",
       &KernelTelemetry::firstn_index_window,
       &TelemetrySnapshot::firstn_index_window},
      {"firstn_heap", "top-k via per-morsel heaps",
       &KernelTelemetry::firstn_heap, &TelemetrySnapshot::firstn_heap},
      {"firstn_sort_fallback", "top-k via full sort (k >= n/2)",
       &KernelTelemetry::firstn_sort_fallback,
       &TelemetrySnapshot::firstn_sort_fallback},
      {"minmax_index", "MIN/MAX answered from index endpoints",
       &KernelTelemetry::minmax_index, &TelemetrySnapshot::minmax_index},
      {"order_index_built", "order indexes sorted anew",
       &KernelTelemetry::order_index_built,
       &TelemetrySnapshot::order_index_built},
      {"order_index_built_multi", "order index builds that were multi-key",
       &KernelTelemetry::order_index_built_multi,
       &TelemetrySnapshot::order_index_built_multi},
      {"order_index_loaded", "order indexes adopted from disk",
       &KernelTelemetry::order_index_loaded,
       &TelemetrySnapshot::order_index_loaded},
      {"order_index_loaded_multi", "order index loads that were multi-key",
       &KernelTelemetry::order_index_loaded_multi,
       &TelemetrySnapshot::order_index_loaded_multi},
      {"order_index_reused", "exact-spec order-index cache hits",
       &KernelTelemetry::order_index_reused,
       &TelemetrySnapshot::order_index_reused},
      {"order_index_reused_multi", "order index reuses that were multi-key",
       &KernelTelemetry::order_index_reused_multi,
       &TelemetrySnapshot::order_index_reused_multi},
      {"order_index_reversed", "ORDER BY served by run reversal",
       &KernelTelemetry::order_index_reversed,
       &TelemetrySnapshot::order_index_reversed},
      {"order_index_reversed_multi", "run reversals that were multi-key",
       &KernelTelemetry::order_index_reversed_multi,
       &TelemetrySnapshot::order_index_reversed_multi},
      {"dim_slab_selects", "dimension predicates answered by array.slab",
       &KernelTelemetry::dim_slab_selects, &TelemetrySnapshot::dim_slab_selects},
  };
  return *fields;
}

TelemetrySnapshot CaptureTelemetry() {
  TelemetrySnapshot s;
  const KernelTelemetry& t = Telemetry();
  for (const TelemetryField& f : TelemetryFields()) {
    s.*f.snap = (t.*f.live).load(std::memory_order_relaxed);
  }
  return s;
}

TelemetrySnapshot DeltaSince(const TelemetrySnapshot& base) {
  TelemetrySnapshot s = CaptureTelemetry();
  for (const TelemetryField& f : TelemetryFields()) {
    s.*f.snap -= base.*f.snap;
  }
  return s;
}

KernelControls& Controls() {
  static KernelControls c;
  return c;
}

namespace {

// Nil-first three-way compare of one key cell across two BATs of the same
// type (-0.0 ties 0.0 through plain double compares — NaN rows are caught
// by the nil checks first; string content compares through the decoded
// views, never heap offsets).
int CompareKeyCell(const BAT& a, oid_t ai, const BAT& b, oid_t bi) {
  bool an = a.IsNullAt(ai);
  bool bn = b.IsNullAt(bi);
  if (an || bn) return (an ? 0 : 1) - (bn ? 0 : 1);
  switch (a.type()) {
    case PhysType::kBit: {
      uint8_t av = a.bits()[ai], bv = b.bits()[bi];
      return (av > bv) - (av < bv);
    }
    case PhysType::kInt: {
      int32_t av = a.ints()[ai], bv = b.ints()[bi];
      return (av > bv) - (av < bv);
    }
    case PhysType::kLng: {
      int64_t av = a.lngs()[ai], bv = b.lngs()[bi];
      return (av > bv) - (av < bv);
    }
    case PhysType::kDbl: {
      double av = a.dbls()[ai], bv = b.dbls()[bi];
      return (av > bv) - (av < bv);
    }
    case PhysType::kOid: {
      uint64_t av = a.oids()[ai], bv = b.oids()[bi];
      return (av > bv) - (av < bv);
    }
    case PhysType::kStr:
      return a.GetStr(ai).compare(b.GetStr(bi));
  }
  return 0;
}

}  // namespace

int CompareKeyRows(const std::vector<const BAT*>& akeys, oid_t ai,
                   const std::vector<const BAT*>& bkeys, oid_t bi) {
  for (size_t k = 0; k < akeys.size(); ++k) {
    int c = CompareKeyCell(*akeys[k], ai, *bkeys[k], bi);
    if (c != 0) return c;
  }
  return 0;
}

Result<BATPtr> FirstN(const std::vector<const BAT*>& keys,
                      const std::vector<bool>& desc, size_t k) {
  if (keys.empty()) return Status::InvalidArgument("FirstN: no keys");
  if (keys.size() != desc.size()) {
    return Status::Internal("FirstN: keys/desc size mismatch");
  }
  size_t n = keys[0]->Count();
  for (const BAT* key : keys) {
    if (key->Count() != n) {
      return Status::Internal("FirstN: key columns misaligned");
    }
  }
  auto out = BAT::Make(PhysType::kOid);
  if (k == 0 || n == 0) return out;

  // A live persistent index for the spec (or its negation) already holds
  // the answer: copy its head — O(k) for an exact hit, O(n) run reversal
  // for the negated spec, never a sort. (Only a cached index is used —
  // building one here would be the full sort this kernel exists to avoid.)
  if (Controls().use_index_paths) {
    bool negated = false;
    OrderIndexPtr cached = LookupCachedSpec(keys, desc, &negated);
    if (cached != nullptr) {
      if (negated) {
        out->oids() = ReversedRuns(keys, *cached, k);
      } else {
        out->oids().assign(
            cached->begin(),
            cached->begin() + static_cast<ptrdiff_t>(std::min(k, n)));
      }
      Telemetry().firstn_index_window++;
      return out;
    }
  }

  // Large k degenerates to the full sort: at k >= n/2 the heaps would
  // retain most rows while adding per-row maintenance, and on multi-morsel
  // inputs a k approaching the morsel grain makes every morsel keep nearly
  // all of its rows — the candidate union stops shrinking the problem and
  // its final sort runs sequentially. Data-shape gates, so the chosen path
  // (and thus the bit pattern) never depends on threads. (The result is
  // the unique first-k either way; the gates only pick the cheaper route.)
  if (k >= (n + 1) / 2 ||
      (MorselCount(n, kMorselRows) > 1 && k >= kMorselRows / 4)) {
    Telemetry().firstn_sort_fallback++;
    SCIQL_ASSIGN_OR_RETURN(BATPtr idx, OrderIndex(keys, desc));
    if (idx->Count() <= k) return idx;
    out->oids().assign(idx->oids().begin(),
                       idx->oids().begin() + static_cast<ptrdiff_t>(k));
    return out;
  }

  out->oids() = FirstNOfKeys(keys, desc, k);
  Telemetry().firstn_heap++;
  return out;
}

Result<OrderIndexPtr> EnsureOrderIndex(const BAT& b) {
  if (b.order_index() != nullptr) {
    Telemetry().order_index_reused++;
    return b.order_index();
  }
  std::vector<SortCol> cols;
  cols.push_back(PrepareCol(b, /*desc=*/false));
  auto idx = std::make_shared<std::vector<oid_t>>(
      SortedPermutation(b.Count(), cols));
  Telemetry().order_index_built++;
  b.SetOrderIndex(idx);
  return OrderIndexPtr(std::move(idx));
}

Result<OrderIndexPtr> EnsureOrderIndexSpec(const std::vector<BATPtr>& keys,
                                           const std::vector<bool>& desc) {
  if (keys.empty()) {
    return Status::InvalidArgument("EnsureOrderIndexSpec: no keys");
  }
  if (keys.size() != desc.size()) {
    return Status::Internal("EnsureOrderIndexSpec: keys/desc size mismatch");
  }
  size_t n = keys[0]->Count();
  std::vector<const BAT*> raw;
  raw.reserve(keys.size());
  for (const BATPtr& k : keys) {
    if (k == nullptr || k->Count() != n) {
      return Status::Internal("EnsureOrderIndexSpec: key columns misaligned");
    }
    raw.push_back(k.get());
  }
  // Only the canonical spec (primary ascending) is built and cached; the
  // negated spec is derived from it by run reversal below.
  const bool negate = desc[0];
  const std::vector<bool> canon = negate ? NegateSpec(desc) : desc;
  OrderIndexPtr idx;
  if (keys.size() == 1) {
    SCIQL_ASSIGN_OR_RETURN(idx, EnsureOrderIndex(*keys[0]));
  } else {
    idx = keys[0]->FindOrderIndexSpec(raw, canon);
    if (idx != nullptr) {
      CountSpecEvent(&KernelTelemetry::order_index_reused,
                     &KernelTelemetry::order_index_reused_multi, keys.size());
    } else {
      std::vector<SortCol> cols;
      cols.reserve(keys.size());
      for (size_t k = 0; k < keys.size(); ++k) {
        cols.push_back(PrepareCol(*raw[k], canon[k]));
      }
      idx = std::make_shared<const std::vector<oid_t>>(
          SortedPermutation(n, cols));
      keys[0]->CacheOrderIndexSpec(
          std::vector<BATPtr>(keys.begin() + 1, keys.end()), canon, idx);
      CountSpecEvent(&KernelTelemetry::order_index_built,
                     &KernelTelemetry::order_index_built_multi, keys.size());
    }
  }
  if (!negate) return idx;
  CountSpecEvent(&KernelTelemetry::order_index_reversed,
                 &KernelTelemetry::order_index_reversed_multi, keys.size());
  return std::make_shared<const std::vector<oid_t>>(ReversedRuns(raw, *idx));
}

OrderIndexPtr FindPrimaryOrderIndex(const BAT& b, bool* multi_key) {
  if (multi_key != nullptr) *multi_key = false;
  if (b.order_index() != nullptr) return b.order_index();
  for (const OrderIndexView& v : b.LiveOrderIndexes()) {
    // Canonical entries only: primary is ascending, nil-first.
    if (multi_key != nullptr) *multi_key = v.keys.size() > 1;
    return v.idx;
  }
  return nullptr;
}

bool ValidateOrderIndexSpec(const std::vector<const BAT*>& keys,
                            const std::vector<bool>& desc,
                            const std::vector<oid_t>& idx) {
  if (keys.empty() || keys.size() != desc.size()) return false;
  size_t n = keys[0]->Count();
  for (const BAT* k : keys) {
    if (k->Count() != n) return false;
  }
  if (idx.size() != n) return false;
  // Permutation check first so the comparator below only sees in-range rows.
  std::vector<bool> seen(n, false);
  for (oid_t o : idx) {
    if (o >= n || seen[o]) return false;
    seen[o] = true;
  }
  if (n < 2) return true;
  // The total order (row id breaks ties) admits exactly one sorted
  // permutation, so adjacent strict ordering proves idx is it.
  std::vector<SortCol> cols;
  cols.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    cols.push_back(PrepareCol(*keys[k], desc[k]));
  }
  return WithComparator(cols, [&idx, n](const auto& less) {
    for (size_t i = 1; i < n; ++i) {
      if (!less(idx[i - 1], idx[i])) return false;
    }
    return true;
  });
}

bool ValidateOrderIndex(const BAT& b, const std::vector<oid_t>& idx) {
  return ValidateOrderIndexSpec({&b}, {false}, idx);
}

Result<BATPtr> OrderIndex(const std::vector<const BAT*>& keys,
                          const std::vector<bool>& desc) {
  if (keys.empty()) return Status::InvalidArgument("OrderIndex: no keys");
  if (keys.size() != desc.size()) {
    return Status::Internal("OrderIndex: keys/desc size mismatch");
  }
  size_t n = keys[0]->Count();
  for (const BAT* k : keys) {
    if (k->Count() != n) {
      return Status::Internal("OrderIndex: key columns misaligned");
    }
  }
  auto out = BAT::Make(PhysType::kOid);
  if (keys.size() == 1) {
    // Single key: the persistent order index is the canonical (ascending)
    // permutation — reuse or build-and-cache it; a descending spec derives
    // from it by run reversal instead of a second sort.
    SCIQL_ASSIGN_OR_RETURN(OrderIndexPtr idx, EnsureOrderIndex(*keys[0]));
    if (desc[0]) {
      Telemetry().order_index_reversed++;
      out->oids() = ReversedRuns(keys, *idx);
    } else {
      out->oids() = *idx;
    }
    return out;
  }
  // Multi-key: serve from a live keyed cache entry when one matches the
  // spec (exactly, or as its negation — run reversal). Misses sort without
  // caching: only the BATPtr-based EnsureOrderIndexSpec can safely retain
  // references to the secondary key columns.
  {
    bool negated = false;
    OrderIndexPtr cached = LookupCachedSpec(keys, desc, &negated);
    if (cached != nullptr) {
      if (negated) {
        CountSpecEvent(&KernelTelemetry::order_index_reversed,
                       &KernelTelemetry::order_index_reversed_multi,
                       keys.size());
        out->oids() = ReversedRuns(keys, *cached);
      } else {
        CountSpecEvent(&KernelTelemetry::order_index_reused,
                       &KernelTelemetry::order_index_reused_multi,
                       keys.size());
        out->oids() = *cached;
      }
      return out;
    }
  }
  std::vector<SortCol> cols;
  cols.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    cols.push_back(PrepareCol(*keys[k], desc[k]));
  }
  out->oids() = SortedPermutation(n, cols);
  return out;
}

Result<BATPtr> SortBat(const BAT& b, bool desc) {
  SCIQL_ASSIGN_OR_RETURN(BATPtr idx, OrderIndex({&b}, {desc}));
  return Project(b, *idx);
}

}  // namespace gdk
}  // namespace sciql
