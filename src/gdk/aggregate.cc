#include <algorithm>
#include <cmath>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace gdk {

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kCount:
      return "count";
    case AggOp::kCountStar:
      return "count_star";
    case AggOp::kSum:
      return "sum";
    case AggOp::kAvg:
      return "avg";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
  }
  return "?";
}

namespace {

// Parallel grouped accumulation keeps one accumulator array per morsel;
// above this group count the per-morsel arrays would dominate, so the kernel
// falls back to one sequential pass. Both gates depend only on the data
// shape (never the thread count), so results stay deterministic.
constexpr size_t kMaxParallelGroups = 8192;

// Cap on partial-accumulator arrays: the grain grows with n so that at most
// this many per-morsel partials exist, bounding the extra memory and merge
// work at O(kMaxAggPartials * ngroups) regardless of input size.
constexpr size_t kMaxAggPartials = 64;

// Value-order compare of two non-nil rows of the same BAT, matching the
// sort-key order (-0.0 ties 0.0 via plain double <). Used to locate tie-run
// boundaries along an order index; exact for every type (no widening).
bool RowValueLess(const BAT& v, oid_t a, oid_t b) {
  switch (v.type()) {
    case PhysType::kBit:
      return v.bits()[a] < v.bits()[b];
    case PhysType::kInt:
      return v.ints()[a] < v.ints()[b];
    case PhysType::kLng:
      return v.lngs()[a] < v.lngs()[b];
    case PhysType::kDbl:
      return v.dbls()[a] < v.dbls()[b];
    case PhysType::kOid:
      return v.oids()[a] < v.oids()[b];
    case PhysType::kStr:
      return v.GetStr(a) < v.GetStr(b);
  }
  return false;
}

size_t AggGrain(size_t n) {
  size_t grain = kMorselRows;
  if (n / grain >= kMaxAggPartials) {
    grain = (n + kMaxAggPartials - 1) / kMaxAggPartials;
  }
  return grain;
}

// Total order on doubles for MIN/MAX selection, matching the sort-key
// encoding in sort.cc: NaN (the dbl nil) below every value, -0.0 tying with
// 0.0. The accumulation loops filter nil rows, so no NaN should reach these
// compares — but a plain `<` would make the result depend on where a stray
// NaN sits (a first-arriving NaN poisons the accumulator forever, a later
// one is never selected). Routing every min/max compare through a total
// order keeps the aggregate a pure function of the value multiset.
inline bool DblTotalLess(double a, double b) {
  if (std::isnan(a)) return !std::isnan(b);
  if (std::isnan(b)) return false;
  return a < b;
}

// Accumulators per group: sums in double and int64 (exact for integers),
// counts, and typed min/max tracked as ScalarValue-free primitives.
struct Accum {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  double dmin = 0.0;
  double dmax = 0.0;
  int64_t imin = 0;
  int64_t imax = 0;
  bool any = false;
};

// Each accumulation loop returns false at the first group id that is not
// below the group count: ids come from the plan (a hand-built one may be
// wrong), and the accumulators are indexed by them.
template <typename T>
bool AccumulateRange(const std::vector<T>& vals,
                     const std::vector<oid_t>& gids, size_t begin, size_t end,
                     std::vector<Accum>* accs) {
  for (size_t i = begin; i < end; ++i) {
    if (gids[i] >= accs->size()) return false;
    const T& v = vals[i];
    if (TypeTraits<T>::IsNil(v)) continue;
    Accum& a = (*accs)[gids[i]];
    a.count++;
    if constexpr (std::is_same_v<T, double>) {
      a.dsum += v;
      if (!a.any || DblTotalLess(v, a.dmin)) a.dmin = v;
      if (!a.any || DblTotalLess(a.dmax, v)) a.dmax = v;
    } else {
      int64_t x = static_cast<int64_t>(v);
      // Integer SUM wraps mod 2^64 (types.h): wraparound is associative, so
      // per-morsel partials merged in any grouping give the same total —
      // the property that keeps SUM bit-identical at every thread count.
      a.isum = WrapAdd(a.isum, x);
      a.dsum += static_cast<double>(x);
      if (!a.any || x < a.imin) a.imin = x;
      if (!a.any || x > a.imax) a.imax = x;
    }
    a.any = true;
  }
  return true;
}

void MergeAccum(Accum* into, const Accum& from) {
  if (!from.any) return;
  if (!into->any) {
    *into = from;
    return;
  }
  into->count += from.count;
  into->isum = WrapAdd(into->isum, from.isum);
  into->dsum += from.dsum;  // merge order is fixed (morsel order)
  if (DblTotalLess(from.dmin, into->dmin)) into->dmin = from.dmin;
  if (DblTotalLess(into->dmax, from.dmax)) into->dmax = from.dmax;
  if (from.imin < into->imin) into->imin = from.imin;
  if (from.imax > into->imax) into->imax = from.imax;
}

// Fill per-group accumulators, splitting the rows into morsels when the
// group count is small enough for per-morsel accumulator arrays. Partials
// are merged in morsel order, so floating-point sums are bit-identical at
// any thread count.
template <typename T>
bool Accumulate(const std::vector<T>& vals, const std::vector<oid_t>& gids,
                std::vector<Accum>* accs) {
  size_t n = vals.size();
  size_t ngroups = accs->size();
  size_t grain = AggGrain(n);
  size_t nmorsels = MorselCount(n, grain);
  if (nmorsels <= 1 || ngroups > kMaxParallelGroups) {
    return AccumulateRange(vals, gids, 0, n, accs);
  }
  std::vector<std::vector<Accum>> parts(nmorsels);
  std::vector<uint8_t> ok(nmorsels);
  ThreadPool::Get().ParallelFor(n, grain,
                                [&](size_t m, size_t begin, size_t end) {
                                  parts[m].resize(ngroups);
                                  ok[m] = AccumulateRange(vals, gids, begin,
                                                          end, &parts[m]);
                                });
  if (std::find(ok.begin(), ok.end(), 0) != ok.end()) return false;
  for (const auto& part : parts) {
    for (size_t g = 0; g < ngroups; ++g) {
      MergeAccum(&(*accs)[g], part[g]);
    }
  }
  return true;
}

// Adds one to cnt[id] for every group id g[i] in [begin, end). False at an
// id that is not below `bound`. COUNT(*) is little more than this loop, so
// the ids are checked four at a time: one predictable branch per four rows
// keeps the check off its critical path.
bool CountIds(const oid_t* g, size_t begin, size_t end, size_t bound,
              int64_t* cnt) {
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    oid_t a = g[i], b = g[i + 1], c = g[i + 2], d = g[i + 3];
    if ((a >= bound) | (b >= bound) | (c >= bound) | (d >= bound)) {
      return false;
    }
    cnt[a]++;
    cnt[b]++;
    cnt[c]++;
    cnt[d]++;
  }
  for (; i < end; ++i) {
    if (g[i] >= bound) return false;
    cnt[g[i]]++;
  }
  return true;
}

// Per-group row counts (optionally skipping NULL values), morsel-parallel.
// False at a group id that is not below `ngroups`.
bool CountPerGroup(const std::vector<oid_t>& gids, size_t ngroups,
                   const BAT* vals, std::vector<int64_t>* counts) {
  counts->assign(ngroups, 0);
  size_t n = gids.size();
  size_t grain = AggGrain(n);
  size_t nmorsels = MorselCount(n, grain);
  auto count_range = [&](std::vector<int64_t>* c, size_t begin, size_t end) {
    const oid_t* g = gids.data();
    int64_t* cnt = c->data();
    const size_t bound = ngroups;
    if (vals == nullptr) return CountIds(g, begin, end, bound, cnt);
    for (size_t i = begin; i < end; ++i) {
      if (g[i] >= bound) return false;
      if (!vals->IsNullAt(i)) cnt[g[i]]++;
    }
    return true;
  };
  if (nmorsels <= 1 || ngroups > kMaxParallelGroups) {
    return count_range(counts, 0, n);
  }
  std::vector<std::vector<int64_t>> parts(nmorsels);
  std::vector<uint8_t> ok(nmorsels);
  ThreadPool::Get().ParallelFor(n, grain,
                                [&](size_t m, size_t begin, size_t end) {
                                  parts[m].assign(ngroups, 0);
                                  ok[m] = count_range(&parts[m], begin, end);
                                });
  if (std::find(ok.begin(), ok.end(), 0) != ok.end()) return false;
  for (const auto& part : parts) {
    for (size_t g = 0; g < ngroups; ++g) (*counts)[g] += part[g];
  }
  return true;
}

Status GroupIdOutOfRange(AggOp op, size_t ngroups) {
  return Status::InvalidArgument(
      StrFormat("%s: a group id is not below the group count %zu",
                AggOpName(op), ngroups));
}

}  // namespace

Result<BATPtr> GroupedAggregate(AggOp op, const BAT* vals, const BAT& groups,
                                size_t ngroups) {
  if (groups.type() != PhysType::kOid) {
    return Status::TypeMismatch("GroupedAggregate expects oid groups");
  }
  const auto& gids = groups.oids();

  if (op == AggOp::kCountStar) {
    auto out = BAT::Make(PhysType::kLng);
    if (!CountPerGroup(gids, ngroups, nullptr, &out->lngs())) {
      return GroupIdOutOfRange(op, ngroups);
    }
    return out;
  }

  if (vals == nullptr) {
    return Status::InvalidArgument("aggregate requires a value column");
  }
  if (vals->Count() != gids.size()) {
    return Status::Internal("GroupedAggregate: values misaligned with groups");
  }

  if (op == AggOp::kCount) {
    auto out = BAT::Make(PhysType::kLng);
    if (!CountPerGroup(gids, ngroups, vals, &out->lngs())) {
      return GroupIdOutOfRange(op, ngroups);
    }
    return out;
  }

  if (!IsNumeric(vals->type())) {
    if (op == AggOp::kMin || op == AggOp::kMax) {
      // String min/max: scan with lexicographic compare.
      auto out = vals->CloneStructure();
      out->Reserve(ngroups);
      std::vector<int64_t> best(ngroups, -1);
      for (size_t i = 0; i < gids.size(); ++i) {
        if (gids[i] >= ngroups) return GroupIdOutOfRange(op, ngroups);
        if (vals->IsNullAt(i)) continue;
        int64_t& b = best[gids[i]];
        if (b < 0) {
          b = static_cast<int64_t>(i);
          continue;
        }
        bool lt = vals->GetStr(i) < vals->GetStr(static_cast<size_t>(b));
        if ((op == AggOp::kMin) == lt) b = static_cast<int64_t>(i);
      }
      for (size_t g = 0; g < ngroups; ++g) {
        ScalarValue v = best[g] < 0
                            ? ScalarValue::Null(vals->type())
                            : vals->GetScalar(static_cast<size_t>(best[g]));
        SCIQL_RETURN_NOT_OK(out->Append(v));
      }
      return out;
    }
    return Status::TypeMismatch(
        StrFormat("%s over non-numeric column", AggOpName(op)));
  }

  std::vector<Accum> accs(ngroups);
  bool in_range = false;
  switch (vals->type()) {
    case PhysType::kBit:
      in_range = Accumulate(vals->bits(), gids, &accs);
      break;
    case PhysType::kInt:
      in_range = Accumulate(vals->ints(), gids, &accs);
      break;
    case PhysType::kLng:
      in_range = Accumulate(vals->lngs(), gids, &accs);
      break;
    case PhysType::kDbl:
      in_range = Accumulate(vals->dbls(), gids, &accs);
      break;
    default:
      return Status::Internal("unreachable aggregate type");
  }
  if (!in_range) return GroupIdOutOfRange(op, ngroups);

  bool is_dbl = vals->type() == PhysType::kDbl;
  switch (op) {
    case AggOp::kSum: {
      // Integer sums widen to lng (MonetDB promotes on aggregation).
      auto out = BAT::Make(is_dbl ? PhysType::kDbl : PhysType::kLng);
      out->Reserve(ngroups);
      for (const Accum& a : accs) {
        if (!a.any) {
          SCIQL_RETURN_NOT_OK(out->Append(ScalarValue::Null(out->type())));
        } else if (is_dbl) {
          SCIQL_RETURN_NOT_OK(out->Append(ScalarValue::Dbl(a.dsum)));
        } else {
          SCIQL_RETURN_NOT_OK(out->Append(ScalarValue::Lng(a.isum)));
        }
      }
      return out;
    }
    case AggOp::kAvg: {
      auto out = BAT::Make(PhysType::kDbl);
      out->Reserve(ngroups);
      for (const Accum& a : accs) {
        if (!a.any) {
          SCIQL_RETURN_NOT_OK(out->Append(ScalarValue::Null(PhysType::kDbl)));
        } else {
          SCIQL_RETURN_NOT_OK(out->Append(
              ScalarValue::Dbl(a.dsum / static_cast<double>(a.count))));
        }
      }
      return out;
    }
    case AggOp::kMin:
    case AggOp::kMax: {
      auto out = vals->CloneStructure();
      out->Reserve(ngroups);
      for (const Accum& a : accs) {
        if (!a.any) {
          SCIQL_RETURN_NOT_OK(out->Append(ScalarValue::Null(vals->type())));
          continue;
        }
        ScalarValue v;
        if (is_dbl) {
          v = ScalarValue::Dbl(op == AggOp::kMin ? a.dmin : a.dmax);
        } else {
          v = ScalarValue::Lng(op == AggOp::kMin ? a.imin : a.imax);
        }
        SCIQL_RETURN_NOT_OK(out->Append(v));
      }
      return out;
    }
    default:
      return Status::Internal("unreachable aggregate op");
  }
}

Result<ScalarValue> Aggregate(AggOp op, const BAT& vals) {
  // Ungrouped MIN/MAX on a column with a live order index reads the index
  // endpoints instead of scanning. Any cached spec led by the column
  // qualifies (single-key, or multi-key with this column as its primary —
  // the cache stores canonical specs, so the primary direction is always
  // ascending): nils sort first, so the minimum is the first non-nil entry
  // (the nil prefix boundary is binary-searched — IsNullAt is monotone
  // along the index, even under secondary keys) and the maximum sits in
  // the last tie run. Only a cached index is used; building one would cost
  // a full sort where the scan is O(n).
  if ((op == AggOp::kMin || op == AggOp::kMax) && Controls().use_index_paths &&
      (IsNumeric(vals.type()) || vals.type() == PhysType::kStr)) {
    bool multi_key = false;
    OrderIndexPtr ord_ptr = FindPrimaryOrderIndex(vals, &multi_key);
    if (ord_ptr != nullptr) {
      const std::vector<oid_t>& ord = *ord_ptr;
      auto first_non_nil = std::partition_point(
          ord.begin(), ord.end(),
          [&vals](oid_t row) { return vals.IsNullAt(row); });
      if (first_non_nil == ord.end()) return ScalarValue::Null(vals.type());
      Telemetry().minmax_index++;
      // The scan path keeps the *first-arriving* row among value ties —
      // observable when -0.0 and 0.0 tie. Single-key tie runs are ascending
      // row id (stable sort), so MIN is the first non-nil entry and MAX the
      // first entry of the last run; under a multi-key index the tie run is
      // ordered by the secondary keys instead, so locate the run with
      // partition_point and take its smallest row id.
      if (op == AggOp::kMin) {
        if (!multi_key) return vals.GetScalar(*first_non_nil);
        oid_t min_row = *first_non_nil;
        auto run_hi = std::partition_point(
            first_non_nil, ord.end(), [&vals, min_row](oid_t row) {
              return !RowValueLess(vals, min_row, row);
            });
        return vals.GetScalar(*std::min_element(first_non_nil, run_hi));
      }
      oid_t max_row = ord.back();
      auto run_lo = std::partition_point(
          first_non_nil, ord.end(), [&vals, max_row](oid_t row) {
            return RowValueLess(vals, row, max_row);
          });
      if (!multi_key) return vals.GetScalar(*run_lo);
      return vals.GetScalar(*std::min_element(run_lo, ord.end()));
    }
  }
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids().assign(vals.Count(), 0);
  SCIQL_ASSIGN_OR_RETURN(BATPtr one,
                         GroupedAggregate(op, &vals, *groups, 1));
  return one->GetScalar(0);
}

}  // namespace gdk
}  // namespace sciql
