// Vectorized kernel operations over BATs: selection, projection, joins,
// grouping, aggregation, elementwise calculation and sorting.
//
// These are the GDK-level primitives the MAL interpreter dispatches to; they
// correspond to MonetDB's algebra.*, batcalc.*, group.* and aggr.* modules.

#ifndef SCIQL_GDK_KERNELS_H_
#define SCIQL_GDK_KERNELS_H_

#include <atomic>
#include <vector>

#include "src/common/result.h"
#include "src/gdk/bat.h"

namespace sciql {
namespace gdk {

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

/// \brief Comparison operators used by theta-selects and calc.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// \brief Positions (candidates) where the bit BAT holds true (1).
///
/// `cands`, if non-null, restricts and indirects: `bits` is aligned with
/// `cands` and the emitted oids come from `cands`' tail.
Result<BATPtr> BoolSelect(const BAT& bits, const BAT* cands);

/// \brief Positions where `b[i] op v` holds (NULLs never match).
Result<BATPtr> ThetaSelect(const BAT& b, const BAT* cands, CmpOp op,
                           const ScalarValue& v);

/// \brief Positions in [lo, hi] / [lo, hi) etc. of `b` (numeric only).
Result<BATPtr> RangeSelect(const BAT& b, const BAT* cands,
                           const ScalarValue& lo, const ScalarValue& hi,
                           bool lo_incl, bool hi_incl);

/// \brief Positions where b is (not) nil.
Result<BATPtr> NullSelect(const BAT& b, const BAT* cands, bool select_null);

/// \brief The smallest int64 `v` with `v >= bound` (`incl`) or `v > bound`,
/// computed exactly: integer bounds never pass through a double and double
/// bounds round with ceil, so 64-bit values compare precisely beyond 2^53.
/// Returns false when no int64 qualifies (a NaN or too-large bound).
bool LowerBoundLng(const ScalarValue& bound, bool incl, int64_t* out);

/// \brief The largest int64 `v` with `v <= bound` (`incl`) or `v < bound`;
/// mirror of LowerBoundLng with floor.
bool UpperBoundLng(const ScalarValue& bound, bool incl, int64_t* out);

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

/// \brief Gather: out[i] = b[positions[i]]. A nil position yields NULL.
///
/// This is MonetDB's algebra.projection (positional fetch-join).
Result<BATPtr> Project(const BAT& b, const BAT& positions);

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// \brief Matching row-id pairs of an equi-join (hash join; NULLs never match).
struct JoinResult {
  BATPtr left;
  BATPtr right;
};

Result<JoinResult> HashJoin(const BAT& l, const BAT& r);

/// \brief Multi-key equi-join: rows match when all key columns match
/// pairwise (NULL never matches). `lkeys[i]` joins against `rkeys[i]`.
Result<JoinResult> HashJoinMulti(const std::vector<const BAT*>& lkeys,
                                 const std::vector<const BAT*>& rkeys);

/// \brief All nl*nr pairs, left-major.
JoinResult CrossJoin(size_t nl, size_t nr);

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

/// \brief Result of (refining) a grouping: per-row group ids, one
/// representative row per group, and the group count.
struct GroupResult {
  BATPtr groups;   ///< oid BAT: row -> group id (0..ngroups-1)
  BATPtr extents;  ///< oid BAT: group id -> first row of the group
  size_t ngroups = 0;
};

/// \brief Group rows of `b` by tail value, optionally refining an existing
/// grouping (`prev`, with `prev_ngroups` groups). NULLs form a group.
Result<GroupResult> Group(const BAT& b, const BAT* prev, size_t prev_ngroups);

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

enum class AggOp { kCount, kCountStar, kSum, kAvg, kMin, kMax };

const char* AggOpName(AggOp op);

/// \brief Grouped aggregate: one output row per group id in [0, ngroups).
///
/// `vals` must be aligned with `groups` (ignored for kCountStar). NULLs are
/// skipped; empty/all-NULL groups yield NULL (COUNT yields 0).
Result<BATPtr> GroupedAggregate(AggOp op, const BAT* vals, const BAT& groups,
                                size_t ngroups);

/// \brief Ungrouped aggregate over the whole BAT.
Result<ScalarValue> Aggregate(AggOp op, const BAT& vals);

// ---------------------------------------------------------------------------
// Elementwise calculation (batcalc)
// ---------------------------------------------------------------------------

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};
enum class UnOp { kNeg, kNot, kIsNull, kAbs };

const char* BinOpName(BinOp op);
const char* UnOpName(UnOp op);

/// \brief Elementwise binary operation. Exactly one of {lb,ls} and one of
/// {rb,rs} must be set; BAT operands must have equal length.
///
/// Arithmetic promotes bit<int<lng<dbl and propagates NULL. Comparisons yield
/// bit with NULL for NULL inputs; kAnd/kOr use SQL three-valued logic.
/// Integer division/modulo by zero is an execution error.
Result<BATPtr> CalcBinary(BinOp op, const BAT* lb, const ScalarValue* ls,
                          const BAT* rb, const ScalarValue* rs);

/// \brief Scalar-scalar variant of CalcBinary.
Result<ScalarValue> CalcBinaryScalar(BinOp op, const ScalarValue& l,
                                     const ScalarValue& r);

Result<BATPtr> CalcUnary(UnOp op, const BAT& b);
Result<ScalarValue> CalcUnaryScalar(UnOp op, const ScalarValue& v);

/// \brief out[i] = cond[i]==true ? then[i] : else[i] (NULL cond selects else).
/// Arms may be scalars (broadcast) or BATs aligned with `cond`.
Result<BATPtr> IfThenElse(const BAT& cond, const BAT* tb, const ScalarValue* ts,
                          const BAT* eb, const ScalarValue* es);

/// \brief Cast every row to `to` (numeric conversions only).
Result<BATPtr> CastBat(const BAT& b, PhysType to);

// ---------------------------------------------------------------------------
// Sorting
// ---------------------------------------------------------------------------

/// \brief Stable order index over one or more aligned key columns.
/// NULLs sort first on ascending keys (MonetDB: nil is smallest).
///
/// Runs morsel-parallel: fixed ranges are sorted concurrently and combined
/// by a deterministic merge tree, and the comparator is a total order
/// (row id breaks ties), so the result is the unique stable permutation —
/// bit-identical at any thread count. A single ascending key reuses (and
/// populates) the key BAT's persistent order index.
Result<BATPtr> OrderIndex(const std::vector<const BAT*>& keys,
                          const std::vector<bool>& desc);

/// \brief Materialized stable sort of `b` (OrderIndex + Project).
Result<BATPtr> SortBat(const BAT& b, bool desc);

/// \brief Top-k: the first `k` entries of the stable order index over the
/// key columns, without materializing the full sort.
///
/// Output is bit-identical to OrderIndex(keys, desc) truncated to k rows, at
/// any thread count: per-morsel bounded heaps keep each morsel's k best rows
/// under the total order (row id breaks ties), and the deterministic merge of
/// the candidate sets yields the unique global first-k. A single ascending
/// key with a live persistent order index short-circuits to an O(k) window
/// copy of the index head; k >= n/2 (or k near the morsel grain on
/// multi-morsel inputs) falls back to the full sort — the heaps would
/// retain nearly every row anyway. All gates depend only on data shape,
/// never the thread count.
Result<BATPtr> FirstN(const std::vector<const BAT*>& keys,
                      const std::vector<bool>& desc, size_t k);

/// \brief The persistent ascending (nil-first) stable order index of `b`:
/// returns the cached index or builds and caches it (see BAT::order_index
/// for the invalidation lifecycle). Reused by ORDER BY, RangeSelect and the
/// ordered join probe.
Result<OrderIndexPtr> EnsureOrderIndex(const BAT& b);

/// \brief Spec-aware index cache entry point: the stable order index for
/// `keys`/`desc`, served from the keyed persistent cache on keys[0].
///
/// Only the *canonical* spec (primary key ascending) is ever built and
/// cached — a spec with desc[0] set is served from the canonical index of
/// the fully negated spec by run reversal: equal-key runs reverse as blocks
/// while keeping ascending row ids inside each run, so the result is the
/// negated spec's unique stable permutation (in particular the nil block —
/// nil is smallest — relocates to the tail: DESC emits nils last). No
/// second sort, ever. Exact cache hits count order_index_reused, reversals
/// order_index_reversed, fresh sorts order_index_built.
Result<OrderIndexPtr> EnsureOrderIndexSpec(const std::vector<BATPtr>& keys,
                                           const std::vector<bool>& desc);

/// \brief Any live cached order index whose primary key is `b`: the
/// single-key ascending index if present, else a multi-key entry (canonical,
/// so the primary direction is always ascending, nils first). Used by
/// RangeSelect and ungrouped MIN/MAX, which only need the primary ordering.
/// `multi_key`, if non-null, reports whether the returned index carries
/// secondary keys (its tie runs are then secondary-ordered, not row-id
/// ordered).
OrderIndexPtr FindPrimaryOrderIndex(const BAT& b, bool* multi_key = nullptr);

/// \brief Nil-first lexicographic tuple compare of row `ai` of `akeys`
/// against row `bi` of `bkeys` (key types must match pairwise): the
/// per-column order the sort's key encodings induce — nil below every
/// value, nil equal to nil, -0.0 tying 0.0, strings by content. Shared by
/// the merge-join run machinery and the run-reversal of cached indexes so
/// the two tie relations can never drift apart.
int CompareKeyRows(const std::vector<const BAT*>& akeys, oid_t ai,
                   const std::vector<const BAT*>& bkeys, oid_t bi);

/// \brief True iff `idx` is exactly the stable ascending (nil-first) order
/// permutation of `b` — the permutation EnsureOrderIndex would build. Used to
/// revalidate order indexes loaded from disk: the total order (row id breaks
/// ties) makes the valid index unique, so an O(n) permutation-plus-adjacency
/// check suffices.
bool ValidateOrderIndex(const BAT& b, const std::vector<oid_t>& idx);

/// \brief Spec generalization of ValidateOrderIndex: true iff `idx` is the
/// stable order permutation of the aligned key columns under `desc`.
bool ValidateOrderIndexSpec(const std::vector<const BAT*>& keys,
                            const std::vector<bool>& desc,
                            const std::vector<oid_t>& idx);

// ---------------------------------------------------------------------------
// Execution introspection
// ---------------------------------------------------------------------------

/// \brief Counters recording which physical strategy the index-aware kernels
/// chose. Atomic and strictly monotonic: concurrent reader sessions all bump
/// the same process-wide instance, and nothing may ever zero it — a scrape or
/// a second session would observe the reset. Consumers that need per-scope
/// attribution (tests, the fuzz oracle, per-instruction statement traces)
/// capture a TelemetrySnapshot before and diff with DeltaSince after.
struct KernelTelemetry {
  std::atomic<uint64_t> joins_hash{0};  ///< hash build + probe joins
  std::atomic<uint64_t> joins_indexed_probe{0};  ///< one-sided index joins
  std::atomic<uint64_t> joins_merge{0};  ///< both-sides-indexed merge joins
  std::atomic<uint64_t> joins_merge_str{0};    ///< ... of which string-keyed
  std::atomic<uint64_t> joins_merge_multi{0};  ///< ... of which multi-key
  std::atomic<uint64_t> firstn_index_window{0};  ///< index head copy
  std::atomic<uint64_t> firstn_heap{0};  ///< FirstN via per-morsel heaps
  std::atomic<uint64_t> firstn_sort_fallback{0};  ///< full sort (k >= n/2)
  std::atomic<uint64_t> minmax_index{0};  ///< MIN/MAX from index endpoints
  // Per-spec cache counters: every build/load/reuse also counts in the
  // *_multi variant when the spec has more than one key column.
  std::atomic<uint64_t> order_index_built{0};  ///< indexes sorted anew
  std::atomic<uint64_t> order_index_built_multi{0};
  std::atomic<uint64_t> order_index_loaded{0};  ///< adopted from disk
  std::atomic<uint64_t> order_index_loaded_multi{0};
  std::atomic<uint64_t> order_index_reused{0};  ///< exact-spec cache hits
  std::atomic<uint64_t> order_index_reused_multi{0};
  std::atomic<uint64_t> order_index_reversed{0};  ///< run-reversal serves
  std::atomic<uint64_t> order_index_reversed_multi{0};
  std::atomic<uint64_t> dim_slab_selects{0};  ///< cell sets from array.slab

  KernelTelemetry() = default;
  KernelTelemetry(const KernelTelemetry&) = delete;
  KernelTelemetry& operator=(const KernelTelemetry&) = delete;
};

/// \brief The process-wide telemetry counters.
KernelTelemetry& Telemetry();

/// \brief A plain-integer copy of KernelTelemetry, field for field. Either an
/// absolute capture (CaptureTelemetry) or a delta between two captures
/// (DeltaSince / TelemetryProbe::delta). Freely copyable; this is what tests
/// and the fuzz oracle store in maps.
struct TelemetrySnapshot {
  uint64_t joins_hash = 0;
  uint64_t joins_indexed_probe = 0;
  uint64_t joins_merge = 0;
  uint64_t joins_merge_str = 0;
  uint64_t joins_merge_multi = 0;
  uint64_t firstn_index_window = 0;
  uint64_t firstn_heap = 0;
  uint64_t firstn_sort_fallback = 0;
  uint64_t minmax_index = 0;
  uint64_t order_index_built = 0;
  uint64_t order_index_built_multi = 0;
  uint64_t order_index_loaded = 0;
  uint64_t order_index_loaded_multi = 0;
  uint64_t order_index_reused = 0;
  uint64_t order_index_reused_multi = 0;
  uint64_t order_index_reversed = 0;
  uint64_t order_index_reversed_multi = 0;
  uint64_t dim_slab_selects = 0;
};

/// \brief One entry of the counter catalog: the stable field name plus
/// member pointers into both the live struct and the snapshot, so capture,
/// accumulation and metric registration all iterate one table instead of
/// hand-listing every field.
struct TelemetryField {
  const char* name;
  const char* help;
  std::atomic<uint64_t> KernelTelemetry::*live;
  uint64_t TelemetrySnapshot::*snap;
};

/// \brief The full counter catalog, in declaration order.
const std::vector<TelemetryField>& TelemetryFields();

/// \brief Relaxed capture of the process-wide counters.
TelemetrySnapshot CaptureTelemetry();

/// \brief Field-wise `CaptureTelemetry() - base` (counters are monotonic, so
/// every field of the result is the activity since `base` was captured —
/// plus whatever concurrent sessions did meanwhile; single-threaded scopes
/// attribute exactly).
TelemetrySnapshot DeltaSince(const TelemetrySnapshot& base);

/// \brief Scoped attribution helper: captures a baseline at construction (or
/// Rebase()), reports the activity since then via delta(). The replacement
/// for the removed KernelTelemetry::Reset() — probes never touch the global.
class TelemetryProbe {
 public:
  TelemetryProbe() : base_(CaptureTelemetry()) {}

  /// \brief Move the baseline to "now".
  void Rebase() { base_ = CaptureTelemetry(); }

  /// \brief Counter activity since construction / the last Rebase().
  TelemetrySnapshot delta() const { return DeltaSince(base_); }

 private:
  TelemetrySnapshot base_;
};

/// \brief Process-wide switches steering physical-path selection. The
/// differential fuzzer (src/fuzz/, docs/fuzzing.md) flips these to drive the
/// same query down redundant paths and diff the results bit-for-bit; tests
/// combine them with KernelTelemetry to *verify* the intended path fired.
/// The engine drives kernels from one thread, so plain bools suffice.
struct KernelControls {
  /// When false, the index-aware consumers — join probe/merge paths,
  /// FirstN's index-window copy, RangeSelect's binary-searched window and
  /// ungrouped MIN/MAX endpoint reads — ignore cached order indexes and
  /// take their scan/hash/heap fallbacks, as if every index were dropped.
  /// Index *building* (algebra.orderidx / EnsureOrderIndexSpec) is
  /// unaffected: ORDER BY itself still works and still populates the cache.
  bool use_index_paths = true;

  void Reset() { *this = KernelControls{}; }
};

/// \brief The process-wide kernel controls.
KernelControls& Controls();

}  // namespace gdk
}  // namespace sciql

#endif  // SCIQL_GDK_KERNELS_H_
