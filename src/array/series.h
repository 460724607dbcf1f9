// The paper's two new MAL primitives that materialise arrays (Sec. 3):
//
//   command array.series(start,step,stop,N,M) :bat[:oid,:int]
//   pattern array.filler(cnt, v:any_1)        :bat[:oid,:any_1]
//
// plus the positional helpers used to address cells (cell positions from
// dimension values, scatter of row data into cell positions).

#ifndef SCIQL_ARRAY_SERIES_H_
#define SCIQL_ARRAY_SERIES_H_

#include <vector>

#include "src/array/descriptor.h"
#include "src/common/result.h"
#include "src/gdk/bat.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace array {

/// \brief Materialise a dimension column: the values of `range`, each value
/// repeated `repeat_each` times consecutively, the whole sequence tiled
/// `repeat_group` times (the N and M of the paper's array.series).
gdk::BATPtr Series(const DimRange& range, size_t repeat_each,
                   size_t repeat_group);

/// \brief Materialise an attribute column: `count` copies of `v`
/// (the paper's array.filler).
gdk::BATPtr Filler(size_t count, const gdk::ScalarValue& v);

/// \brief Materialise dimension BAT `d` of the array: repetition factors are
/// derived from the position of the dimension, exactly as in Figure 3.
gdk::BATPtr MaterializeDim(const ArrayDesc& desc, size_t d);

/// \brief Linear cell positions for per-row dimension values.
///
/// `dim_vals[d]` holds the value column for dimension d; all columns must be
/// aligned. Rows whose values fall outside the array (or are NULL) yield the
/// nil oid, which downstream Project() turns into NULL — this implements the
/// paper's "cells outside the array dimension ranges are ignored" rule for
/// relative cell addressing.
Result<gdk::BATPtr> CellPositions(const ArrayDesc& desc,
                                  const std::vector<const gdk::BAT*>& dim_vals);

/// \brief One dimension predicate `dims()[dim] op bound` of a slab.
struct DimBound {
  size_t dim = 0;
  gdk::CmpOp op = gdk::CmpOp::kEq;  ///< kEq/kLt/kLe/kGt/kGe; never kNe
  gdk::ScalarValue bound;           ///< numeric or NULL
};

/// \brief The cells whose dimension values satisfy every bound, as ascending
/// oids: the rows a scan of the dimension columns would select, computed by
/// index arithmetic in O(cells selected) instead of O(cells in the array).
///
/// Each bound becomes an exact inclusive int64 value interval (comparisons
/// against a DOUBLE round like the scan's promoted compare; a NULL bound
/// selects nothing), which maps onto an index interval of the dimension for
/// either step sign; off-grid values and empty intersections yield no cells.
Result<gdk::BATPtr> SlabPositions(const ArrayDesc& desc,
                                  const std::vector<DimBound>& bounds);

/// \brief Scatter row values into an attribute BAT at given cell positions
/// (nil positions are skipped). Implements array INSERT-as-overwrite and
/// UPDATE semantics.
Status ScatterIntoAttr(gdk::BAT* attr, const gdk::BAT& positions,
                       const gdk::BAT& values);

/// \brief Scatter one scalar into an attribute BAT at given cell positions.
Status ScatterConstIntoAttr(gdk::BAT* attr, const gdk::BAT& positions,
                            const gdk::ScalarValue& v);

}  // namespace array
}  // namespace sciql

#endif  // SCIQL_ARRAY_SERIES_H_
