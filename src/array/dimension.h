// Dimension ranges: the [start:step:stop) constraint of a SciQL dimension.
//
// A SciQL dimension is "a measurement of the size of the array in a
// particular named direction" with an optional range constraint
// [<start>:<step>:<stop>], the interval being right-open (paper Sec. 2).

#ifndef SCIQL_ARRAY_DIMENSION_H_
#define SCIQL_ARRAY_DIMENSION_H_

#include <cstdint>
#include <string>

#include "src/common/result.h"

namespace sciql {
namespace array {

/// \brief A right-open arithmetic progression [start, stop) with stride step.
///
/// `step` may be negative (the progression then descends and `stop < start`);
/// it must never be zero. Valid dimension values are
/// start, start+step, ..., the last one strictly before stop.
struct DimRange {
  int64_t start = 0;
  int64_t step = 1;
  int64_t stop = 0;

  DimRange() = default;
  DimRange(int64_t start_in, int64_t step_in, int64_t stop_in)
      : start(start_in), step(step_in), stop(stop_in) {}

  /// \brief Validate step != 0 and that every value fits INT (dimension
  /// columns materialize as INT; INT_MIN is its NULL sentinel).
  Status Validate() const;

  /// \brief Number of valid dimension values.
  size_t Size() const;

  /// \brief The dimension value at position `idx` (0-based). No bounds check.
  int64_t ValueAt(size_t idx) const {
    return start + static_cast<int64_t>(idx) * step;
  }

  /// \brief True if `v` is a valid dimension value (inside the range and on
  /// the stride grid).
  bool Contains(int64_t v) const;

  /// \brief Position of dimension value `v`, or OutOfRange.
  Result<size_t> IndexOf(int64_t v) const;

  /// \brief Position of `v` if valid, otherwise -1 (no Status overhead; used
  /// by hot cell-addressing loops).
  int64_t IndexOfOrNeg(int64_t v) const;

  /// \brief "[start:step:stop]" as written in SciQL DDL.
  std::string ToString() const;

  bool operator==(const DimRange& o) const {
    return start == o.start && step == o.step && stop == o.stop;
  }
};

}  // namespace array
}  // namespace sciql

#endif  // SCIQL_ARRAY_DIMENSION_H_
