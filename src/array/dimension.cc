#include "src/array/dimension.h"

#include <limits>

#include "src/common/string_util.h"

namespace sciql {
namespace array {

namespace {

// |step| as an unsigned magnitude (no INT64_MIN negation UB).
uint64_t StepMagnitude(int64_t step) {
  return step > 0 ? static_cast<uint64_t>(step)
                  : ~static_cast<uint64_t>(step) + 1;
}

// Distance from start to stop along the direction of step, or 0 when the
// range is empty. Exact for every int64 pair: the subtraction is done in
// uint64 only once the sign is known.
uint64_t Span(const DimRange& r) {
  if (r.step > 0) {
    return r.stop > r.start ? static_cast<uint64_t>(r.stop) -
                                  static_cast<uint64_t>(r.start)
                            : 0;
  }
  return r.stop < r.start ? static_cast<uint64_t>(r.start) -
                                static_cast<uint64_t>(r.stop)
                          : 0;
}

}  // namespace

Status DimRange::Validate() const {
  if (step == 0) {
    return Status::InvalidArgument("dimension step must not be zero");
  }
  uint64_t span = Span(*this);
  if (span == 0) return Status::OK();  // no values to materialize
  // Dimension values materialize as INT (array::Series); INT_MIN is the
  // NULL sentinel, so a value must lie in [INT_MIN + 1, INT_MAX]. The range
  // is monotone, so checking its first and last values covers all of them.
  constexpr int64_t kMin = std::numeric_limits<int32_t>::min() + int64_t{1};
  constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
  uint64_t last_idx = (span - 1) / StepMagnitude(step);
  bool fits = start >= kMin && start <= kMax;
  if (fits) {
    // Largest index whose value stays inside INT in the step's direction.
    uint64_t room = step > 0 ? static_cast<uint64_t>(kMax - start)
                             : static_cast<uint64_t>(start - kMin);
    fits = last_idx <= room / StepMagnitude(step);
  }
  if (!fits) {
    return Status::InvalidArgument(
        StrFormat("dimension range %s has values outside INT",
                  ToString().c_str()));
  }
  return Status::OK();
}

size_t DimRange::Size() const {
  if (step == 0) return 0;
  uint64_t span = Span(*this);
  uint64_t st = StepMagnitude(step);
  return static_cast<size_t>(span / st + (span % st != 0 ? 1 : 0));
}

bool DimRange::Contains(int64_t v) const { return IndexOfOrNeg(v) >= 0; }

int64_t DimRange::IndexOfOrNeg(int64_t v) const {
  // Range check first: only then is the distance from start known to fit.
  uint64_t delta;
  if (step > 0) {
    if (v < start || v >= stop) return -1;
    delta = static_cast<uint64_t>(v) - static_cast<uint64_t>(start);
  } else {
    if (v > start || v <= stop) return -1;
    delta = static_cast<uint64_t>(start) - static_cast<uint64_t>(v);
  }
  uint64_t st = StepMagnitude(step);
  if (delta % st != 0) return -1;
  return static_cast<int64_t>(delta / st);
}

Result<size_t> DimRange::IndexOf(int64_t v) const {
  int64_t idx = IndexOfOrNeg(v);
  if (idx < 0) {
    return Status::OutOfRange(
        StrFormat("value %lld not in dimension range %s",
                  static_cast<long long>(v), ToString().c_str()));
  }
  return static_cast<size_t>(idx);
}

std::string DimRange::ToString() const {
  return StrFormat("[%lld:%lld:%lld]", static_cast<long long>(start),
                   static_cast<long long>(step), static_cast<long long>(stop));
}

}  // namespace array
}  // namespace sciql
