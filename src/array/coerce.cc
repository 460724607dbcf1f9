#include "src/array/coerce.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/array/series.h"
#include "src/common/string_util.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace array {

using gdk::BAT;
using gdk::BATPtr;
using gdk::PhysType;
using gdk::ScalarValue;

Result<DimRange> DeriveRange(const gdk::BAT& dim_vals) {
  if (dim_vals.type() != PhysType::kInt && dim_vals.type() != PhysType::kLng) {
    return Status::TypeMismatch("dimension columns must be integers");
  }
  std::vector<int64_t> vals;
  vals.reserve(dim_vals.Count());
  for (size_t i = 0; i < dim_vals.Count(); ++i) {
    if (dim_vals.IsNullAt(i)) {
      return Status::InvalidArgument("NULL in a dimension column");
    }
    vals.push_back(dim_vals.type() == PhysType::kInt ? dim_vals.ints()[i]
                                                     : dim_vals.lngs()[i]);
  }
  if (vals.empty()) {
    return Status::InvalidArgument(
        "cannot derive a dimension range from an empty column");
  }
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  int64_t lo = vals.front();
  int64_t hi = vals.back();
  // Dimension values materialize as INT (DimRange::Validate); checking the
  // extremes first also keeps the step arithmetic below in range.
  if (lo <= gdk::kIntNil || hi > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(
        StrFormat("dimension values [%lld, %lld] fall outside INT",
                  static_cast<long long>(lo), static_cast<long long>(hi)));
  }
  if (vals.size() == 1) return DimRange(lo, 1, lo + 1);
  int64_t step = 0;
  for (size_t i = 1; i < vals.size(); ++i) {
    step = std::gcd(step, vals[i] - vals[i - 1]);
  }
  if (step == 0) step = 1;
  return DimRange(lo, step, hi + step);
}

Result<MaterializedArray> TableToArray(
    const std::vector<const gdk::BAT*>& dim_cols,
    const std::vector<std::string>& dim_names,
    const std::vector<const gdk::BAT*>& attr_cols,
    const std::vector<std::string>& attr_names,
    const std::vector<gdk::ScalarValue>& attr_defaults) {
  if (dim_cols.empty()) {
    return Status::InvalidArgument("an array needs at least one dimension");
  }
  if (dim_cols.size() != dim_names.size() ||
      attr_cols.size() != attr_names.size() ||
      attr_cols.size() != attr_defaults.size()) {
    return Status::Internal("TableToArray: argument arity mismatch");
  }
  size_t nrows = dim_cols[0]->Count();
  for (const gdk::BAT* b : dim_cols) {
    if (b->Count() != nrows) {
      return Status::Internal("TableToArray: misaligned dimension columns");
    }
  }
  for (const gdk::BAT* b : attr_cols) {
    if (b->Count() != nrows) {
      return Status::Internal("TableToArray: misaligned attribute columns");
    }
  }

  MaterializedArray out;
  for (size_t d = 0; d < dim_cols.size(); ++d) {
    SCIQL_ASSIGN_OR_RETURN(DimRange r, DeriveRange(*dim_cols[d]));
    out.desc.mutable_dims()->push_back(DimDesc{dim_names[d], r, true});
  }
  for (size_t a = 0; a < attr_cols.size(); ++a) {
    AttrDesc ad;
    ad.name = attr_names[a];
    ad.type = attr_cols[a]->type();
    ad.default_value = attr_defaults[a];
    out.desc.mutable_attrs()->push_back(ad);
  }

  size_t ncells = out.desc.CellCount();
  if (ncells > (1ull << 28)) {
    return Status::OutOfRange(
        StrFormat("derived array would have %zu cells", ncells));
  }
  for (size_t d = 0; d < out.desc.ndims(); ++d) {
    out.dim_bats.push_back(MaterializeDim(out.desc, d));
  }
  SCIQL_ASSIGN_OR_RETURN(BATPtr pos, CellPositions(out.desc, dim_cols));
  for (size_t a = 0; a < attr_cols.size(); ++a) {
    BATPtr attr = Filler(ncells, attr_defaults[a].is_null
                                     ? ScalarValue::Null(attr_cols[a]->type())
                                     : attr_defaults[a]);
    // Defaults may be typed differently (e.g. int default for a dbl column).
    if (attr->type() != attr_cols[a]->type()) {
      SCIQL_ASSIGN_OR_RETURN(attr, gdk::CastBat(*attr, attr_cols[a]->type()));
    }
    SCIQL_RETURN_NOT_OK(ScatterIntoAttr(attr.get(), *pos, *attr_cols[a]));
    out.attr_bats.push_back(attr);
  }
  return out;
}

}  // namespace array
}  // namespace sciql
