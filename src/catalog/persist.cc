#include "src/catalog/persist.h"

#include <fstream>
#include <sstream>

#include "src/catalog/schema_io.h"
#include "src/common/codec.h"
#include "src/common/string_util.h"

namespace sciql {
namespace catalog {

namespace {

using gdk::BAT;
using gdk::BATPtr;
using gdk::PhysType;
using gdk::ScalarValue;

constexpr uint32_t kMagic = 0x53514C31;  // "SQL1"
// Version 2 adds a whole-image checksum after the version word. Version 1
// images (no checksum) are still read; new images are always written as v2.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 1;

// ---------------------------------------------------------------------------
// BATs
// ---------------------------------------------------------------------------

void PutBat(ByteWriter* w, const BAT& b) {
  w->PutU32(static_cast<uint32_t>(b.type()));
  w->PutU64(b.Count());
  if (b.type() == PhysType::kStr) {
    // Strings serialize by value; offsets are heap-local.
    for (size_t i = 0; i < b.Count(); ++i) {
      if (b.IsNullAt(i)) {
        w->PutU32(1);
      } else {
        w->PutU32(0);
        w->PutStr(b.GetStr(i));
      }
    }
  } else {
    w->PutBytes(b.TailData(), b.TailByteSize());
  }
}

Result<BATPtr> GetBat(ByteReader* r) {
  SCIQL_ASSIGN_OR_RETURN(uint32_t type, r->U32());
  SCIQL_ASSIGN_OR_RETURN(uint64_t count, r->U64());
  if (type > static_cast<uint32_t>(PhysType::kStr)) {
    return Status::IOError("bad BAT type in catalog image");
  }
  PhysType t = static_cast<PhysType>(type);
  if (t == PhysType::kStr) {
    auto b = BAT::Make(t);
    b->Reserve(std::min<uint64_t>(count, r->remaining()));
    for (uint64_t i = 0; i < count; ++i) {
      SCIQL_ASSIGN_OR_RETURN(uint32_t null_flag, r->U32());
      if (null_flag != 0) {
        SCIQL_RETURN_NOT_OK(b->Append(ScalarValue::Null(PhysType::kStr)));
      } else {
        SCIQL_ASSIGN_OR_RETURN(std::string s, r->Str());
        SCIQL_RETURN_NOT_OK(b->Append(ScalarValue::Str(std::move(s))));
      }
    }
    return b;
  }
  size_t width = t == PhysType::kBit ? 1 : t == PhysType::kInt ? 4 : 8;
  if (count > r->remaining() / width) {
    return Status::IOError("truncated catalog image: BAT payload");
  }
  SCIQL_ASSIGN_OR_RETURN(std::string_view payload, r->Bytes(count * width));
  return BAT::ImportTail(t, payload, count);
}

// Hard plausibility cap on imported array geometry: materializing the
// dimension BATs of a deserialized array allocates ncells values per
// dimension, so an (unchecksummed v1) image with a bit-flipped range could
// otherwise demand terabytes and die on bad_alloc instead of returning a
// Status. Any image this large could not have been produced by a catalog
// that fit in memory.
constexpr uint64_t kMaxImportCells = 1ull << 28;

}  // namespace

Result<std::string> SerializeCatalog(const Catalog& cat) {
  std::string payload;
  ByteWriter w(&payload);

  std::vector<std::string> tables = cat.TableNames();
  std::vector<std::string> arrays = cat.ArrayNames();
  w.PutU64(tables.size());
  w.PutU64(arrays.size());

  for (const std::string& name : tables) {
    SCIQL_ASSIGN_OR_RETURN(auto tab, cat.GetTable(name));
    w.PutStr(tab->name);
    w.PutU64(tab->columns.size());
    for (const auto& c : tab->columns) PutAttrDesc(&w, c);
    for (const auto& b : tab->bats) PutBat(&w, *b);
  }
  for (const std::string& name : arrays) {
    SCIQL_ASSIGN_OR_RETURN(auto arr, cat.GetArray(name));
    w.PutStr(arr->name);
    w.PutU64(arr->desc.ndims());
    for (const auto& d : arr->desc.dims()) PutDimDesc(&w, d);
    w.PutU64(arr->desc.nattrs());
    for (const auto& a : arr->desc.attrs()) PutAttrDesc(&w, a);
    // Only attribute BATs are stored; dimension BATs rematerialize.
    for (const auto& b : arr->attr_bats) PutBat(&w, *b);
  }

  std::string out;
  ByteWriter h(&out);
  h.PutU32(kMagic);
  h.PutU32(kVersion);
  h.PutU64(Checksum64(payload));
  out += payload;
  return out;
}

Status DeserializeCatalog(Catalog* cat, const std::string& bytes) {
  if (!cat->TableNames().empty() || !cat->ArrayNames().empty()) {
    return Status::InvalidArgument("target catalog is not empty");
  }
  ByteReader r(bytes);
  SCIQL_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kMagic) return Status::IOError("not a sciql catalog image");
  SCIQL_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version < kMinVersion || version > kVersion) {
    return Status::IOError(
        StrFormat("unsupported catalog version %u", version));
  }
  if (version >= 2) {
    SCIQL_ASSIGN_OR_RETURN(uint64_t checksum, r.U64());
    std::string_view payload(bytes.data() + r.pos(), bytes.size() - r.pos());
    if (Checksum64(payload) != checksum) {
      return Status::IOError("catalog image checksum mismatch");
    }
  }
  SCIQL_ASSIGN_OR_RETURN(uint64_t ntables, r.U64());
  SCIQL_ASSIGN_OR_RETURN(uint64_t narrays, r.U64());

  for (uint64_t t = 0; t < ntables; ++t) {
    SCIQL_ASSIGN_OR_RETURN(std::string name, r.Str());
    SCIQL_ASSIGN_OR_RETURN(uint64_t ncols, r.U64());
    if (ncols > r.remaining()) {
      return Status::IOError("truncated catalog image: column count");
    }
    std::vector<array::AttrDesc> cols;
    for (uint64_t c = 0; c < ncols; ++c) {
      SCIQL_ASSIGN_OR_RETURN(array::AttrDesc a, GetAttrDesc(&r));
      cols.push_back(std::move(a));
    }
    SCIQL_RETURN_NOT_OK(cat->CreateTable(name, cols));
    SCIQL_ASSIGN_OR_RETURN(auto tab, cat->GetTable(name));
    size_t nrows = 0;
    for (uint64_t c = 0; c < ncols; ++c) {
      SCIQL_ASSIGN_OR_RETURN(BATPtr b, GetBat(&r));
      if (b->type() != tab->columns[c].type) {
        return Status::IOError("column type mismatch in catalog image");
      }
      if (c == 0) {
        nrows = b->Count();
      } else if (b->Count() != nrows) {
        return Status::IOError("column length mismatch in catalog image");
      }
      tab->bats[c] = b;
    }
  }
  for (uint64_t a = 0; a < narrays; ++a) {
    SCIQL_ASSIGN_OR_RETURN(std::string name, r.Str());
    SCIQL_ASSIGN_OR_RETURN(uint64_t ndims, r.U64());
    if (ndims > r.remaining()) {
      return Status::IOError("truncated catalog image: dimension count");
    }
    std::vector<array::DimDesc> dims;
    for (uint64_t d = 0; d < ndims; ++d) {
      SCIQL_ASSIGN_OR_RETURN(array::DimDesc dim, GetDimDesc(&r));
      dims.push_back(std::move(dim));
    }
    SCIQL_ASSIGN_OR_RETURN(uint64_t nattrs, r.U64());
    if (nattrs > r.remaining()) {
      return Status::IOError("truncated catalog image: attribute count");
    }
    std::vector<array::AttrDesc> attrs;
    for (uint64_t c = 0; c < nattrs; ++c) {
      SCIQL_ASSIGN_OR_RETURN(array::AttrDesc ad, GetAttrDesc(&r));
      attrs.push_back(std::move(ad));
    }
    // Geometry plausibility: CreateArray materializes ncells values per
    // dimension, so validate the (overflow-safe) cell count before letting a
    // corrupt range turn into a giant allocation.
    uint64_t ncells = 1;
    for (const array::DimDesc& d : dims) {
      if (d.range.step == 0) {
        return Status::IOError("malformed dimension range in catalog image");
      }
      // Images written before dimension values were confined to INT may
      // hold ranges the engine would materialize truncated.
      SCIQL_RETURN_NOT_OK(d.range.Validate());
      uint64_t sz = d.range.Size();  // overflow-safe for any int64 range
      if (sz != 0 && ncells > kMaxImportCells / sz) {
        return Status::IOError("implausible array geometry in catalog image");
      }
      ncells *= sz;
    }
    if (nattrs > 0 && ncells > r.remaining()) {
      // Each attribute row costs at least one payload byte, so a cell count
      // beyond the remaining bytes cannot be backed by real data.
      return Status::IOError("array larger than its catalog image");
    }
    SCIQL_RETURN_NOT_OK(cat->CreateArray(
        name, array::ArrayDesc(std::move(dims), std::move(attrs))));
    SCIQL_ASSIGN_OR_RETURN(auto arr, cat->GetArray(name));
    for (uint64_t c = 0; c < nattrs; ++c) {
      SCIQL_ASSIGN_OR_RETURN(BATPtr b, GetBat(&r));
      if (b->Count() != arr->CellCount()) {
        return Status::IOError("attribute size mismatch in catalog image");
      }
      arr->attr_bats[c] = b;
    }
  }
  if (!r.AtEnd()) {
    return Status::IOError("trailing bytes in catalog image");
  }
  return Status::OK();
}

Status SaveCatalog(const Catalog& cat, const std::string& path) {
  SCIQL_ASSIGN_OR_RETURN(std::string bytes, SerializeCatalog(cat));
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError(StrFormat("cannot write %s", path.c_str()));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError(StrFormat("short write to %s", path.c_str()));
  return Status::OK();
}

Status LoadCatalog(Catalog* cat, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  std::ostringstream ss;
  ss << in.rdbuf();
  return DeserializeCatalog(cat, ss.str());
}

}  // namespace catalog
}  // namespace sciql
