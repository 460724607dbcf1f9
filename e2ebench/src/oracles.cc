#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {
namespace {

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

int64_t I(double v) { return static_cast<int64_t>(std::llround(v)); }

/// Rows keyed by the integer value of their first two columns.
std::string RowsByKey(const Rows& got, size_t width,
                      std::map<std::pair<int64_t, int64_t>, const std::vector<double>*>* out) {
  for (const auto& r : got) {
    if (r.size() != width) return Fmt("row has %g columns, want %g", r.size(), width);
    if (std::isnan(r[0]) || std::isnan(r[1])) return "NULL key";
    if (!out->emplace(std::make_pair(I(r[0]), I(r[1])), &r).second) {
      return Fmt("duplicate row (%g, %g)", r[0], r[1]);
    }
  }
  return "";
}

}  // namespace

Rows ToRows(const sciql::engine::ResultSet& rs) {
  Rows rows(rs.NumRows(), std::vector<double>(rs.NumColumns()));
  for (size_t c = 0; c < rs.NumColumns(); ++c) {
    for (size_t r = 0; r < rs.NumRows(); ++r) {
      rows[r][c] = rs.Value(r, c).AsDouble();
    }
  }
  return rows;
}

std::string CheckTiling(const Rows& got, const std::vector<int32_t>& m,
                        int64_t n, int parity) {
  std::map<std::pair<int64_t, int64_t>, const std::vector<double>*> by;
  std::string err = RowsByKey(got, 3, &by);
  if (!err.empty()) return "tiling: " + err;
  size_t want_rows = 0;
  for (int64_t x = parity; x < n; x += 2) {
    for (int64_t y = parity; y < n; y += 2) {
      want_rows++;
      double sum = 0;
      int cnt = 0;
      for (int64_t dx = 0; dx < 2 && x + dx < n; ++dx) {
        for (int64_t dy = 0; dy < 2 && y + dy < n; ++dy) {
          sum += m[static_cast<size_t>((x + dx) * n + y + dy)];
          cnt++;
        }
      }
      auto it = by.find({x, y});
      if (it == by.end()) return Fmt("tiling: missing tile (%g, %g)", x, y);
      if (!Near((*it->second)[2], sum / cnt)) {
        return Fmt("tiling: tile (%g, %g) avg %g", x, y, (*it->second)[2]);
      }
    }
  }
  if (got.size() != want_rows) return Fmt("tiling: %g rows, want %g", got.size(), want_rows);
  return "";
}

std::string CheckImage(const sciql::vault::Image& got,
                       const sciql::vault::Image& want) {
  if (got.width != want.width || got.height != want.height) {
    return Fmt("image: %gx%g, want %g", got.width, got.height, want.width);
  }
  for (size_t i = 0; i < want.pixels.size(); ++i) {
    if (got.pixels[i] != want.pixels[i]) {
      return Fmt("image: pixel %g is %g, want %g", i, got.pixels[i], want.pixels[i]);
    }
  }
  return "";
}

std::string CheckHistogram(const std::vector<std::pair<int32_t, int64_t>>& got,
                           const std::vector<std::pair<int32_t, int64_t>>& want) {
  if (got.size() != want.size()) {
    return Fmt("histogram: %g buckets, want %g", got.size(), want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      return Fmt("histogram: value %g counted %g, want %g", got[i].first,
                 got[i].second, want[i].second);
    }
  }
  return "";
}

std::string CheckDetection(const Rows& got, const sciql::vault::Image& edge,
                           int t) {
  std::map<std::pair<int64_t, int64_t>, const std::vector<double>*> by;
  std::string err = RowsByKey(got, 3, &by);
  if (!err.empty()) return "detection: " + err;
  size_t want_rows = 0;
  for (size_t x = 0; x < edge.width; ++x) {
    for (size_t y = 0; y < edge.height; ++y) {
      int32_t v = edge.At(x, y);
      if (v <= t) continue;
      want_rows++;
      auto it = by.find({static_cast<int64_t>(x), static_cast<int64_t>(y)});
      if (it == by.end()) return Fmt("detection: missing (%g, %g)", x, y);
      if (!Near((*it->second)[2], v)) return Fmt("detection: (%g, %g) v %g", x, y, (*it->second)[2]);
    }
  }
  if (got.size() != want_rows) return Fmt("detection: %g rows, want %g", got.size(), want_rows);
  return "";
}

std::string CheckBlocks(const Rows& got, const sciql::vault::Image& edge,
                        int64_t block) {
  struct Agg {
    double sum = 0, max = -1;
    int64_t count = 0;
  };
  std::map<std::pair<int64_t, int64_t>, Agg> want;
  for (size_t x = 0; x < edge.width; ++x) {
    for (size_t y = 0; y < edge.height; ++y) {
      Agg& a = want[{static_cast<int64_t>(x) / block, static_cast<int64_t>(y) / block}];
      if (x == 0 || y == 0) continue;  // border holes in the SciQL result
      double v = edge.At(x, y);
      a.sum += v;
      a.max = std::max(a.max, v);
      a.count++;
    }
  }
  std::map<std::pair<int64_t, int64_t>, const std::vector<double>*> by;
  std::string err = RowsByKey(got, 5, &by);
  if (!err.empty()) return "blocks: " + err;
  if (got.size() != want.size()) return Fmt("blocks: %g rows, want %g", got.size(), want.size());
  for (const auto& [key, a] : want) {
    auto it = by.find(key);
    if (it == by.end()) return Fmt("blocks: missing (%g, %g)", key.first, key.second);
    const std::vector<double>& r = *it->second;
    if (!Near(r[2], a.sum / a.count) || !Near(r[3], a.max) || I(r[4]) != a.count) {
      return Fmt("blocks: block (%g, %g) is (avg %g, ...)", key.first, key.second, r[2]);
    }
  }
  return "";
}

std::string CheckCells(const Rows& got, int64_t x0, int64_t x1, int64_t y0,
                       int64_t y1, int64_t n,
                       const std::function<double(int64_t, int64_t)>& want) {
  std::map<std::pair<int64_t, int64_t>, const std::vector<double>*> by;
  std::string err = RowsByKey(got, 3, &by);
  if (!err.empty()) return "cells: " + err;
  size_t want_rows = 0;
  for (int64_t x = std::max<int64_t>(x0, 0); x <= std::min(x1, n - 1); ++x) {
    for (int64_t y = std::max<int64_t>(y0, 0); y <= std::min(y1, n - 1); ++y) {
      want_rows++;
      auto it = by.find({x, y});
      if (it == by.end()) return Fmt("cells: missing (%g, %g)", x, y);
      if (!Near((*it->second)[2], want(x, y))) {
        return Fmt("cells: (%g, %g) v %g", x, y, (*it->second)[2]);
      }
    }
  }
  if (got.size() != want_rows) return Fmt("cells: %g rows, want %g", got.size(), want_rows);
  return "";
}

void StepLife(std::vector<int32_t>* b, int64_t n) {
  const std::vector<int32_t>& v = *b;
  std::vector<int32_t> next(v.size());
  for (int64_t x = 0; x < n; ++x) {
    for (int64_t y = 0; y < n; ++y) {
      int live = 0;
      for (int64_t cx = std::max<int64_t>(0, x - 1); cx <= std::min(n - 1, x + 1); ++cx) {
        for (int64_t cy = std::max<int64_t>(0, y - 1); cy <= std::min(n - 1, y + 1); ++cy) {
          if (cx != x || cy != y) live += v[static_cast<size_t>(cx * n + cy)];
        }
      }
      int32_t cur = v[static_cast<size_t>(x * n + y)];
      next[static_cast<size_t>(x * n + y)] = live == 3 || (cur == 1 && live == 2) ? 1 : 0;
    }
  }
  *b = std::move(next);
}

std::string CheckBoard(const std::vector<int32_t>& got,
                       const std::vector<int32_t>& want) {
  if (got.size() != want.size()) return Fmt("board: %g cells, want %g", got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) return Fmt("board: cell %g is %g, want %g", i, got[i], want[i]);
  }
  return "";
}

std::string CheckTopK(const Rows& got, const std::vector<int32_t>& v_by_seq,
                      size_t k) {
  std::vector<int32_t> want(v_by_seq);
  size_t m = std::min(k, want.size());
  std::partial_sort(want.begin(), want.begin() + static_cast<ptrdiff_t>(m),
                    want.end(), std::greater<int32_t>());
  if (got.size() != m) return Fmt("top-k: %g rows, want %g", got.size(), m);
  for (size_t i = 0; i < m; ++i) {
    const std::vector<double>& r = got[i];
    if (r.size() != 2) return "top-k: want (seq, v) rows";
    int64_t seq = I(r[0]);
    if (seq < 0 || static_cast<size_t>(seq) >= v_by_seq.size() ||
        !Near(r[1], v_by_seq[static_cast<size_t>(seq)])) {
      return Fmt("top-k: row %g (seq %g, v %g) is not stored", i, r[0], r[1]);
    }
    if (!Near(r[1], want[i])) return Fmt("top-k: rank %g has v %g, want %g", i, r[1], want[i]);
  }
  return "";
}

std::string CheckGroupCounts(const Rows& got,
                             const std::map<int64_t, int64_t>& want) {
  if (got.size() != want.size()) return Fmt("group counts: %g groups, want %g", got.size(), want.size());
  for (const auto& r : got) {
    if (r.size() != 2) return "group counts: want (key, count) rows";
    auto it = want.find(I(r[0]));
    if (it == want.end() || I(r[1]) != it->second) {
      return Fmt("group counts: key %g has %g", r[0], r[1]);
    }
  }
  return "";
}

std::string CheckPrefix(const Rows& got) {
  double count = 0, sum = 0;
  for (const auto& r : got) {
    if (r.size() != 3) return "prefix: want (group, count, sum) rows";
    count += r[1];
    sum += r[2];
  }
  if (!Near(sum, count * (count - 1) / 2)) {
    return Fmt("prefix: %g rows sum to %g, want %g", count, sum, count * (count - 1) / 2);
  }
  return "";
}

std::string CheckSame(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return Fmt("snapshot: %g rows then %g", a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return Fmt("snapshot: row %g changed width", i);
    for (size_t c = 0; c < a[i].size(); ++c) {
      bool both_nan = std::isnan(a[i][c]) && std::isnan(b[i][c]);
      if (!both_nan && a[i][c] != b[i][c]) {
        return Fmt("snapshot: row %g column %g changed to %g", i, c, b[i][c]);
      }
    }
  }
  return "";
}

}  // namespace e2e
