// Correctness oracles. Each returns "" when the engine's answer is right and
// a description of the first difference otherwise. They compare plain rows
// so the self-test can feed them deliberately wrong answers.

#ifndef E2EBENCH_ORACLES_H_
#define E2EBENCH_ORACLES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/result_set.h"
#include "src/vault/pgm.h"

namespace e2e {

/// A result set as numbers; NULL reads as NaN.
using Rows = std::vector<std::vector<double>>;
Rows ToRows(const sciql::engine::ResultSet& rs);

/// Fig. 1e tiling: rows (x, y, avg) of the 2x2 tiles anchored where
/// x MOD 2 = parity and y MOD 2 = parity, over the n x n matrix m[x*n+y].
std::string CheckTiling(const Rows& got, const std::vector<int32_t>& m,
                        int64_t n, int parity);

std::string CheckImage(const sciql::vault::Image& got,
                       const sciql::vault::Image& want);

std::string CheckHistogram(const std::vector<std::pair<int32_t, int64_t>>& got,
                           const std::vector<std::pair<int32_t, int64_t>>& want);

/// Observation detection: rows (x, y, v) of the edge image with v > t. The
/// native edge image has 0 where SciQL has border holes, so t >= 0 skips both.
std::string CheckDetection(const Rows& got, const sciql::vault::Image& edge,
                           int t);

/// SS-DB spatial aggregation: rows (bx, by, avg, max, count) over
/// block x block squares of the edge image, border holes excluded.
std::string CheckBlocks(const Rows& got, const sciql::vault::Image& edge,
                        int64_t block);

/// Cells of a window read by dimension predicates: rows (x, y, v) must be
/// exactly the in-range cells of [x0,x1] x [y0,y1] with v = want(x, y).
std::string CheckCells(const Rows& got, int64_t x0, int64_t x1, int64_t y0,
                       int64_t y1, int64_t n,
                       const std::function<double(int64_t, int64_t)>& want);

/// One Game-of-Life generation of the n x n board b[x * n + y], computed
/// natively with LifeBoard::StepNative's rules (cells outside are dead).
void StepLife(std::vector<int32_t>* b, int64_t n);

/// Equal boards, cell for cell.
std::string CheckBoard(const std::vector<int32_t>& got,
                       const std::vector<int32_t>& want);

/// ORDER BY v DESC LIMIT k over rows (seq, v): each row must be a stored
/// row, in order, and the values must be the k largest of `v_by_seq`.
std::string CheckTopK(const Rows& got, const std::vector<int32_t>& v_by_seq,
                      size_t k);

/// Rows (key, count) against the expected count per key.
std::string CheckGroupCounts(const Rows& got,
                             const std::map<int64_t, int64_t>& want);

/// Rows (group, count, sum_seq): the groups together must hold a committed
/// prefix 0..c-1 of the sequence numbers, i.e. sum = c*(c-1)/2.
std::string CheckPrefix(const Rows& got);

/// Two reads of one pinned snapshot must agree exactly.
std::string CheckSame(const Rows& a, const Rows& b);

}  // namespace e2e

#endif  // E2EBENCH_ORACLES_H_
