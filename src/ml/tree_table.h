#ifndef OMNIFAIR_ML_TREE_TABLE_H_
#define OMNIFAIR_ML_TREE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/matrix.h"
#include "ml/classifier.h"

namespace omnifair {

/// A tree node as the recursive builders emit it: depth-first order with
/// explicit child indices. PackTree turns a finished tree into a TreeTable.
struct TreeBuildNode {
  bool is_leaf = true;
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  /// Payload: P(y = 1) for a CART node, a log-odds delta for a GBDT node.
  double value = 0.0;
};

/// Breadth-first struct-of-arrays node tables of one or more trees
/// (DESIGN.md §15): the one representation of a fitted decision tree, random
/// forest or GBDT, and exactly the bundle's `trees.*` sections. Tree t owns
/// the nodes [offsets[t], offsets[t + 1]); child indices are tree-local, and
/// the right child of a split is always left_child + 1 (breadth-first
/// packing enqueues left, then right).
struct TreeTable {
  ModelArray<uint64_t> offsets;    ///< num_trees + 1 node-index bounds
  ModelArray<int32_t> feature;     ///< split feature; -1 marks a leaf
  ModelArray<double> threshold;    ///< go left when row[feature] <= threshold
  ModelArray<int32_t> left_child;  ///< tree-local left child; -1 for leaves
  ModelArray<double> leaf_value;   ///< node payload (read at leaves)

  size_t num_trees() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  size_t num_nodes() const { return feature.size(); }

  /// The payload of the leaf tree `t` routes `row` to. This is the one tree
  /// walk: fitting, predicting and serving every tree family go through it.
  /// It is branchless: a row whose feature is not `<=` the threshold (NaN
  /// included) steps to left + 1, the right child. Float rows widen each
  /// element to double before the comparison.
  template <typename T>
  double Leaf(size_t t, const T* row) const {
    const uint64_t base = offsets[t];
    const int32_t* node_feature = feature.data() + base;
    const double* node_threshold = threshold.data() + base;
    const int32_t* node_left = left_child.data() + base;
    int32_t i = 0;
    while (node_feature[i] >= 0) {
      i = node_left[i] + !(static_cast<double>(row[node_feature[i]]) <=
                           node_threshold[i]);
    }
    return leaf_value.data()[base + i];
  }
};

/// Packs one depth-first tree breadth-first into a one-tree table. Every
/// root-to-leaf path keeps its comparisons, so rows reach the same leaves.
TreeTable PackTree(const std::vector<TreeBuildNode>& nodes);

/// One table holding `trees` in order (their child indices are tree-local,
/// so the node arrays concatenate as they are).
TreeTable ConcatTrees(const std::vector<TreeTable>& trees);

/// Rows per chunk when an ensemble predicts on several threads.
inline constexpr size_t kTreeChunkRows = 256;

/// Calls fn(begin, end) over [0, n): once over everything when `num_threads`
/// is 1 or n is small, else over disjoint kTreeChunkRows-row chunks on the
/// shared pool. Each row is computed by one call either way, so per-row
/// results do not depend on the thread count.
void ForEachRowChunk(size_t n, int num_threads,
                     const std::function<void(size_t, size_t)>& fn);

/// Calls fn(i, row) for rows [begin, end) of X, with `row` a const double*
/// or const float* as X stores it.
template <typename Fn>
void ForEachRow(const Matrix& X, size_t begin, size_t end, Fn&& fn) {
  if (X.is_float32()) {
    for (size_t i = begin; i < end; ++i) fn(i, X.RowF(i));
  } else {
    for (size_t i = begin; i < end; ++i) fn(i, X.Row(i));
  }
}

}  // namespace omnifair

#endif  // OMNIFAIR_ML_TREE_TABLE_H_
