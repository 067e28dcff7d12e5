#include "ml/tree_table.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace omnifair {

TreeTable PackTree(const std::vector<TreeBuildNode>& nodes) {
  OF_CHECK(!nodes.empty());
  // Breadth-first visit order, children enqueued left then right.
  std::vector<int32_t> order;
  std::vector<int32_t> new_index(nodes.size(), -1);
  order.reserve(nodes.size());
  order.push_back(0);
  new_index[0] = 0;
  for (size_t q = 0; q < order.size(); ++q) {
    const TreeBuildNode& node = nodes[order[q]];
    if (node.is_leaf) continue;
    OF_CHECK(node.left > 0 && node.right > 0 &&
             static_cast<size_t>(node.left) < nodes.size() &&
             static_cast<size_t>(node.right) < nodes.size() &&
             new_index[node.left] == -1 && new_index[node.right] == -1)
        << "malformed tree";
    new_index[node.left] = static_cast<int32_t>(order.size());
    order.push_back(node.left);
    new_index[node.right] = static_cast<int32_t>(order.size());
    order.push_back(node.right);
  }
  std::vector<int32_t> feature(order.size());
  std::vector<double> threshold(order.size());
  std::vector<int32_t> left(order.size());
  std::vector<double> value(order.size());
  for (size_t q = 0; q < order.size(); ++q) {
    const TreeBuildNode& node = nodes[order[q]];
    feature[q] = node.is_leaf ? -1 : node.feature;
    threshold[q] = node.is_leaf ? 0.0 : node.threshold;
    left[q] = node.is_leaf ? -1 : new_index[node.left];
    value[q] = node.value;
  }
  TreeTable table;
  table.offsets = std::vector<uint64_t>{0, order.size()};
  table.feature = std::move(feature);
  table.threshold = std::move(threshold);
  table.left_child = std::move(left);
  table.leaf_value = std::move(value);
  return table;
}

TreeTable ConcatTrees(const std::vector<TreeTable>& trees) {
  std::vector<uint64_t> offsets{0};
  std::vector<int32_t> feature;
  std::vector<double> threshold;
  std::vector<int32_t> left;
  std::vector<double> value;
  for (const TreeTable& tree : trees) {
    for (size_t t = 0; t < tree.num_trees(); ++t) {
      offsets.push_back(offsets.back() + tree.offsets[t + 1] - tree.offsets[t]);
    }
    feature.insert(feature.end(), tree.feature.begin(), tree.feature.end());
    threshold.insert(threshold.end(), tree.threshold.begin(),
                     tree.threshold.end());
    left.insert(left.end(), tree.left_child.begin(), tree.left_child.end());
    value.insert(value.end(), tree.leaf_value.begin(), tree.leaf_value.end());
  }
  TreeTable table;
  table.offsets = std::move(offsets);
  table.feature = std::move(feature);
  table.threshold = std::move(threshold);
  table.left_child = std::move(left);
  table.leaf_value = std::move(value);
  return table;
}

void ForEachRowChunk(size_t n, int num_threads,
                     const std::function<void(size_t, size_t)>& fn) {
  if (num_threads <= 1 || n < 2 * kTreeChunkRows) {
    fn(0, n);
    return;
  }
  const size_t chunks = (n + kTreeChunkRows - 1) / kTreeChunkRows;
  ThreadPool::Global().ParallelFor(
      chunks,
      [&](size_t c) {
        const size_t begin = c * kTreeChunkRows;
        fn(begin, std::min(n, begin + kTreeChunkRows));
      },
      num_threads);
}

}  // namespace omnifair
