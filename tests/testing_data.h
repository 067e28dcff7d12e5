#ifndef OMNIFAIR_TESTS_TESTING_DATA_H_
#define OMNIFAIR_TESTS_TESTING_DATA_H_

#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "ml/classifier.h"
#include "ml/metrics.h"
#include "ml/tree_table.h"
#include "util/random.h"

namespace omnifair {
namespace testing_data {

struct Blobs {
  Matrix X;
  std::vector<int> y;
  std::vector<double> unit_weights;
};

/// Two Gaussian blobs in 2D around (-sep, -sep) and (+sep, +sep).
inline Blobs MakeBlobs(size_t n, double separation, uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  blobs.X = Matrix(n, 2);
  blobs.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int label = rng.NextBernoulli(0.5) ? 1 : 0;
    const double center = label == 1 ? separation : -separation;
    blobs.X(i, 0) = rng.NextGaussian(center, 1.0);
    blobs.X(i, 1) = rng.NextGaussian(center, 1.0);
    blobs.y[i] = label;
  }
  blobs.unit_weights.assign(n, 1.0);
  return blobs;
}

/// XOR-style data (not linearly separable): label = sign(x0) != sign(x1).
inline Blobs MakeXor(size_t n, uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  blobs.X = Matrix(n, 2);
  blobs.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.NextUniform(-1.0, 1.0);
    const double x1 = rng.NextUniform(-1.0, 1.0);
    blobs.X(i, 0) = x0;
    blobs.X(i, 1) = x1;
    blobs.y[i] = (x0 > 0.0) != (x1 > 0.0) ? 1 : 0;
  }
  blobs.unit_weights.assign(n, 1.0);
  return blobs;
}

inline double TrainAccuracy(const Classifier& model, const Blobs& blobs) {
  return Accuracy(blobs.y, model.Predict(blobs.X));
}

/// Expects two fitted node tables to match field by field: the tree offsets,
/// then every node's feature, threshold, left child and leaf value.
inline void ExpectSameTables(const TreeTable& a, const TreeTable& b) {
  ASSERT_EQ(a.num_trees(), b.num_trees());
  for (size_t t = 0; t <= a.num_trees(); ++t) {
    EXPECT_EQ(a.offsets[t], b.offsets[t]) << "offset " << t;
  }
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (size_t i = 0; i < a.num_nodes(); ++i) {
    EXPECT_EQ(a.feature[i], b.feature[i]) << "node " << i;
    EXPECT_EQ(a.threshold[i], b.threshold[i]) << "node " << i;
    EXPECT_EQ(a.left_child[i], b.left_child[i]) << "node " << i;
    EXPECT_EQ(a.leaf_value[i], b.leaf_value[i]) << "node " << i;
  }
}

}  // namespace testing_data
}  // namespace omnifair

#endif  // OMNIFAIR_TESTS_TESTING_DATA_H_
