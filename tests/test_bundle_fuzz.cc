// Structural fuzzing of the bundle parser, the library's one model decoder
// (DESIGN.md §15). Valid images of all six families are mutated with byte
// flips, section-table offset/size edits, counts near 2^63, truncation and
// extension; the CRC trailer is recomputed after every mutation so the
// structural checks run instead of the CRC check. Every image must either
// fail Open with kDataLoss / kInvalidArgument, or yield a model that passes
// two independent checks: for the tree families, a plainly written,
// bounds-checked walk over the model's node tables reproduces its scores bit
// for bit; for every family, encoding the model and opening the new image
// gives a model that scores the probe bit for bit alike.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/bundle.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "ml/tree_table.h"
#include "ml/trainer_registry.h"
#include "tests/testing_fairness.h"
#include "util/random.h"
#include "util/snapshot_io.h"

namespace omnifair {
namespace {

using testing_fairness::MakeBiasedDataset;

constexpr int kMutationsPerFamily = 3000;
constexpr size_t kHeaderBytes = 32;

struct TableEntry {
  size_t offset_field = 0;  ///< image offset of the entry's u64 payload offset
  uint64_t offset = 0;
  uint64_t size = 0;
};

/// Section table of a valid image (header layout per ml/bundle.h).
std::vector<TableEntry> ParseTable(const std::vector<uint8_t>& image) {
  uint32_t count = 0;
  std::memcpy(&count, image.data() + 12, 4);
  std::vector<TableEntry> entries;
  size_t at = kHeaderBytes;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_bytes = 0;
    std::memcpy(&name_bytes, image.data() + at, 4);
    at += 4 + name_bytes + 1;  // name, dtype
    TableEntry entry;
    entry.offset_field = at;
    std::memcpy(&entry.offset, image.data() + at, 8);
    std::memcpy(&entry.size, image.data() + at + 8, 8);
    entries.push_back(entry);
    at += 16;
  }
  return entries;
}

void PutU64(std::vector<uint8_t>* image, size_t at, uint64_t value) {
  if (at + 8 <= image->size()) std::memcpy(image->data() + at, &value, 8);
}

/// Keeps the header's declared size in step with a resized image.
void FixDeclaredSize(std::vector<uint8_t>* image) {
  PutU64(image, 16, image->size());
}

void FixCrc(std::vector<uint8_t>* image) {
  if (image->size() < 4) return;
  const uint32_t crc = Crc32(image->data(), image->size() - 4);
  std::memcpy(image->data() + image->size() - 4, &crc, 4);
}

uint64_t NearTwoTo63(Rng& rng) {
  const uint64_t base = uint64_t{1} << 63;
  switch (rng.NextBounded(4)) {
    case 0:
      return base - 1 - rng.NextBounded(16);
    case 1:
      return base + rng.NextBounded(16);
    case 2:
      return std::numeric_limits<uint64_t>::max() - rng.NextBounded(16);
    default:
      return (base >> rng.NextBounded(8)) / 8;
  }
}

std::vector<uint8_t> Mutate(const std::vector<uint8_t>& valid, Rng& rng) {
  std::vector<uint8_t> image = valid;
  const std::vector<TableEntry> table = ParseTable(valid);
  const TableEntry& section = table[rng.NextBounded(table.size())];
  switch (rng.NextBounded(6)) {
    case 0: {  // byte flips anywhere before the CRC
      const uint64_t flips = 1 + rng.NextBounded(4);
      for (uint64_t f = 0; f < flips; ++f) {
        image[rng.NextBounded(image.size() - 4)] ^=
            static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
      break;
    }
    case 1: {  // byte flips inside one payload
      if (section.size == 0) break;
      image[section.offset + rng.NextBounded(section.size)] ^=
          static_cast<uint8_t>(1 + rng.NextBounded(255));
      break;
    }
    case 2: {  // section-table offset or size edit
      const bool edit_size = rng.NextBounded(2) == 1;
      const uint64_t old = edit_size ? section.size : section.offset;
      const uint64_t deltas[] = {1, 4, 8, 64, 128};
      uint64_t value = old;
      switch (rng.NextBounded(4)) {
        case 0:
          value = old + deltas[rng.NextBounded(5)];
          break;
        case 1:
          value = old - deltas[rng.NextBounded(5)];
          break;
        case 2:
          value = rng.NextBounded(image.size() + 64);
          break;
        default:
          value = NearTwoTo63(rng);
      }
      PutU64(&image, section.offset_field + (edit_size ? 8 : 0), value);
      break;
    }
    case 3: {  // a count near 2^63 where payloads keep their counts
      const size_t starts[] = {0, 2, 8, 16};
      size_t at = section.offset + starts[rng.NextBounded(4)];
      if (rng.NextBounded(2) == 1 && section.size >= 8) {
        at = section.offset + 8 * rng.NextBounded(section.size / 8);
      }
      if (at + 8 <= section.offset + section.size) {
        PutU64(&image, at, NearTwoTo63(rng));
      }
      break;
    }
    case 4: {  // truncation, with or without a matching declared size
      image.resize(rng.NextBounded(image.size()));
      if (rng.NextBounded(2) == 1) FixDeclaredSize(&image);
      break;
    }
    default: {  // extension, with or without a matching declared size
      const uint64_t extra = 1 + rng.NextBounded(128);
      for (uint64_t b = 0; b < extra; ++b) {
        image.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
      }
      if (rng.NextBounded(2) == 1) FixDeclaredSize(&image);
      break;
    }
  }
  FixCrc(&image);
  return image;
}

/// Probe rows: ordinary values plus NaN, infinities and extremes, so a split
/// on any threshold and any arithmetic path gets exercised.
Matrix ProbeMatrix(size_t cols, Rng& rng) {
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             0.0, -0.0, 1e300, -1e300, 0.5};
  Matrix X(24, cols);
  for (size_t r = 0; r < X.rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      X(r, c) = rng.NextBounded(5) == 0 ? specials[rng.NextBounded(8)]
                                        : rng.NextGaussian(0.0, 2.0);
    }
  }
  return X;
}

/// Bitwise equality where any NaN matches any NaN.
bool SameScores(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  }
  return true;
}

/// The leaf value tree `t` of `table` routes `row` to, by a walk written
/// independently of TreeTable::Leaf that bounds-checks every node and
/// feature index before reading it. False when the tables would send a walk
/// out of its tree, past the row, or around a cycle.
template <typename T>
bool ReferenceLeaf(const TreeTable& table, size_t t, const T* row, size_t cols,
                   double* leaf) {
  const size_t nodes = table.feature.size();
  if (table.threshold.size() != nodes || table.left_child.size() != nodes ||
      table.leaf_value.size() != nodes || t + 1 >= table.offsets.size()) {
    return false;
  }
  const uint64_t begin = table.offsets[t];
  const uint64_t end = table.offsets[t + 1];
  if (begin >= end || end > nodes) return false;
  const uint64_t count = end - begin;
  uint64_t i = 0;
  for (uint64_t steps = 0; steps < count; ++steps) {
    const int32_t feature = table.feature[begin + i];
    if (feature < 0) {
      *leaf = table.leaf_value[begin + i];
      return true;
    }
    if (static_cast<size_t>(feature) >= cols) return false;
    const int64_t left = table.left_child[begin + i];
    const int64_t next =
        static_cast<double>(row[feature]) <= table.threshold[begin + i] ? left
                                                                       : left + 1;
    if (next < 0 || static_cast<uint64_t>(next) >= count) return false;
    i = static_cast<uint64_t>(next);
  }
  return false;
}

/// Reference scores of a tree-family model over X's rows: a decision tree's
/// leaf, a forest's leaf mean (summed in tree order, then scaled), or a
/// GBDT's raw score (base + learning rate x leaf, in tree order). Fails the
/// test when any walk would leave the tables.
template <typename T>
std::vector<double> ReferenceTreeScores(const Classifier& model,
                                        const Matrix& X,
                                        const T* (Matrix::*row_of)(size_t) const) {
  const TreeTable* table = nullptr;
  double base = 0.0;
  double scale = 1.0;
  bool mean = false;
  if (const auto* dt = dynamic_cast<const DecisionTreeModel*>(&model)) {
    table = &dt->table();
  } else if (const auto* rf = dynamic_cast<const RandomForestModel*>(&model)) {
    table = &rf->table();
    mean = true;
  } else if (const auto* gbdt = dynamic_cast<const GbdtModel*>(&model)) {
    table = &gbdt->table();
    base = gbdt->base_score();
    scale = gbdt->learning_rate();
  }
  std::vector<double> scores(X.rows());
  if (table == nullptr || table->offsets.size() < 2) {
    ADD_FAILURE() << model.Name() << " has no node tables";
    return scores;
  }
  const size_t num_trees = table->offsets.size() - 1;
  for (size_t r = 0; r < X.rows(); ++r) {
    double score = base;
    for (size_t t = 0; t < num_trees; ++t) {
      double leaf = 0.0;
      if (!ReferenceLeaf(*table, t, (X.*row_of)(r), X.cols(), &leaf)) {
        ADD_FAILURE() << model.Name() << " tree " << t
                      << " walks out of its node tables";
        return {};
      }
      score += mean ? leaf : scale * leaf;
    }
    scores[r] = mean ? score * (1.0 / static_cast<double>(num_trees)) : score;
  }
  return scores;
}

/// The scores ReferenceTreeScores reproduces: PredictProba, or a GBDT's raw
/// score.
std::vector<double> TreeScores(const Classifier& model, const Matrix& X) {
  if (const auto* gbdt = dynamic_cast<const GbdtModel*>(&model)) {
    return gbdt->PredictRaw(X);
  }
  return model.PredictProba(X);
}

class BundleFuzzTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BundleFuzzTest, MutatedImagesFailTypedOrScoreConsistently) {
  const Dataset data = MakeBiasedDataset(240, 0.7, 0.3, /*seed=*/21);
  FeatureEncoder encoder;
  const Matrix X = encoder.FitTransform(data);
  const std::vector<int>& y = data.labels();
  const std::vector<double> w(y.size(), 1.0);
  std::unique_ptr<Classifier> model;
  const std::string family = GetParam();
  if (family == "rf") {
    RandomForestOptions options;
    options.num_trees = 4;
    options.max_depth = 4;
    model = RandomForestTrainer(options).Fit(X, y, w);
  } else if (family == "xgb") {
    GbdtOptions options;
    options.num_rounds = 4;
    options.max_depth = 3;
    options.split_method = SplitMethod::kHistogram;
    model = GbdtTrainer(options).Fit(X, y, w);
  } else if (family == "dt") {
    DecisionTreeOptions options;
    options.max_depth = 4;
    model = DecisionTreeTrainer(options).Fit(X, y, w);
  } else if (family == "nn") {
    MlpOptions options;
    options.hidden_units = 4;
    options.max_epochs = 5;
    model = MlpTrainer(options).Fit(X, y, w);
  } else {
    model = MakeTrainer(family, 3)->Fit(X, y, w);
  }
  ASSERT_NE(model, nullptr);
  BundleMeta meta;
  meta.lambdas = {0.25};
  Result<std::vector<uint8_t>> valid = EncodeBundle(*model, encoder, meta);
  ASSERT_TRUE(valid.ok()) << valid.status();

  const bool tree_family = family == "dt" || family == "rf" || family == "xgb";
  Rng rng(0x0f0b0d00 + family.size() * 131 + static_cast<uint64_t>(family[0]));
  int opened = 0;
  for (int m = 0; m < kMutationsPerFamily; ++m) {
    std::vector<uint8_t> image = Mutate(*valid, rng);
    auto bundle = ModelBundle::Open(std::move(image));
    if (!bundle.ok()) {
      const StatusCode code = bundle.status().code();
      ASSERT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << family << " mutation " << m << ": " << bundle.status();
      continue;
    }
    ++opened;
    const Matrix probe =
        ProbeMatrix(static_cast<size_t>((*bundle)->meta().num_features), rng);
    const Matrix probe32 = probe.ToFloat32();
    const std::unique_ptr<Classifier> loaded = (*bundle)->MakeModel();
    ASSERT_NE(loaded, nullptr);
    if (tree_family) {
      // The reference walk runs first, so a table that would send the
      // model's own walk out of bounds fails here instead of reading there.
      const std::vector<double> want = ReferenceTreeScores(*loaded, probe, &Matrix::Row);
      ASSERT_FALSE(want.empty()) << family << " mutation " << m << " (f64 rows)";
      const std::vector<double> want32 =
          ReferenceTreeScores(*loaded, probe32, &Matrix::RowF);
      ASSERT_FALSE(want32.empty()) << family << " mutation " << m << " (f32 rows)";
      ASSERT_TRUE(SameScores(TreeScores(*loaded, probe), want))
          << family << " mutation " << m << " (f64 rows)";
      ASSERT_TRUE(SameScores(TreeScores(*loaded, probe32), want32))
          << family << " mutation " << m << " (f32 rows)";
    }
    Result<std::vector<uint8_t>> again =
        EncodeBundle(*loaded, (*bundle)->encoder(), (*bundle)->meta());
    ASSERT_TRUE(again.ok()) << family << " mutation " << m << ": " << again.status();
    auto reopened = ModelBundle::Open(std::move(*again));
    ASSERT_TRUE(reopened.ok())
        << family << " mutation " << m << ": " << reopened.status();
    const std::unique_ptr<Classifier> round_trip = (*reopened)->MakeModel();
    ASSERT_TRUE(SameScores(round_trip->PredictProba(probe), loaded->PredictProba(probe)))
        << family << " mutation " << m << " round trip (f64 rows)";
    ASSERT_TRUE(
        SameScores(round_trip->PredictProba(probe32), loaded->PredictProba(probe32)))
        << family << " mutation " << m << " round trip (f32 rows)";
  }
  // Some mutations (a flipped leaf value, padding past the last payload)
  // must leave a loadable image, or the checks above never ran.
  EXPECT_GT(opened, 0) << family;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BundleFuzzTest,
                         ::testing::Values("lr", "nb", "dt", "rf", "xgb", "nn"));

}  // namespace
}  // namespace omnifair
