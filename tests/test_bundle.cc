// Chaos + parity suite for versioned binary model bundles (DESIGN.md §15):
// bit-identical flat predict across every model family / storage mode /
// thread count, wire-format inspection, and fault-injected corruption
// (truncation, bit flips, the io.corrupt_read site) always failing with
// typed statuses.

#include "ml/bundle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/omnifair.h"
#include "data/chunked_dataset.h"
#include "data/datasets.h"
#include "data/encoder.h"
#include "data/split.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/trainer_registry.h"
#include "tests/testing_data.h"
#include "tests/testing_fairness.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/snapshot_io.h"

namespace omnifair {
namespace {

using testing_fairness::MakeBiasedDataset;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good());
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(file),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good());
}

/// Shared fixture: a small encoded dataset plus a fitted encoder.
class BundleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Reset();
    dataset_ = MakeBiasedDataset(400, 0.7, 0.3, /*seed=*/11);
    encoder_.Fit(dataset_);
    X_ = encoder_.Transform(dataset_);
    y_ = dataset_.labels();
    weights_.assign(y_.size(), 1.0);
  }
  void TearDown() override { FaultInjector::Reset(); }

  /// Pack `model`, reopen it, and return the loaded bundle.
  std::shared_ptr<const ModelBundle> RoundTrip(const Classifier& model,
                                               const std::string& name) {
    const std::string path = TempPath(name);
    BundleMeta meta;
    meta.lambdas = {0.25, -0.5};
    meta.satisfied = true;
    meta.val_accuracy = 0.75;
    meta.metric = "sp";
    meta.sensitive_attribute = "grp";
    meta.epsilon = 0.05;
    Status written = WriteBundle(model, encoder_, meta, path);
    EXPECT_TRUE(written.ok()) << written.ToString();
    auto bundle = ModelBundle::Open(path);
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    return bundle.ok() ? *bundle : nullptr;
  }

  /// PredictProba of `model`, the bundle's flat model and its decoded model
  /// must agree bit for bit on double and float32 feature storage (flat
  /// models at 1 and 4 predict threads), and the decoded model must encode
  /// to the same bundle bytes as `model`.
  void ExpectBitIdentical(const Classifier& model, const ModelBundle& bundle) {
    const Matrix Xf = X_.ToFloat32();
    const std::vector<double> want64 = model.PredictProba(X_);
    const std::vector<double> want32 = model.PredictProba(Xf);
    std::unique_ptr<Classifier> decoded = bundle.DecodeModel();
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->Name(), model.Name());
    EXPECT_EQ(decoded->PredictProba(X_), want64) << model.Name() << " decoded f64";
    EXPECT_EQ(decoded->PredictProba(Xf), want32) << model.Name() << " decoded f32";
    Result<std::vector<uint8_t>> original =
        EncodeBundle(model, encoder_, bundle.meta());
    Result<std::vector<uint8_t>> again =
        EncodeBundle(*decoded, bundle.encoder(), bundle.meta());
    ASSERT_TRUE(original.ok()) << original.status();
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_TRUE(*again == *original) << model.Name() << " re-encode differs";
    for (int threads : {1, 4}) {
      std::unique_ptr<Classifier> flat = bundle.MakeModel(threads);
      ASSERT_NE(flat, nullptr);
      EXPECT_EQ(flat->Name(), model.Name());
      const std::vector<double> got64 = flat->PredictProba(X_);
      const std::vector<double> got32 = flat->PredictProba(Xf);
      ASSERT_EQ(got64.size(), want64.size());
      for (size_t i = 0; i < want64.size(); ++i) {
        EXPECT_EQ(got64[i], want64[i])
            << model.Name() << " f64 row " << i << " threads " << threads;
        EXPECT_EQ(got32[i], want32[i])
            << model.Name() << " f32 row " << i << " threads " << threads;
      }
    }
  }

  /// Scoring the rows in consecutive batches of 1, 3, 5 and 4k + 1 rows must
  /// reproduce the whole-batch scores bit for bit, on double and float32
  /// storage: a row's score may not depend on its position in the batch.
  void ExpectBatchPositionIndependent(const Classifier& model,
                                      const std::string& what) {
    const Matrix Xf = X_.ToFloat32();
    for (bool f32 : {false, true}) {
      const Matrix& X = f32 ? Xf : X_;
      const char* storage = f32 ? "f32" : "f64";
      const std::vector<double> whole = model.PredictProba(X);
      for (size_t batch : {1u, 3u, 5u, 9u, 257u}) {
        size_t mismatched = 0;
        for (size_t begin = 0; begin < X.rows(); begin += batch) {
          std::vector<size_t> rows;
          for (size_t r = begin; r < std::min(X.rows(), begin + batch); ++r) {
            rows.push_back(r);
          }
          const std::vector<double> part = model.PredictProba(X.SelectRows(rows));
          for (size_t j = 0; j < rows.size(); ++j) {
            mismatched += part[j] != whole[begin + j];
          }
        }
        EXPECT_EQ(mismatched, 0u)
            << what << " " << storage << " rows differ at batch size " << batch;
      }
    }
  }

  Dataset dataset_;
  FeatureEncoder encoder_;
  Matrix X_;
  std::vector<int> y_;
  std::vector<double> weights_;
};

// ---------------------------------------------------------------------------
// Flat predict parity, per family
// ---------------------------------------------------------------------------

TEST_F(BundleTest, LogisticRegressionRoundTripIsBitIdentical) {
  auto model = MakeTrainer("lr", 3)->Fit(X_, y_, weights_);
  ASSERT_NE(model, nullptr);
  auto bundle = RoundTrip(*model, "lr.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, NaiveBayesRoundTripIsBitIdentical) {
  auto model = MakeTrainer("nb", 3)->Fit(X_, y_, weights_);
  ASSERT_NE(model, nullptr);
  auto bundle = RoundTrip(*model, "nb.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, MlpRoundTripIsBitIdentical) {
  MlpOptions options;
  options.hidden_units = 9;
  options.max_epochs = 30;
  auto model = MlpTrainer(options).Fit(X_, y_, weights_);
  ASSERT_NE(model, nullptr);
  auto bundle = RoundTrip(*model, "mlp.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, DecisionTreeParityAcrossDepthsAndSplitMethods) {
  for (SplitMethod method : {SplitMethod::kExact, SplitMethod::kHistogram}) {
    for (int depth : {1, 3, 8}) {
      DecisionTreeOptions options;
      options.max_depth = depth;
      options.split_method = method;
      auto model = DecisionTreeTrainer(options).Fit(X_, y_, weights_);
      ASSERT_NE(model, nullptr);
      auto bundle = RoundTrip(*model, "dt.ofb");
      ASSERT_NE(bundle, nullptr) << "depth " << depth;
      ExpectBitIdentical(*model, *bundle);
    }
  }
}

TEST_F(BundleTest, SingleNodeTreeRoundTrips) {
  // Constant labels: the root never splits, giving a one-node tree.
  std::vector<int> ones(y_.size(), 1);
  auto model = DecisionTreeTrainer().Fit(X_, ones, weights_);
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(dynamic_cast<DecisionTreeModel*>(model.get())->NumNodes(), 1u);
  auto bundle = RoundTrip(*model, "dt_leaf.ofb");
  ASSERT_NE(bundle, nullptr);
  ExpectBitIdentical(*model, *bundle);
}

TEST_F(BundleTest, RandomForestParityAcrossSplitMethods) {
  for (SplitMethod method : {SplitMethod::kExact, SplitMethod::kHistogram}) {
    RandomForestOptions options;
    options.num_trees = 12;
    options.max_depth = 5;
    options.split_method = method;
    auto model = RandomForestTrainer(options).Fit(X_, y_, weights_);
    ASSERT_NE(model, nullptr);
    auto bundle = RoundTrip(*model, "rf.ofb");
    ASSERT_NE(bundle, nullptr);
    ExpectBitIdentical(*model, *bundle);
  }
}

TEST_F(BundleTest, GbdtParityAcrossSplitMethods) {
  for (SplitMethod method : {SplitMethod::kExact, SplitMethod::kHistogram}) {
    GbdtOptions options;
    options.num_rounds = 10;
    options.max_depth = 3;
    options.split_method = method;
    auto model = GbdtTrainer(options).Fit(X_, y_, weights_);
    ASSERT_NE(model, nullptr);
    auto bundle = RoundTrip(*model, "gbdt.ofb");
    ASSERT_NE(bundle, nullptr);
    ExpectBitIdentical(*model, *bundle);
  }
}

TEST_F(BundleTest, ScoresDoNotDependOnBatchPosition) {
  MlpOptions mlp_options;
  mlp_options.hidden_units = 9;
  mlp_options.max_epochs = 30;
  GbdtOptions gbdt_options;
  gbdt_options.num_rounds = 10;
  gbdt_options.max_depth = 3;
  const std::pair<std::string, std::unique_ptr<Classifier>> models[] = {
      {"lr", MakeTrainer("lr", 3)->Fit(X_, y_, weights_)},
      {"mlp", MlpTrainer(mlp_options).Fit(X_, y_, weights_)},
      {"gbdt", GbdtTrainer(gbdt_options).Fit(X_, y_, weights_)},
  };
  for (const auto& [name, model] : models) {
    ASSERT_NE(model, nullptr) << name;
    ExpectBatchPositionIndependent(*model, name);
    auto bundle = RoundTrip(*model, name + "_position.ofb");
    ASSERT_NE(bundle, nullptr) << name;
    ExpectBatchPositionIndependent(*bundle->MakeModel(), name + " flat");
  }
}

TEST_F(BundleTest, AccumulateProbaMatchesPointerModels) {
  // Serving shards via AccumulateProba too (RF members); flat DT/GBDT must
  // match the pointer models' accumulate path bit for bit, including the
  // GBDT per-block sigmoid boundaries (offset slice starts mid-block).
  GbdtOptions options;
  options.num_rounds = 8;
  auto gbdt = GbdtTrainer(options).Fit(X_, y_, weights_);
  ASSERT_NE(gbdt, nullptr);
  auto bundle = RoundTrip(*gbdt, "gbdt_acc.ofb");
  ASSERT_NE(bundle, nullptr);
  auto flat = bundle->MakeModel();
  std::vector<double> want(X_.rows(), 0.125);
  std::vector<double> got(X_.rows(), 0.125);
  gbdt->AccumulateProba(X_, 3, X_.rows() - 5, want);
  flat->AccumulateProba(X_, 3, X_.rows() - 5, got);
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << i;
}

// ---------------------------------------------------------------------------
// Wire format, metadata, and mmap behavior
// ---------------------------------------------------------------------------

TEST_F(BundleTest, MetaAndEncoderRoundTrip) {
  auto model = MakeTrainer("lr", 3)->Fit(X_, y_, weights_);
  auto bundle = RoundTrip(*model, "meta.ofb");
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ(bundle->meta().family, "logistic_regression");
  EXPECT_EQ(bundle->meta().lambdas, (std::vector<double>{0.25, -0.5}));
  EXPECT_TRUE(bundle->meta().satisfied);
  EXPECT_DOUBLE_EQ(bundle->meta().val_accuracy, 0.75);
  EXPECT_EQ(bundle->meta().metric, "sp");
  EXPECT_EQ(bundle->meta().sensitive_attribute, "grp");
  EXPECT_DOUBLE_EQ(bundle->meta().epsilon, 0.05);
  EXPECT_EQ(bundle->meta().num_features, encoder_.NumFeatures());
  // The packed encoder produces the same matrix as the original.
  const Matrix X2 = bundle->encoder().Transform(dataset_);
  ASSERT_EQ(X2.rows(), X_.rows());
  ASSERT_EQ(X2.cols(), X_.cols());
  for (size_t i = 0; i < X_.rows(); ++i) {
    for (size_t c = 0; c < X_.cols(); ++c) EXPECT_EQ(X2(i, c), X_(i, c));
  }
}

TEST_F(BundleTest, InspectReportsSectionsAndCrc) {
  auto model = MakeTrainer("rf", 3)->Fit(X_, y_, weights_);
  const std::string path = TempPath("inspect.ofb");
  ASSERT_TRUE(WriteBundle(*model, encoder_, BundleMeta{}, path).ok());
  auto inspection = InspectBundle(path);
  ASSERT_TRUE(inspection.ok()) << inspection.status().ToString();
  EXPECT_EQ(inspection->version, kBundleVersion);
  EXPECT_TRUE(inspection->crc_ok);
  EXPECT_EQ(inspection->crc_stored, inspection->crc_computed);
  std::vector<std::string> names;
  for (const BundleSectionInfo& s : inspection->sections) {
    names.push_back(s.name);
    EXPECT_EQ(s.offset % kBundleAlign, 0u) << s.name;
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"meta", "encoder", "trees.meta",
                                      "trees.offsets", "trees.feature",
                                      "trees.threshold", "trees.left_child",
                                      "trees.leaf_value"}));
  const std::string text = inspection->ToString();
  EXPECT_NE(text.find("trees.leaf_value"), std::string::npos);
  EXPECT_NE(text.find("(ok)"), std::string::npos);
}

TEST_F(BundleTest, MmapOwnedBufferAndInMemoryImageAgree) {
  auto model = MakeTrainer("xgb", 3)->Fit(X_, y_, weights_);
  const std::string path = TempPath("mmap.ofb");
  ASSERT_TRUE(WriteBundle(*model, encoder_, BundleMeta{}, path).ok());
  auto mapped = ModelBundle::Open(path);
  ASSERT_TRUE(mapped.ok());
  ModelBundle::OpenOptions no_mmap;
  no_mmap.allow_mmap = false;
  auto owned = ModelBundle::Open(path, no_mmap);
  ASSERT_TRUE(owned.ok());
  Result<std::vector<uint8_t>> image = EncodeBundle(*model, encoder_, BundleMeta{});
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(*image == ReadFile(path));  // WriteBundle publishes EncodeBundle
  auto in_memory = ModelBundle::Open(std::move(*image));
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();
  EXPECT_TRUE((*mapped)->mapped());
  EXPECT_FALSE((*owned)->mapped());
  EXPECT_FALSE((*in_memory)->mapped());
  const std::vector<double> a = (*mapped)->MakeModel()->PredictProba(X_);
  EXPECT_EQ((*owned)->MakeModel()->PredictProba(X_), a);
  EXPECT_EQ((*in_memory)->MakeModel()->PredictProba(X_), a);
}

TEST_F(BundleTest, ModelsKeepTheBundleAlive) {
  auto model = MakeTrainer("lr", 3)->Fit(X_, y_, weights_);
  auto bundle = RoundTrip(*model, "alive.ofb");
  ASSERT_NE(bundle, nullptr);
  std::unique_ptr<Classifier> flat = bundle->MakeModel();
  const std::vector<double> before = flat->PredictProba(X_);
  bundle.reset();  // flat model holds the last reference to the mapping
  const std::vector<double> after = flat->PredictProba(X_);
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(after[i], before[i]);
}

TEST_F(BundleTest, WriteGoesThroughTheDurablePublishPath) {
  // WriteBundle shares the snapshot layer's temp+fsync+rename publish, so
  // its fault sites apply: a failed write leaves nothing at the final path.
  auto model = MakeTrainer("lr", 3)->Fit(X_, y_, weights_);
  const std::string path = TempPath("durable.ofb");
  FaultInjector::Arm(fault_sites::kIoEnospc, /*fire_at=*/1, /*repeat=*/true);
  const Status failed = WriteBundle(*model, encoder_, BundleMeta{}, path);
  FaultInjector::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(ModelBundle::Open(path).ok());
  ASSERT_TRUE(WriteBundle(*model, encoder_, BundleMeta{}, path).ok());
  EXPECT_TRUE(ModelBundle::Open(path).ok());
}

TEST_F(BundleTest, PackRejectsUnsupportedModels) {
  class OpaqueModel : public Classifier {
   public:
    std::vector<double> PredictProba(const Matrix& X) const override {
      return std::vector<double>(X.rows(), 0.5);
    }
    std::string Name() const override { return "opaque"; }
  };
  OpaqueModel opaque;
  const Status status =
      WriteBundle(opaque, encoder_, BundleMeta{}, TempPath("opaque.ofb"));
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Corruption: every malformed bundle fails with a typed status, never UB
// ---------------------------------------------------------------------------

class BundleCorruptionTest : public BundleTest {
 protected:
  void SetUp() override {
    BundleTest::SetUp();
    auto model = MakeTrainer("xgb", 3)->Fit(X_, y_, weights_);
    path_ = TempPath("corrupt.ofb");
    ASSERT_TRUE(WriteBundle(*model, encoder_, BundleMeta{}, path_).ok());
    image_ = ReadFile(path_);
    ASSERT_GT(image_.size(), 64u);
  }

  void ExpectTypedFailure(const std::string& variant_path,
                          const std::string& context) {
    auto bundle = ModelBundle::Open(variant_path);
    ASSERT_FALSE(bundle.ok()) << context;
    const StatusCode code = bundle.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << context << ": " << bundle.status().ToString();
  }

  std::string path_;
  std::vector<uint8_t> image_;
};

TEST_F(BundleCorruptionTest, TruncationAtEveryStrideFailsTyped) {
  const std::string variant = TempPath("truncated.ofb");
  for (size_t cut = 0; cut < image_.size(); cut += 211) {
    WriteFile(variant,
              std::vector<uint8_t>(image_.begin(), image_.begin() + cut));
    ExpectTypedFailure(variant, "cut at " + std::to_string(cut));
  }
}

TEST_F(BundleCorruptionTest, BitFlipAtEveryStrideFailsTyped) {
  const std::string variant = TempPath("flipped.ofb");
  for (size_t at = 0; at < image_.size(); at += 97) {
    std::vector<uint8_t> flipped = image_;
    flipped[at] ^= 0x10;
    WriteFile(variant, flipped);
    // A flip in zero padding between payloads still trips the whole-image
    // CRC, so every offset must fail.
    ExpectTypedFailure(variant, "flip at " + std::to_string(at));
  }
}

TEST_F(BundleCorruptionTest, CorruptReadFaultSiteTripsCrcGuard) {
  FaultInjector::Arm(fault_sites::kIoCorruptRead);
  auto bundle = ModelBundle::Open(path_);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bundle.status().message().find("near byte"), std::string::npos);
  FaultInjector::Reset();
  // Same file loads cleanly once the site is disarmed.
  EXPECT_TRUE(ModelBundle::Open(path_).ok());
}

TEST_F(BundleCorruptionTest, ForeignAndEmptyFilesFailTyped) {
  const std::string garbage = TempPath("garbage.ofb");
  WriteFile(garbage, std::vector<uint8_t>(4096, 0x5a));
  auto foreign = ModelBundle::Open(garbage);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);

  const std::string empty = TempPath("empty.ofb");
  WriteFile(empty, {});
  auto nothing = ModelBundle::Open(empty);
  ASSERT_FALSE(nothing.ok());
  EXPECT_EQ(nothing.status().code(), StatusCode::kDataLoss);

  auto missing = ModelBundle::Open(TempPath("missing.ofb"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);  // ENOENT
}

TEST_F(BundleCorruptionTest, HugeTreeOffsetTableFailsTypedNotOob) {
  // Adversarial (CRC-valid) image: rewrite the last trees.offsets entry to
  // 2^62. The section sizes stay unchanged, so the only defenses are the
  // overflow-proof element-count check and the int32 total-node bound — a
  // regression here is a 2^62-iteration OOB walk, not a clean failure.
  auto inspection = InspectBundle(path_);
  ASSERT_TRUE(inspection.ok()) << inspection.status().ToString();
  const BundleSectionInfo* offsets = nullptr;
  for (const BundleSectionInfo& section : inspection->sections) {
    if (section.name == "trees.offsets") offsets = &section;
  }
  ASSERT_NE(offsets, nullptr);
  ASSERT_GE(offsets->size, 16u);  // at least [0, end]
  std::vector<uint8_t> evil = image_;
  const uint64_t huge = uint64_t{1} << 62;
  std::memcpy(evil.data() + offsets->offset + offsets->size - 8, &huge, 8);
  const uint32_t crc = Crc32(evil.data(), evil.size() - 4);
  std::memcpy(evil.data() + evil.size() - 4, &crc, 4);
  const std::string variant = TempPath("huge_offsets.ofb");
  WriteFile(variant, evil);
  ExpectTypedFailure(variant, "2^62 tree offset");
}

TEST_F(BundleCorruptionTest, OtherVersionsAreRejected) {
  // Version 1 embedded the encoder as text; 99 is from the future.
  for (uint8_t version : {1, 99}) {
    std::vector<uint8_t> other = image_;
    other[4] = version;  // version field (little-endian u32 at offset 4)
    // Keep the CRC valid so the version check itself is what fires.
    const uint32_t crc = Crc32(other.data(), other.size() - 4);
    std::memcpy(other.data() + other.size() - 4, &crc, 4);
    auto bundle = ModelBundle::Open(std::move(other));
    ASSERT_FALSE(bundle.ok());
    EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bundle.status().message().find("version"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SaveFairModel / LoadFairModel: a FairModel file is a bundle
// ---------------------------------------------------------------------------

TEST(FairModelFileTest, RoundTripWithEncoder) {
  SyntheticOptions options;
  options.num_rows = 2000;
  const Dataset dataset = MakeCompasDataset(options);
  const TrainValTestSplit split = SplitDefault(dataset, 5);
  const FairnessSpec spec = MakeSpec(
      GroupByAttributeValues("race", {"African-American", "Caucasian"}), "sp", 0.05);
  auto trainer = MakeTrainer("lr");
  auto fair = OmniFair().Train(split.train, split.val, trainer.get(), {spec});
  ASSERT_TRUE(fair.ok());

  const std::string path = TempPath("fair_model.ofb");
  ASSERT_TRUE(SaveFairModel(*fair, path).ok());
  auto loaded = LoadFairModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->lambdas, fair->lambdas);
  EXPECT_EQ(loaded->satisfied, fair->satisfied);
  EXPECT_EQ(loaded->val_accuracy, fair->val_accuracy);
  // The loaded model scores raw (un-encoded) rows bit-identically.
  EXPECT_EQ(loaded->PredictProba(split.test), fair->PredictProba(split.test));
  auto original_audit = Audit(*fair->model, fair->encoder, split.test, {spec});
  auto loaded_audit = Audit(*loaded->model, loaded->encoder, split.test, {spec});
  ASSERT_TRUE(original_audit.ok());
  ASSERT_TRUE(loaded_audit.ok());
  EXPECT_EQ(original_audit->max_disparity, loaded_audit->max_disparity);
  // The saved file is the serving artifact as well.
  auto bundle = ModelBundle::Open(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->get()->meta().lambdas, fair->lambdas);
}

TEST(FairModelFileTest, ModelLessSaveRejected) {
  FairModel empty;
  const std::string path = TempPath("never.ofb");
  EXPECT_EQ(SaveFairModel(empty, path).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(FairModelFileTest, DamagedOrForeignFilesFailTyped) {
  const testing_data::Blobs blobs = testing_data::MakeBlobs(80, 1.5, 10);
  FairModel fair;
  fair.model = MakeTrainer("xgb")->Fit(blobs.X, blobs.y, blobs.unit_weights);
  fair.lambdas = {0.125};
  const std::string path = TempPath("fair_model_damaged.ofb");
  ASSERT_TRUE(SaveFairModel(fair, path).ok());
  const std::vector<uint8_t> image = ReadFile(path);

  auto expect_typed = [](const std::string& file, StatusCode code,
                         const std::string& what) {
    Result<FairModel> loaded = LoadFairModel(file);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), code) << what << ": " << loaded.status();
  };
  const std::string variant = TempPath("fair_model_variant.ofb");
  WriteFile(variant, std::vector<uint8_t>(image.begin(),
                                          image.begin() + image.size() / 2));
  expect_typed(variant, StatusCode::kDataLoss, "truncated");
  WriteFile(variant, {});
  expect_typed(variant, StatusCode::kDataLoss, "empty");
  const std::string garbage = "definitely not a model, but long enough to "
                              "hold a bundle header";
  WriteFile(variant, std::vector<uint8_t>(garbage.begin(), garbage.end()));
  expect_typed(variant, StatusCode::kInvalidArgument, "garbage");
  // The text format SaveFairModel wrote before it wrote bundles.
  const std::string text =
      "omnifair_fairmodel 1\nlambdas 0.125\nsatisfied 1 val_accuracy 0.75\n"
      "encoder 1\noptions 1 1 0\nplans 0\nfeatures 0\n"
      "omnifair_model logistic_regression 1\n0\n0.5\n";
  WriteFile(variant, std::vector<uint8_t>(text.begin(), text.end()));
  expect_typed(variant, StatusCode::kInvalidArgument, "text FairModel");
  expect_typed(TempPath("missing.ofb"), StatusCode::kInvalidArgument, "missing");
}

TEST(FairModelFileTest, AwkwardColumnAndCategoryNamesRoundTrip) {
  // A quoted CSV cell may hold a newline; names may start with a space. The
  // encoder spec is length-prefixed, so such names survive every codec that
  // embeds it: the saved model and the chunked dataset footer.
  Dataset dataset("awkward");
  Column color = Column::Categorical(" color\r\nname",
                                     {"red\nish", " blue", "gr\reen"});
  Column size = Column::Numeric("\nsize");
  Rng rng(5);
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) {
    const int code = static_cast<int>(rng.NextBounded(3));
    color.AppendCode(code);
    size.AppendNumeric(rng.NextGaussian() + code);
    labels.push_back(code == 0 ? 1 : static_cast<int>(rng.NextBounded(2)));
  }
  dataset.AddColumn(std::move(color));
  dataset.AddColumn(std::move(size));
  dataset.SetLabels(labels);

  FairModel fair;
  const Matrix X = fair.encoder.FitTransform(dataset);
  fair.model = MakeTrainer("lr", 3)->Fit(X, labels);
  const std::string path = TempPath("awkward.ofb");
  ASSERT_TRUE(SaveFairModel(fair, path).ok());
  auto loaded = LoadFairModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->encoder.feature_names(), fair.encoder.feature_names());
  EXPECT_EQ(loaded->PredictProba(dataset), fair.PredictProba(dataset));

  const std::string chunked_path = TempPath("awkward.ofcd");
  auto writer = ChunkedDatasetWriter::Create(
      chunked_path, static_cast<uint32_t>(fair.encoder.NumFeatures()));
  ASSERT_TRUE(writer.ok()) << writer.status();
  DatasetBlock block;
  block.features = X.ToFloat32();
  block.labels = labels;
  block.groups.assign(labels.size(), 0);
  ASSERT_TRUE(writer->AppendBlock(block).ok());
  ASSERT_TRUE(writer->Finalize("label", "all", {"all"}, fair.encoder).ok());
  auto chunked = ChunkedDataset::Open(chunked_path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();
  Result<FeatureEncoder> encoder = chunked->LoadEncoder();
  ASSERT_TRUE(encoder.ok()) << encoder.status();
  EXPECT_EQ(encoder->feature_names(), fair.encoder.feature_names());
  EXPECT_EQ(encoder->EncodeSpec(), fair.encoder.EncodeSpec());
  const Matrix X2 = encoder->Transform(dataset);
  EXPECT_EQ(X2.data(), X.data());
}

}  // namespace
}  // namespace omnifair
