#include "core/stream_tune.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/spec.h"
#include "core/weights.h"
#include "data/chunked_dataset.h"
#include "data/datasets.h"
#include "data/stream_reader.h"
#include "data/synthetic_stream.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "util/random.h"

namespace omnifair {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct HandBlock {
  std::vector<std::vector<double>> features;
  std::vector<int> labels;
  std::vector<int> groups;
};

/// Writes a chunked dataset from hand-built blocks (group names "a", "b").
void WriteHandChunked(const std::string& path,
                      const std::vector<HandBlock>& blocks) {
  const size_t nf = blocks[0].features[0].size();
  Result<ChunkedDatasetWriter> writer =
      ChunkedDatasetWriter::Create(path, static_cast<uint32_t>(nf));
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const HandBlock& hand : blocks) {
    DatasetBlock block;
    block.features = Matrix::Float32(hand.features.size(), nf);
    for (size_t r = 0; r < hand.features.size(); ++r) {
      for (size_t c = 0; c < nf; ++c) {
        block.features.Set(r, c, hand.features[r][c]);
      }
    }
    block.labels = hand.labels;
    block.groups = hand.groups;
    ASSERT_TRUE(writer->AppendBlock(block).ok());
  }
  ASSERT_TRUE(writer->Finalize("label", "grp", {"a", "b"}, FeatureEncoder()).ok());
}

/// The same rows as an in-memory Dataset (for WeightComputer parity).
Dataset HandDataset(const std::vector<HandBlock>& blocks) {
  Dataset dataset("hand");
  Column grp = Column::Categorical("grp", {"a", "b"});
  std::vector<int> labels;
  for (const HandBlock& hand : blocks) {
    for (size_t r = 0; r < hand.labels.size(); ++r) {
      grp.AppendCode(hand.groups[r]);
      labels.push_back(hand.labels[r]);
    }
  }
  dataset.AddColumn(std::move(grp));
  dataset.SetLabels(std::move(labels));
  return dataset;
}

/// Two all-train blocks (default val_block_period = 5 marks none of them
/// validation) with both groups and both labels represented.
std::vector<HandBlock> ParityBlocks() {
  return {
      {{{1.0}, {2.0}, {3.0}, {4.0}},
       {1, 0, 1, 0},
       {0, 0, 1, 1}},
      {{{5.0}, {6.0}, {7.0}},
       {1, 1, 0},
       {0, 1, 1}},
  };
}

TEST(StreamCoefficientTableTest, WeightsMatchInMemoryWeightComputer) {
  const std::vector<HandBlock> blocks = ParityBlocks();
  const std::string path = TempPath("parity.ofcd");
  WriteHandChunked(path, blocks);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();

  const Dataset train = HandDataset(blocks);
  const std::vector<MetricKind> metrics = {
      MetricKind::kStatisticalParity, MetricKind::kMisclassificationRate,
      MetricKind::kFalsePositiveRate, MetricKind::kFalseNegativeRate};
  for (MetricKind metric : metrics) {
    StreamTuneOptions options;
    options.metric = metric;
    Result<StreamCoefficientTable> table =
        BuildStreamCoefficientTable(*chunked, options);
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ(table->n_train, train.NumRows());

    // GroupByAttribute("grp") induces the single pairwise constraint
    // ("a", "b") — the same pair as stream group1=0, group2=1.
    Result<std::vector<ConstraintSpec>> constraints = InduceConstraints(
        MakeSpec(GroupByAttribute("grp"), metric, options.epsilon), train);
    ASSERT_TRUE(constraints.ok()) << constraints.status();
    ASSERT_EQ(constraints->size(), 1u);
    ASSERT_EQ((*constraints)[0].group1, "a");
    ASSERT_EQ((*constraints)[0].group2, "b");
    WeightComputer computer(*constraints, train);

    for (double lambda : {0.0, 0.3, -0.7, 2.5, -40.0}) {
      const std::vector<double> expected = computer.Compute(lambda, nullptr);
      ASSERT_EQ(expected.size(), train.NumRows());
      for (size_t i = 0; i < expected.size(); ++i) {
        const int g = train.ColumnByName("grp").Code(i);
        const double s = table->s[static_cast<size_t>(g)]
                                 [static_cast<size_t>(train.Label(i))];
        const double streamed = std::max(
            0.0, 1.0 + static_cast<double>(table->n_train) * lambda * s);
        EXPECT_DOUBLE_EQ(streamed, expected[i])
            << "metric " << static_cast<int>(metric) << " lambda " << lambda
            << " row " << i;
      }
    }
  }
}

TEST(StreamCoefficientTableTest, RejectsPredictionDependentMetrics) {
  const std::string path = TempPath("reject_for.ofcd");
  WriteHandChunked(path, ParityBlocks());
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok());
  for (MetricKind metric :
       {MetricKind::kFalseOmissionRate, MetricKind::kFalseDiscoveryRate}) {
    StreamTuneOptions options;
    options.metric = metric;
    Result<StreamCoefficientTable> table =
        BuildStreamCoefficientTable(*chunked, options);
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().code(), StatusCode::kUnsupported);
  }
}

TEST(StreamCoefficientTableTest, RejectsBadGroupIndices) {
  const std::string path = TempPath("reject_groups.ofcd");
  WriteHandChunked(path, ParityBlocks());
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok());
  StreamTuneOptions options;
  options.group1 = 0;
  options.group2 = 7;  // out of range
  EXPECT_FALSE(BuildStreamCoefficientTable(*chunked, options).ok());
  options.group2 = 0;  // same as group1
  EXPECT_FALSE(BuildStreamCoefficientTable(*chunked, options).ok());
}

// ---------------------------------------------------------------------------
// Packed reads: PackedBlock::Dot / Axpy against the densified rows
// ---------------------------------------------------------------------------

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// Ingests `csv` in blocks of `block_rows` (label "label", groups "grp").
std::string IngestCsv(const std::string& name, const std::string& csv,
                      size_t block_rows, bool one_hot) {
  const std::string csv_path = TempPath(name + ".csv");
  const std::string out = TempPath(name + ".ofcd");
  WriteFile(csv_path, csv);
  StreamIngestOptions options;
  options.label_column = "label";
  options.group_column = "grp";
  options.block_rows = block_rows;
  options.encoder.one_hot_categorical = one_hot;
  Result<IngestStats> stats = StreamCsvToChunked(csv_path, out, options);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return out;
}

/// Numeric and categorical columns interleaved; "teal" and "c" first appear
/// after block 0, so they take the unseen-category sentinel.
std::string MixedCsv() {
  return
      "age,color,grp,score,size,label\n"
      "25,red,a,1.5,s,1\n"
      "40,blue,b,2.5,m,0\n"
      "31,red,a,0.5,l,1\n"
      "52,teal,c,3.5,m,0\n"
      "47,blue,a,2.0,s,1\n"
      "29,red,b,1.0,l,0\n"
      "33,teal,b,0.25,s,1\n";
}

/// For random theta, every row's packed margin and scatter must equal the
/// dense kernels over the MaterializeBlock row. Returns the rows checked.
size_t ExpectPackedMatchesDense(const std::string& path) {
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  EXPECT_TRUE(chunked.ok()) << chunked.status();
  if (!chunked.ok()) return 0;
  const size_t d = chunked->meta().num_features;
  const simd::Kernels& kernels = simd::Active();
  Rng rng(5);
  std::vector<double> theta(d), grad_packed(d), grad_dense(d);
  PackedBlock packed;
  size_t checked = 0;
  for (size_t b = 0; b < chunked->num_blocks(); ++b) {
    Result<DatasetBlock> dense = chunked->MaterializeBlock(b);
    EXPECT_TRUE(dense.ok()) << dense.status();
    const Status read = chunked->ReadPacked(b, &packed);
    EXPECT_TRUE(read.ok()) << read;
    if (!dense.ok() || !read.ok()) return checked;
    EXPECT_EQ(packed.rows(), dense->labels.size());
    for (size_t r = 0; r < packed.rows(); ++r) {
      EXPECT_EQ(packed.Label(r), dense->labels[r]);
      EXPECT_EQ(packed.Group(r), dense->groups[r]);
      for (size_t c = 0; c < d; ++c) {
        theta[c] = rng.NextUniform(-2.0, 2.0);
        grad_packed[c] = grad_dense[c] = rng.NextUniform(-1.0, 1.0);
      }
      const double expected =
          kernels.dot_f32(dense->features.RowF(r), theta.data(), d);
      EXPECT_NEAR(packed.Dot(r, theta.data()), expected,
                  1e-12 * std::max(1.0, std::fabs(expected)))
          << path << " block " << b << " row " << r;
      const double s = rng.NextUniform(-3.0, 3.0);
      packed.Axpy(s, r, grad_packed.data());
      kernels.axpy_f32(s, dense->features.RowF(r), grad_dense.data(), d);
      for (size_t c = 0; c < d; ++c) {
        EXPECT_NEAR(grad_packed[c], grad_dense[c],
                    1e-12 * std::max(1.0, std::fabs(grad_dense[c])))
            << path << " block " << b << " row " << r << " col " << c;
      }
      ++checked;
    }
  }
  return checked;
}

// Row counts of 3 and 1 per block leave each block's group, float and code
// streams off their natural alignment (and blocks start at odd offsets), so
// a typed load there would trip UBSan's alignment check.
TEST(PackedBlockTest, NumericSegmentMatchesDenseKernels) {
  const std::string path = TempPath("packed_numeric.ofcd");
  WriteHandChunked(
      path, {{{{1.0, -2.0, 0.5}, {3.0, 0.25, -1.0}, {2.0, 2.0, 2.0}},
              {1, 0, 1},
              {0, 1, 0}},
             {{{-4.0, 1.5, 0.0}}, {0}, {1}}});
  EXPECT_EQ(ExpectPackedMatchesDense(path), 4u);
}

TEST(PackedBlockTest, OneHotSegmentsWithUnseenCategoryMatchDenseKernels) {
  // The stream_reader unseen-category fixture: "c" arrives in block 1.
  EXPECT_EQ(ExpectPackedMatchesDense(IngestCsv(
                "packed_unseen", "grp,label\na,1\nb,0\nc,1\na,0\n", 2,
                /*one_hot=*/true)),
            4u);
  const std::string mixed = IngestCsv("packed_onehot", MixedCsv(), 3, true);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(mixed);
  ASSERT_TRUE(chunked.ok());
  const auto& segments = chunked->meta().layout.segments;
  EXPECT_TRUE(std::any_of(segments.begin(), segments.end(), [](const auto& s) {
    return s.kind == SegmentKind::kOneHotU16;
  }));
  EXPECT_EQ(ExpectPackedMatchesDense(mixed), 7u);
}

TEST(PackedBlockTest, RawCodeSegmentsMatchDenseKernels) {
  const std::string path = IngestCsv("packed_codes", MixedCsv(), 3,
                                     /*one_hot=*/false);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok());
  const auto& segments = chunked->meta().layout.segments;
  EXPECT_TRUE(std::any_of(segments.begin(), segments.end(), [](const auto& s) {
    return s.kind == SegmentKind::kCodeU16;
  }));
  EXPECT_EQ(ExpectPackedMatchesDense(path), 7u);
}

/// Streams a synthetic COMPAS sample to disk for end-to-end tuning tests.
std::string StreamedCompas(const std::string& name, size_t rows,
                           size_t block_rows) {
  const std::string path = TempPath(name);
  synthetic::StreamGenerateOptions options;
  options.num_rows = rows;
  options.block_rows = block_rows;
  options.seed = 42;
  Result<synthetic::StreamGenerateStats> stats =
      synthetic::GenerateSyntheticStream(MakeCompasSchema(), path, options);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return path;
}

TEST(StreamTuneTest, SatisfiesStatisticalParityOnStreamedCompas) {
  const std::string path = StreamedCompas("tune_sp.ofcd", 6000, 512);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();

  StreamTuneOptions options;
  options.metric = MetricKind::kStatisticalParity;
  options.epsilon = 0.05;
  options.batch_size = 256;
  options.epochs = 3;
  Result<StreamTuneResult> tuned = StreamTuneLambda(*chunked, options);
  ASSERT_TRUE(tuned.ok()) << tuned.status();
  EXPECT_TRUE(tuned->satisfied);
  EXPECT_LE(std::fabs(tuned->val_fairness_gap), options.epsilon);
  EXPECT_GT(tuned->val_accuracy, 0.55);
  EXPECT_GE(tuned->models_trained, 1);
  EXPECT_EQ(tuned->theta.size(), chunked->meta().num_features + 1);
  for (double t : tuned->theta) EXPECT_TRUE(std::isfinite(t));
}

TEST(StreamTuneTest, BitwiseDeterministicAcrossRuns) {
  const std::string path = StreamedCompas("tune_det.ofcd", 4000, 512);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status();

  StreamTuneOptions options;
  options.batch_size = 128;
  options.epochs = 2;
  Result<StreamTuneResult> first = StreamTuneLambda(*chunked, options);
  Result<StreamTuneResult> second = StreamTuneLambda(*chunked, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->lambda, second->lambda);
  EXPECT_EQ(first->models_trained, second->models_trained);
  ASSERT_EQ(first->theta.size(), second->theta.size());
  for (size_t i = 0; i < first->theta.size(); ++i) {
    EXPECT_EQ(first->theta[i], second->theta[i]) << "theta[" << i << "]";
  }
}

TEST(StreamTuneTest, PackedAndDenseStoresTuneAlike) {
  // The same rows stored one-hot (packed codes) and re-stored dense
  // (DenseF32): the packed margins differ only in summation order, so the
  // tune takes the same path and lands within rounding of the same model.
  const std::string packed_path = StreamedCompas("tune_packed.ofcd", 5000, 777);
  Result<ChunkedDataset> packed = ChunkedDataset::Open(packed_path);
  ASSERT_TRUE(packed.ok()) << packed.status();
  ASSERT_GT(packed->meta().layout.CodesPerRow(), 0u);

  const std::string dense_path = TempPath("tune_dense.ofcd");
  {
    Result<ChunkedDatasetWriter> writer = ChunkedDatasetWriter::Create(
        dense_path, packed->meta().num_features);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (size_t b = 0; b < packed->num_blocks(); ++b) {
      Result<DatasetBlock> block = packed->MaterializeBlock(b);
      ASSERT_TRUE(block.ok()) << block.status();
      ASSERT_TRUE(writer->AppendBlock(*block).ok());
    }
    Result<FeatureEncoder> encoder = packed->LoadEncoder();
    ASSERT_TRUE(encoder.ok()) << encoder.status();
    ASSERT_TRUE(writer->Finalize(packed->meta().label_name,
                                 packed->meta().group_column,
                                 packed->meta().group_names, *encoder)
                    .ok());
  }
  Result<ChunkedDataset> dense = ChunkedDataset::Open(dense_path);
  ASSERT_TRUE(dense.ok()) << dense.status();
  ASSERT_EQ(dense->meta().layout.CodesPerRow(), 0u);

  StreamTuneOptions options;
  options.epsilon = 0.03;
  options.batch_size = 256;
  options.epochs = 2;
  Result<StreamTuneResult> from_packed = StreamTuneLambda(*packed, options);
  Result<StreamTuneResult> from_dense = StreamTuneLambda(*dense, options);
  ASSERT_TRUE(from_packed.ok()) << from_packed.status();
  ASSERT_TRUE(from_dense.ok()) << from_dense.status();
  EXPECT_GT(from_packed->models_trained, 1);  // the search actually ran
  EXPECT_EQ(from_packed->lambda, from_dense->lambda);
  EXPECT_EQ(from_packed->models_trained, from_dense->models_trained);
  EXPECT_EQ(from_packed->satisfied, from_dense->satisfied);
  EXPECT_EQ(from_packed->val_accuracy, from_dense->val_accuracy);
  EXPECT_EQ(from_packed->val_fairness_gap, from_dense->val_fairness_gap);
  ASSERT_EQ(from_packed->theta.size(), from_dense->theta.size());
  for (size_t i = 0; i < from_packed->theta.size(); ++i) {
    EXPECT_NEAR(from_packed->theta[i], from_dense->theta[i], 1e-9)
        << "theta[" << i << "]";
  }
}

TEST(StreamTuneTest, LambdaZeroWhenUnconstrained) {
  // epsilon = 1 is satisfied by any model, so the tuner returns the base fit.
  const std::string path = StreamedCompas("tune_loose.ofcd", 3000, 512);
  Result<ChunkedDataset> chunked = ChunkedDataset::Open(path);
  ASSERT_TRUE(chunked.ok());
  StreamTuneOptions options;
  options.epsilon = 1.0;
  options.batch_size = 256;
  options.epochs = 2;
  Result<StreamTuneResult> tuned = StreamTuneLambda(*chunked, options);
  ASSERT_TRUE(tuned.ok()) << tuned.status();
  EXPECT_TRUE(tuned->satisfied);
  EXPECT_EQ(tuned->lambda, 0.0);
  EXPECT_EQ(tuned->models_trained, 1);
}

}  // namespace
}  // namespace omnifair
