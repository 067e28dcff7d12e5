#include "data/encoder.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace omnifair {
namespace {

Dataset ToyDataset() {
  Dataset d("toy");
  Column age = Column::Numeric("age");
  Column g = Column::Categorical("g", {"a", "b", "c"});
  const double ages[] = {10.0, 20.0, 30.0, 40.0};
  const int codes[] = {0, 1, 2, 0};
  for (int i = 0; i < 4; ++i) {
    age.AppendNumeric(ages[i]);
    g.AppendCode(codes[i]);
  }
  d.AddColumn(std::move(age));
  d.AddColumn(std::move(g));
  d.SetLabels({0, 1, 0, 1});
  return d;
}

TEST(EncoderTest, FeatureLayout) {
  FeatureEncoder encoder;
  encoder.Fit(ToyDataset());
  // 1 numeric + 3 one-hot.
  EXPECT_EQ(encoder.NumFeatures(), 4u);
  EXPECT_EQ(encoder.feature_names()[0], "age");
  EXPECT_EQ(encoder.feature_names()[1], "g=a");
  EXPECT_EQ(encoder.feature_names()[3], "g=c");
}

TEST(EncoderTest, StandardizesNumeric) {
  FeatureEncoder encoder;
  const Dataset d = ToyDataset();
  const Matrix X = encoder.FitTransform(d);
  double mean = 0.0;
  for (size_t r = 0; r < 4; ++r) mean += X(r, 0);
  mean /= 4.0;
  EXPECT_NEAR(mean, 0.0, 1e-12);
  double var = 0.0;
  for (size_t r = 0; r < 4; ++r) var += X(r, 0) * X(r, 0);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-12);
}

TEST(EncoderTest, OneHotCorrect) {
  FeatureEncoder encoder;
  const Dataset d = ToyDataset();
  const Matrix X = encoder.FitTransform(d);
  // Row 1 is category "b" -> column 2 set.
  EXPECT_DOUBLE_EQ(X(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(X(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(X(1, 3), 0.0);
}

TEST(EncoderTest, TransformUsesTrainStatistics) {
  FeatureEncoder encoder;
  const Dataset train = ToyDataset();
  encoder.Fit(train);
  // A "validation" dataset with different values must use train's mean/std.
  Dataset val("toy");
  Column age = Column::Numeric("age");
  Column g = Column::Categorical("g", {"a", "b", "c"});
  age.AppendNumeric(25.0);  // train mean -> 0
  g.AppendCode(1);
  val.AddColumn(std::move(age));
  val.AddColumn(std::move(g));
  val.SetLabels({0});
  const Matrix X = encoder.Transform(val);
  EXPECT_NEAR(X(0, 0), 0.0, 1e-12);
}

TEST(EncoderTest, EncodesCategoriesByNameAcrossDictionaries) {
  // A dataset read from another CSV has its own dictionary: "c" and "a" in
  // another order, "z" never seen by the fit. Each cell must land on the
  // fitted column of its name, also after a save/load round trip.
  FeatureEncoder fitted;
  fitted.Fit(ToyDataset());
  const std::vector<uint8_t> spec = fitted.EncodeSpec();
  Result<FeatureEncoder> loaded = FeatureEncoder::DecodeSpec(spec.data(), spec.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  Dataset request("request");
  Column age = Column::Numeric("age");
  Column g = Column::Categorical("g", {"c", "z", "a"});
  for (int code : {0, 1, 2}) {
    age.AppendNumeric(25.0);
    g.AppendCode(code);
  }
  request.AddColumn(std::move(age));
  request.AddColumn(std::move(g));
  request.SetLabels({0, 1, 0});

  // Columns: age, g=a, g=b, g=c.
  const std::vector<std::vector<double>> expected = {
      {0.0, 0.0, 1.0}, {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  for (const FeatureEncoder* encoder : {&fitted, &*loaded}) {
    const Matrix X = encoder->Transform(request);
    ASSERT_EQ(X.cols(), 4u);
    for (size_t r = 0; r < 3; ++r) {
      for (size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(X(r, 1 + k), expected[r][k]) << "row " << r << " g=" << k;
      }
    }
  }
}

TEST(EncoderTest, DropColumns) {
  FeatureEncoder encoder;
  EncoderOptions options;
  options.drop_columns = {"g"};
  encoder.Fit(ToyDataset(), options);
  EXPECT_EQ(encoder.NumFeatures(), 1u);
  EXPECT_EQ(encoder.feature_names()[0], "age");
}

TEST(EncoderTest, NoStandardization) {
  FeatureEncoder encoder;
  EncoderOptions options;
  options.standardize_numeric = false;
  const Matrix X = encoder.FitTransform(ToyDataset(), options);
  EXPECT_DOUBLE_EQ(X(0, 0), 10.0);
}

TEST(EncoderTest, ConstantColumnDoesNotDivideByZero) {
  Dataset d("const");
  Column c = Column::Numeric("c");
  for (int i = 0; i < 3; ++i) c.AppendNumeric(5.0);
  d.AddColumn(std::move(c));
  d.SetLabels({0, 1, 0});
  FeatureEncoder encoder;
  const Matrix X = encoder.FitTransform(d);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(std::isfinite(X(r, 0)));
    EXPECT_DOUBLE_EQ(X(r, 0), 0.0);
  }
}

TEST(EncoderTest, IntegerCodesWithoutOneHot) {
  FeatureEncoder encoder;
  EncoderOptions options;
  options.one_hot_categorical = false;
  const Matrix X = encoder.FitTransform(ToyDataset(), options);
  EXPECT_EQ(encoder.NumFeatures(), 2u);
  EXPECT_DOUBLE_EQ(X(2, 1), 2.0);  // raw code of "c"
}

TEST(EncoderTest, Float32FeaturesNarrowStorageOnly) {
  const Dataset d = ToyDataset();
  FeatureEncoder f64;
  const Matrix Xd = f64.FitTransform(d);
  FeatureEncoder f32;
  EncoderOptions options;
  options.float32_features = true;
  const Matrix Xf = f32.FitTransform(d, options);
  EXPECT_TRUE(Xf.is_float32());
  ASSERT_EQ(Xf.rows(), Xd.rows());
  ASSERT_EQ(Xf.cols(), Xd.cols());
  for (size_t r = 0; r < Xd.rows(); ++r) {
    for (size_t c = 0; c < Xd.cols(); ++c) {
      // Each element is exactly the double encoding narrowed once to float.
      EXPECT_DOUBLE_EQ(Xf(r, c),
                       static_cast<double>(static_cast<float>(Xd(r, c))));
    }
  }
}

TEST(EncoderTest, Float32OptionDoesNotChangeSerialization) {
  EncoderOptions options;
  options.float32_features = true;
  FeatureEncoder f32;
  f32.Fit(ToyDataset(), options);
  FeatureEncoder plain;
  plain.Fit(ToyDataset());
  EXPECT_EQ(f32.EncodeSpec(), plain.EncodeSpec());
}

TEST(EncoderTest, SpecRoundTripsExactlyAndFailsTyped) {
  EncoderOptions options;
  options.one_hot_categorical = false;
  for (const EncoderOptions& mode : {EncoderOptions{}, options}) {
    FeatureEncoder fitted;
    fitted.Fit(ToyDataset(), mode);
    const std::vector<uint8_t> spec = fitted.EncodeSpec();
    Result<FeatureEncoder> loaded =
        FeatureEncoder::DecodeSpec(spec.data(), spec.size());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->feature_names(), fitted.feature_names());
    EXPECT_EQ(loaded->EncodeSpec(), spec);
    // Every strict prefix and a one-byte extension are data loss.
    for (size_t cut = 0; cut < spec.size(); ++cut) {
      Result<FeatureEncoder> truncated = FeatureEncoder::DecodeSpec(spec.data(), cut);
      ASSERT_FALSE(truncated.ok()) << "cut at " << cut;
      EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss) << "cut at " << cut;
    }
    std::vector<uint8_t> extended = spec;
    extended.push_back(0);
    EXPECT_EQ(FeatureEncoder::DecodeSpec(extended.data(), extended.size())
                  .status()
                  .code(),
              StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace omnifair
