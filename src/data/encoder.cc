#include "data/encoder.h"

#include <cmath>
#include <string_view>
#include <unordered_map>

#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/snapshot_io.h"

namespace omnifair {
namespace {

/// One-hot position of a category the fit never saw.
constexpr size_t kUnseen = static_cast<size_t>(-1);

bool IsDropped(const std::string& name, const EncoderOptions& options) {
  for (const std::string& dropped : options.drop_columns) {
    if (dropped == name) return true;
  }
  return false;
}

}  // namespace

void FeatureEncoder::Fit(const Dataset& dataset, const EncoderOptions& options) {
  options_ = options;
  plans_.clear();
  feature_names_.clear();
  for (const Column& col : dataset.columns()) {
    if (IsDropped(col.name(), options_)) continue;
    ColumnPlan plan;
    plan.name = col.name();
    plan.type = col.type();
    if (col.type() == ColumnType::kNumeric) {
      if (options_.standardize_numeric) {
        plan.mean = Mean(col.numeric_values());
        plan.stddev = StdDev(col.numeric_values());
        if (plan.stddev < 1e-12) plan.stddev = 1.0;
      }
      feature_names_.push_back(plan.name);
    } else {
      plan.num_categories = col.categories().size();
      if (options_.one_hot_categorical) {
        plan.categories = col.categories();
        for (const std::string& cat : col.categories()) {
          feature_names_.push_back(plan.name + "=" + cat);
        }
      } else {
        feature_names_.push_back(plan.name);  // raw integer code
      }
    }
    plans_.push_back(std::move(plan));
  }
}

Matrix FeatureEncoder::Transform(const Dataset& dataset) const {
  const size_t n = dataset.NumRows();
  // Values are narrowed at encode time when float32 storage is requested, so
  // downstream trainers never pay a conversion pass.
  Matrix out = options_.float32_features
                   ? Matrix::Float32(n, feature_names_.size())
                   : Matrix(n, feature_names_.size());
  size_t offset = 0;
  for (const ColumnPlan& plan : plans_) {
    const Column& col = dataset.ColumnByName(plan.name);
    OF_CHECK(col.type() == plan.type) << "column type changed for " << plan.name;
    if (plan.type == ColumnType::kNumeric) {
      for (size_t r = 0; r < n; ++r) {
        double value = col.NumericValue(r);
        if (options_.standardize_numeric) value = (value - plan.mean) / plan.stddev;
        out.Set(r, offset, value);
      }
      offset += 1;
    } else if (options_.one_hot_categorical) {
      // The dataset's codes index its own dictionary: map each one to the
      // fitted position of the same name, once per call.
      std::unordered_map<std::string_view, size_t> fitted;
      for (size_t k = 0; k < plan.categories.size(); ++k) {
        fitted.emplace(plan.categories[k], k);
      }
      std::vector<size_t> position;
      position.reserve(col.categories().size());
      for (const std::string& cat : col.categories()) {
        const auto it = fitted.find(cat);
        position.push_back(it == fitted.end() ? kUnseen : it->second);
      }
      for (size_t r = 0; r < n; ++r) {
        const int code = col.Code(r);
        if (code < 0 || static_cast<size_t>(code) >= position.size()) continue;
        const size_t k = position[static_cast<size_t>(code)];
        if (k != kUnseen) out.Set(r, offset + k, 1.0);
      }
      offset += plan.num_categories;
    } else {
      for (size_t r = 0; r < n; ++r) out.Set(r, offset, col.Code(r));
      offset += 1;
    }
  }
  OF_CHECK_EQ(offset, feature_names_.size());
  return out;
}

Matrix FeatureEncoder::FitTransform(const Dataset& dataset,
                                    const EncoderOptions& options) {
  Fit(dataset, options);
  return Transform(dataset);
}

std::vector<uint8_t> FeatureEncoder::EncodeSpec() const {
  BinaryWriter writer;
  writer.U8(options_.standardize_numeric ? 1 : 0);
  writer.U8(options_.one_hot_categorical ? 1 : 0);
  writer.U64(plans_.size());
  for (const ColumnPlan& plan : plans_) {
    writer.String(plan.name);
    writer.U8(static_cast<uint8_t>(plan.type));
    writer.F64(plan.mean);
    writer.F64(plan.stddev);
    writer.U64(plan.num_categories);
    writer.U64(plan.categories.size());
    for (const std::string& category : plan.categories) writer.String(category);
  }
  return writer.TakeBuffer();
}

Result<FeatureEncoder> FeatureEncoder::DecodeSpec(const uint8_t* data,
                                                  size_t size) {
  BinaryReader reader(data, size);
  FeatureEncoder encoder;
  uint8_t standardize = 0;
  uint8_t one_hot = 0;
  uint64_t num_plans = 0;
  if (!reader.U8(&standardize) || !reader.U8(&one_hot) ||
      !reader.U64(&num_plans)) {
    return reader.status();
  }
  encoder.options_.standardize_numeric = standardize != 0;
  encoder.options_.one_hot_categorical = one_hot != 0;
  // Counts are never reserved up front: every element reads at least four
  // bytes, so a corrupt count fails at the end of the data instead.
  for (uint64_t i = 0; i < num_plans; ++i) {
    ColumnPlan plan;
    uint8_t type = 0;
    uint64_t num_categories = 0;
    uint64_t num_names = 0;
    if (!reader.String(&plan.name) || !reader.U8(&type) ||
        !reader.F64(&plan.mean) || !reader.F64(&plan.stddev) ||
        !reader.U64(&num_categories) || !reader.U64(&num_names)) {
      return reader.status();
    }
    if (type > static_cast<uint8_t>(ColumnType::kCategorical)) {
      return Status::InvalidArgument("encoder spec: column " + plan.name +
                                     " has unknown type " +
                                     std::to_string(type));
    }
    plan.type = static_cast<ColumnType>(type);
    plan.num_categories = static_cast<size_t>(num_categories);
    for (uint64_t k = 0; k < num_names; ++k) {
      std::string category;
      if (!reader.String(&category)) return reader.status();
      plan.categories.push_back(std::move(category));
    }
    // Transform writes num_categories one-hot slots and looks each one up in
    // `categories`, so the two must agree for a one-hot column.
    const bool one_hot_column = plan.type == ColumnType::kCategorical &&
                                encoder.options_.one_hot_categorical;
    if (plan.categories.size() != (one_hot_column ? plan.num_categories : 0)) {
      return Status::InvalidArgument(
          "encoder spec: column " + plan.name + " declares " +
          std::to_string(plan.num_categories) + " categories but names " +
          std::to_string(plan.categories.size()));
    }
    if (one_hot_column) {
      for (const std::string& category : plan.categories) {
        encoder.feature_names_.push_back(plan.name + "=" + category);
      }
    } else {
      encoder.feature_names_.push_back(plan.name);
    }
    encoder.plans_.push_back(std::move(plan));
  }
  if (!reader.exhausted()) {
    return Status::DataLoss("encoder spec has " +
                            std::to_string(reader.remaining()) +
                            " trailing bytes at byte " +
                            std::to_string(reader.offset()));
  }
  return encoder;
}

}  // namespace omnifair
