#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/vector_ops.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {
namespace {

/// Builds one regression tree on (grad, hess) and returns the node array.
class GbdtTreeBuilder {
 public:
  GbdtTreeBuilder(const Matrix& X, const std::vector<double>& grad,
                  const std::vector<double>& hess, const GbdtOptions& options)
      : X_(X), grad_(grad), hess_(hess), options_(options) {}

  std::vector<TreeBuildNode> Build() {
    std::vector<size_t> all(X_.rows());
    std::iota(all.begin(), all.end(), 0);
    BuildNode(std::move(all), 0);
    return std::move(nodes_);
  }

 private:
  double LeafValue(double g, double h) const {
    return -g / (h + options_.reg_lambda);
  }

  double ScoreHalf(double g, double h) const {
    return g * g / (h + options_.reg_lambda);
  }

  int BuildNode(std::vector<size_t> samples, int depth) {
    double g_total = 0.0;
    double h_total = 0.0;
    for (size_t i : samples) {
      g_total += grad_[i];
      h_total += hess_[i];
    }

    const int node_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_index].value = LeafValue(g_total, h_total);

    if (depth >= options_.max_depth || samples.size() < 2 ||
        h_total < 2.0 * options_.min_child_weight) {
      return node_index;
    }

    // Exact greedy split: per feature, sort and scan.
    bool found = false;
    size_t best_feature = 0;
    double best_threshold = 0.0;
    double best_gain = options_.min_split_gain;
    order_.assign(samples.begin(), samples.end());
    const double parent_score = ScoreHalf(g_total, h_total);
    for (size_t feature = 0; feature < X_.cols(); ++feature) {
      std::sort(order_.begin(), order_.end(), [this, feature](size_t a, size_t b) {
        return X_(a, feature) < X_(b, feature);
      });
      double g_left = 0.0;
      double h_left = 0.0;
      for (size_t k = 0; k + 1 < order_.size(); ++k) {
        const size_t i = order_[k];
        g_left += grad_[i];
        h_left += hess_[i];
        const double value = X_(i, feature);
        const double next_value = X_(order_[k + 1], feature);
        if (next_value <= value) continue;
        const double h_right = h_total - h_left;
        if (h_left < options_.min_child_weight || h_right < options_.min_child_weight) {
          continue;
        }
        const double g_right = g_total - g_left;
        const double gain =
            0.5 * (ScoreHalf(g_left, h_left) + ScoreHalf(g_right, h_right) -
                   parent_score);
        if (gain > best_gain + 1e-12) {
          found = true;
          best_feature = feature;
          best_threshold = 0.5 * (value + next_value);
          best_gain = gain;
        }
      }
    }
    if (!found) return node_index;

    std::vector<size_t> left_samples;
    std::vector<size_t> right_samples;
    for (size_t i : samples) {
      (X_(i, best_feature) <= best_threshold ? left_samples : right_samples)
          .push_back(i);
    }
    if (left_samples.empty() || right_samples.empty()) return node_index;
    samples.clear();
    samples.shrink_to_fit();

    const int left = BuildNode(std::move(left_samples), depth + 1);
    const int right = BuildNode(std::move(right_samples), depth + 1);
    nodes_[node_index].is_leaf = false;
    nodes_[node_index].feature = static_cast<int>(best_feature);
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  const Matrix& X_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const GbdtOptions& options_;
  std::vector<TreeBuildNode> nodes_;
  /// Per-node scratch, hoisted so split search does not allocate per node.
  std::vector<size_t> order_;
};

/// Histogram-mode builder (DESIGN.md §11): per-feature (sum_grad, sum_hess)
/// bin histograms replace the per-node sort, and each split rescans only the
/// smaller child (the larger one is parent minus sibling). Stopping rules,
/// gain arithmetic, and tie-breaking mirror GbdtTreeBuilder; only the
/// candidate threshold set differs.
class GbdtHistTreeBuilder {
 public:
  GbdtHistTreeBuilder(const Matrix& X, const std::vector<double>& grad,
                      const std::vector<double>& hess, const GbdtOptions& options,
                      const BinnedMatrix& binned)
      : X_(X),
        grad_(grad),
        hess_(hess),
        options_(options),
        binned_(binned),
        stride_(static_cast<size_t>(binned.max_bins())) {}

  std::vector<TreeBuildNode> Build() {
    std::vector<size_t> all(X_.rows());
    std::iota(all.begin(), all.end(), 0);
    NodeHistogram root;
    FillNodeHistogram(binned_, all, grad_.data(), hess_.data(),
                      options_.num_threads, &root);
    BuildNode(std::move(all), std::move(root), 0);
    return std::move(nodes_);
  }

 private:
  double LeafValue(double g, double h) const {
    return -g / (h + options_.reg_lambda);
  }

  double ScoreHalf(double g, double h) const {
    return g * g / (h + options_.reg_lambda);
  }

  int BuildNode(std::vector<size_t> samples, NodeHistogram hist, int depth) {
    double g_total = 0.0;
    double h_total = 0.0;
    for (size_t i : samples) {
      g_total += grad_[i];
      h_total += hess_[i];
    }

    const int node_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_index].value = LeafValue(g_total, h_total);

    if (depth >= options_.max_depth || samples.size() < 2 ||
        h_total < 2.0 * options_.min_child_weight) {
      return node_index;
    }

    bool found = false;
    size_t best_feature = 0;
    int best_bin = -1;
    double best_threshold = 0.0;
    double best_gain = options_.min_split_gain;
    const double parent_score = ScoreHalf(g_total, h_total);
    for (size_t feature = 0; feature < X_.cols(); ++feature) {
      const int num_bins = binned_.NumBins(feature);
      const double* hg = hist.first.data() + feature * stride_;
      const double* hh = hist.second.data() + feature * stride_;
      double g_left = 0.0;
      double h_left = 0.0;
      for (int b = 0; b + 1 < num_bins; ++b) {
        g_left += hg[b];
        h_left += hh[b];
        const double h_right = h_total - h_left;
        if (h_left < options_.min_child_weight ||
            h_right < options_.min_child_weight) {
          continue;
        }
        const double g_right = g_total - g_left;
        const double gain =
            0.5 * (ScoreHalf(g_left, h_left) + ScoreHalf(g_right, h_right) -
                   parent_score);
        if (gain > best_gain + 1e-12) {
          found = true;
          best_feature = feature;
          best_bin = b;
          best_threshold = binned_.Boundary(feature, b);
          best_gain = gain;
        }
      }
    }
    if (!found) return node_index;

    const uint8_t* codes = binned_.Column(best_feature);
    std::vector<size_t> left_samples;
    std::vector<size_t> right_samples;
    left_samples.reserve(samples.size());
    right_samples.reserve(samples.size());
    for (size_t i : samples) {
      (codes[i] <= best_bin ? left_samples : right_samples).push_back(i);
    }
    if (left_samples.empty() || right_samples.empty()) return node_index;
    samples.clear();
    samples.shrink_to_fit();

    // Scan only the smaller child; the larger one inherits parent - sibling.
    const bool left_is_smaller = left_samples.size() <= right_samples.size();
    NodeHistogram small_hist;
    FillNodeHistogram(binned_, left_is_smaller ? left_samples : right_samples,
                      grad_.data(), hess_.data(), options_.num_threads,
                      &small_hist);
    hist.SubtractSibling(small_hist);
    NodeHistogram left_hist = left_is_smaller ? std::move(small_hist) : std::move(hist);
    NodeHistogram right_hist =
        left_is_smaller ? std::move(hist) : std::move(small_hist);

    const int left = BuildNode(std::move(left_samples), std::move(left_hist), depth + 1);
    const int right =
        BuildNode(std::move(right_samples), std::move(right_hist), depth + 1);
    nodes_[node_index].is_leaf = false;
    nodes_[node_index].feature = static_cast<int>(best_feature);
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  const Matrix& X_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const GbdtOptions& options_;
  const BinnedMatrix& binned_;
  const size_t stride_;
  std::vector<TreeBuildNode> nodes_;
};

}  // namespace

GbdtModel::GbdtModel(TreeTable trees, double base_score, double learning_rate,
                     int num_threads)
    : trees_(std::move(trees)),
      base_score_(base_score),
      learning_rate_(learning_rate),
      num_threads_(std::max(1, num_threads)) {}

template <typename T>
double GbdtModel::RawRow(const T* row) const {
  double raw = base_score_;
  for (size_t t = 0; t < trees_.num_trees(); ++t) {
    raw += learning_rate_ * trees_.Leaf(t, row);
  }
  return raw;
}

std::vector<double> GbdtModel::PredictRaw(const Matrix& X) const {
  std::vector<double> raw(X.rows());
  ForEachRowChunk(X.rows(), num_threads_, [&](size_t begin, size_t end) {
    ForEachRow(X, begin, end,
               [&](size_t i, const auto* row) { raw[i] = RawRow(row); });
  });
  return raw;
}

std::vector<double> GbdtModel::PredictProba(const Matrix& X) const {
  // Raw margins land in the output buffer (chunk-parallel), then one batched
  // simd sigmoid pass converts them to probabilities in place.
  std::vector<double> proba = PredictRaw(X);
  SigmoidInPlace(&proba);
  return proba;
}

void GbdtModel::AccumulateProba(const Matrix& X, size_t row_begin, size_t row_end,
                                std::vector<double>& proba) const {
  // Blocked accumulate: stage raw margins for a block of rows in a
  // stack-resident scratch (2 KB — one reused buffer per pool worker, since
  // chunked callers run one block per task), sigmoid the block in one batched
  // pass, then add. Keeps the sigmoid vectorized without touching `proba`'s
  // running sums.
  double scratch[kTreeChunkRows];
  for (size_t start = row_begin; start < row_end; start += kTreeChunkRows) {
    const size_t len = std::min(row_end - start, kTreeChunkRows);
    ForEachRow(X, start, start + len, [&](size_t i, const auto* row) {
      scratch[i - start] = RawRow(row);
    });
    SigmoidInPlace(scratch, len);
    for (size_t j = 0; j < len; ++j) proba[start + j] += scratch[j];
  }
}

GbdtTrainer::GbdtTrainer(GbdtOptions options)
    : options_(options), bin_cache_(std::make_shared<BinningCache>()) {}

std::unique_ptr<Trainer> GbdtTrainer::Clone() const {
  auto clone = std::make_unique<GbdtTrainer>(options_);
  clone->bin_cache_ = bin_cache_;
  clone->preset_binned_ = preset_binned_;
  return clone;
}

std::unique_ptr<Classifier> GbdtTrainer::Fit(const Matrix& X,
                                             const std::vector<int>& y,
                                             const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  OF_TRACE_SPAN("fit/xgb");
  OF_SCOPED_LATENCY_US("ml.fit_us.xgb");
  const size_t n = X.rows();

  // Histogram mode bins X once per fit — and, via the cache shared across
  // Clone()s, once per tuning run: only the example weights change between
  // λ refits, never the binning (it is a pure function of X).
  std::shared_ptr<const BinnedMatrix> binned;
  if (options_.split_method == SplitMethod::kHistogram) {
    binned = preset_binned_;
    if (binned == nullptr || !binned->Matches(X, options_.max_bins)) {
      binned = bin_cache_->GetOrBuild(X, options_.max_bins, options_.num_threads);
    }
  }

  // Base score: weighted log-odds of the positive class.
  double w_pos = 0.0;
  double w_total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    w_total += weights[i];
    if (y[i] == 1) w_pos += weights[i];
  }
  double prior = w_total > 0.0 ? w_pos / w_total : 0.5;
  prior = std::clamp(prior, 1e-6, 1.0 - 1e-6);
  const double base_score = std::log(prior / (1.0 - prior));

  std::vector<double> raw(n, base_score);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  std::vector<TreeTable> trees;
  trees.reserve(options_.num_rounds);

  // Divergence recovery (DESIGN.md §8): a round whose tree makes any raw
  // score non-finite is dropped, and later trees have their leaf values
  // damped by `backoff`. `raw` therefore only ever holds finite scores.
  std::vector<double> candidate_raw(n);
  double backoff = 1.0;
  int retries = 0;
  for (int round = 0; round < options_.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(raw[i]);
      grad[i] = weights[i] * (p - (y[i] == 1 ? 1.0 : 0.0));
      hess[i] = weights[i] * std::max(p * (1.0 - p), 1e-12);
    }
    std::vector<TreeBuildNode> nodes;
    if (binned != nullptr) {
      GbdtHistTreeBuilder builder(X, grad, hess, options_, *binned);
      nodes = builder.Build();
    } else {
      GbdtTreeBuilder builder(X, grad, hess, options_);
      nodes = builder.Build();
    }
    if (backoff < 1.0) {
      for (TreeBuildNode& node : nodes) node.value *= backoff;
    }
    // The round's score update walks the packed tree, like every predict.
    TreeTable tree = PackTree(nodes);
    bool diverged = FaultInjector::ShouldFail(fault_sites::kGbdtRound);
    candidate_raw = raw;
    ForEachRow(X, 0, n, [&](size_t i, const auto* row) {
      candidate_raw[i] += options_.learning_rate * tree.Leaf(0, row);
      diverged = diverged || !std::isfinite(candidate_raw[i]);
    });
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "gbdt: divergence persisted after " << retries
                        << " retries; stopping with " << trees.size() << " trees";
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "gbdt: non-finite raw score at round " << round
                      << "; dropping tree and damping (retry " << retries << ")";
      backoff *= 0.5;
      continue;
    }
    raw.swap(candidate_raw);
    trees.push_back(std::move(tree));
  }
  return std::make_unique<GbdtModel>(ConcatTrees(trees), base_score,
                                     options_.learning_rate, options_.num_threads);
}

}  // namespace omnifair
