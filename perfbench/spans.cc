#include "spans.h"

#include <chrono>
#include <utility>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;

class TracedClassifier final : public omnifair::Classifier {
 public:
  explicit TracedClassifier(std::unique_ptr<omnifair::Classifier> inner)
      : inner_(std::move(inner)) {}

  std::vector<double> PredictProba(const omnifair::Matrix& X) const override {
    Span span("ml.predict", static_cast<double>(X.rows()));
    return inner_->PredictProba(X);
  }
  std::vector<int> Predict(const omnifair::Matrix& X) const override {
    Span span("ml.predict", static_cast<double>(X.rows()));
    return inner_->Predict(X);
  }
  void AccumulateProba(const omnifair::Matrix& X, size_t row_begin,
                       size_t row_end, std::vector<double>& proba) const override {
    Span span("ml.predict", static_cast<double>(row_end - row_begin));
    inner_->AccumulateProba(X, row_begin, row_end, proba);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<omnifair::Classifier> inner_;
};

class TracedTrainer final : public omnifair::Trainer {
 public:
  explicit TracedTrainer(std::unique_ptr<omnifair::Trainer> inner)
      : inner_(std::move(inner)) {}

  using omnifair::Trainer::Fit;
  std::unique_ptr<omnifair::Classifier> Fit(
      const omnifair::Matrix& X, const std::vector<int>& y,
      const std::vector<double>& weights) override {
    std::unique_ptr<omnifair::Classifier> model;
    {
      Span span("ml.fit", static_cast<double>(X.rows()));
      model = inner_->Fit(X, y, weights);
    }
    if (model == nullptr) return nullptr;
    return std::make_unique<TracedClassifier>(std::move(model));
  }
  std::string Name() const override { return inner_->Name(); }
  std::unique_ptr<omnifair::Trainer> Clone() const override {
    std::unique_ptr<omnifair::Trainer> clone = inner_->Clone();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TracedTrainer>(std::move(clone));
  }
  bool SupportsWarmStart() const override { return inner_->SupportsWarmStart(); }
  void SetWarmStart(bool enabled) override { inner_->SetWarmStart(enabled); }
  void ResetWarmStart() override { inner_->ResetWarmStart(); }

 private:
  std::unique_ptr<omnifair::Trainer> inner_;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* name, double rows) {
  SpanRecord record;
  record.name = name;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.op = op_.load(std::memory_order_relaxed);
  record.rows = rows;
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(record);
  }
  open_spans.push_back(index);
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].start_ns = start;
  return index;
}

void Tracer::End(int index) {
  const int64_t end = NowNs();
  if (!open_spans.empty()) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

std::vector<SpanRecord> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

Span::Span(const char* name, double rows) {
  if (Tracer::Get().enabled()) index_ = Tracer::Get().Begin(name, rows);
}

Span::~Span() {
  if (index_ >= 0) Tracer::Get().End(index_);
}

std::unique_ptr<omnifair::Trainer> TraceTrainer(
    std::unique_ptr<omnifair::Trainer> inner) {
  return std::make_unique<TracedTrainer>(std::move(inner));
}

}  // namespace perfbench
