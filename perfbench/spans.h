// In-memory span recorder for the benchmark's traced mode, plus the
// forwarding Trainer/Classifier wrappers that put spans around every fit and
// predict the tuners make. The wrappers are handed to OmniFair::Train as the
// user's trainer, the paper's model-agnostic hook, so no library code knows
// it is being traced.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ml/classifier.h"

namespace perfbench {

/// One closed span. `parent` indexes the enclosing span opened on the same
/// thread (-1 at top level); `op` is the op id current when it opened
/// (-1 outside ops); `rows` is the work size the span's call was given.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int op = -1;
  double rows = 0.0;
};

/// Process-wide recorder. Spans are only recorded while enabled; they are
/// kept in memory and handed out by Take() when the run ends.
class Tracer {
 public:
  static Tracer& Get();
  void SetEnabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetOp(int op) { op_.store(op); }
  int Begin(const char* name, double rows);
  void End(int index);
  std::vector<SpanRecord> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int> op_{-1};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name, double rows = 0.0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Wraps `inner` so every Fit, and every Predict/PredictProba/
/// AccumulateProba on the models it returns, records a span. Every other
/// virtual (Clone, warm start, Name) forwards unchanged.
std::unique_ptr<omnifair::Trainer> TraceTrainer(
    std::unique_ptr<omnifair::Trainer> inner);

/// Monotonic nanoseconds on the clock spans use.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
