#ifndef OMNIFAIR_SERVE_SERVER_H_
#define OMNIFAIR_SERVE_SERVER_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "ml/bundle.h"
#include "util/status.h"

namespace omnifair {

// ---------------------------------------------------------------------------
// Bundle-backed batched inference (DESIGN.md §15).
//
// A BundleServer loads a ModelBundle once and answers batched predict/audit
// requests against it: each request carries a matrix of encoded rows plus an
// optional group id per row; the response carries per-row scores/labels and
// per-group positive rates so fairness can be monitored live. Batches run
// through the family's model class over the bundle image (MakeModel; it
// shards rows across the global thread pool), so a request's scores are bit-identical to the offline
// model at every thread count.
//
// Admission control is a bounded in-flight counter: Submit() rejects with
// kUnavailable (and bumps the `serve.rejected` counter) once
// `max_in_flight` requests are executing or queued, so overload sheds
// cleanly instead of building an unbounded queue.
//
// Telemetry (all behind OMNIFAIR_TELEMETRY >= counters, exported by the
// Prometheus/JSONL exporters):
//   serve.requests       counter   accepted requests
//   serve.rejected       counter   requests shed by admission control
//   serve.rows           counter   rows scored
//   serve.batch_rows     histogram batch size distribution
//   serve.request_us     histogram per-request handle latency (p50/p99)
//   serve.queue_depth    gauge     in-flight requests (updated on admit
//                                  and on completion, so it returns to 0
//                                  once the server drains)
// ---------------------------------------------------------------------------

struct ServerOptions {
  /// Chunk-parallelism for RF/GBDT predict inside one request (1 = serial).
  int num_threads = 1;
  /// Admission-control bound: Submit() sheds once this many requests are
  /// in flight (executing or waiting on the pool).
  int max_in_flight = 32;
  /// Test hook run inside Handle() while the request counts as in-flight
  /// (lets tests hold requests open deterministically). Not for production.
  std::function<void()> testing_handle_hook;
};

/// One batch of encoded rows to score. `group_ids` is empty (no group
/// stats) or one id per row; negative ids mean "unknown group" and are
/// excluded from the per-group stats but still scored.
struct PredictRequest {
  Matrix features;
  std::vector<int> group_ids;
  double threshold = 0.5;
};

/// Positive rate / mean score of one group within a response batch.
struct GroupStats {
  int group_id = 0;
  long long rows = 0;
  double positive_rate = 0.0;
  double mean_score = 0.0;
};

struct PredictResponse {
  std::vector<double> scores;  ///< P(y=1 | x) per row
  std::vector<int> labels;     ///< scores thresholded at request.threshold
  std::vector<GroupStats> groups;
  /// Max pairwise positive-rate gap across groups in this batch (0 when
  /// fewer than two groups) — the live statistical-parity signal.
  double max_gap = 0.0;
};

class BundleServer {
 public:
  BundleServer(std::shared_ptr<const ModelBundle> bundle,
               const ServerOptions& options = {});

  /// Blocks until every admitted request has completed. Submit()'s pool
  /// tasks reference the server, so destroying it mid-burst (e.g. dropping
  /// the returned futures) is safe: teardown waits for in-flight work to
  /// drain instead of racing it.
  ~BundleServer();

  /// Scores one batch synchronously (no admission control; used directly by
  /// closed-loop callers and by Submit's pool tasks). Validates the feature
  /// width against the bundle and `group_ids` length against the batch,
  /// failing with kInvalidArgument.
  Result<PredictResponse> Handle(const PredictRequest& request) const;

  /// Asynchronous entry: admits the request (or sheds with kUnavailable),
  /// then runs Handle on the global thread pool. The future resolves to
  /// Handle's result once the request completes.
  Result<std::future<Result<PredictResponse>>> Submit(PredictRequest request);

  const ModelBundle& bundle() const { return *bundle_; }
  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<const ModelBundle> bundle_;
  std::unique_ptr<Classifier> model_;
  ServerOptions options_;
  std::atomic<int> in_flight_{0};
};

/// Builds a PredictRequest from raw rows: encodes `dataset` with the
/// bundle's encoder (single pass) and, when `group_column` is non-empty,
/// extracts that categorical column's codes as group ids (-1 for rows whose
/// category is unknown). Fails with kInvalidArgument when the column is
/// missing or not categorical.
Result<PredictRequest> MakeRequest(const ModelBundle& bundle,
                                   const Dataset& dataset,
                                   const std::string& group_column = "",
                                   double threshold = 0.5);

}  // namespace omnifair

#endif  // OMNIFAIR_SERVE_SERVER_H_
