// Google-benchmark microbenchmarks for the kernels every experiment leans
// on: example-weight computation (Eq. 12), fairness-part evaluation, one
// Fit per model family, and tree-family predict. These quantify the claim that OmniFair's
// per-lambda overhead is dominated by the black-box Fit itself — the
// declarative layer adds microseconds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/problem.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "ml/binning.h"
#include "ml/bundle.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "util/snapshot_io.h"

namespace omnifair {
namespace bench {
namespace {

struct MicroFixture {
  Dataset data;
  TrainValTestSplit split;
  std::unique_ptr<Trainer> trainer;
  std::unique_ptr<FairnessProblem> problem;

  explicit MicroFixture(const std::string& trainer_name) {
    SyntheticOptions options;
    options.num_rows = 4000;
    options.seed = 7;
    data = MakeCompasDataset(options);
    split = SplitDefault(data, 3);
    trainer = MakeTrainer(trainer_name);
    auto created = FairnessProblem::Create(
        split.train, split.val,
        {MakeSpec(MainGroups("compas"), "sp", 0.03)}, trainer.get());
    problem = std::move(*created);
  }
};

void BM_Dot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = 0.25 + static_cast<double>(i % 31);
    b[i] = 1.5 - static_cast<double>(i % 17);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Axpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) b[i] = 1.0 + static_cast<double>(i % 13);
  for (auto _ : state) {
    Axpy(1e-9, b, &a);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Axpy)->Arg(64)->Arg(1024)->Arg(16384);

// Float32-storage variants of the two arithmetic kernels: float feature
// data widened per lane against double coefficients (the mixed-precision
// path the float32 feature matrix uses).
void BM_DotF32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> a(n);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = 0.25f + static_cast<float>(i % 31);
    b[i] = 1.5 - static_cast<double>(i % 17);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::DotF32(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DotF32)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AxpyF32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a(n, 0.0);
  std::vector<float> b(n);
  for (size_t i = 0; i < n; ++i) b[i] = 1.0f + static_cast<float>(i % 13);
  const simd::Kernels& kernels = simd::Active();
  for (auto _ : state) {
    kernels.axpy_f32(1e-9, b.data(), a.data(), n);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AxpyF32)->Arg(64)->Arg(1024)->Arg(16384);

// Batched sigmoid over a margin buffer — the kernel behind blocked predict.
// Applying it in place repeatedly keeps every pass a full exp workload
// (values settle into (0, 1), still on the polynomial's main path).
void BM_Sigmoid(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = -8.0 + 16.0 * static_cast<double>(i % 97) / 96.0;
  }
  for (auto _ : state) {
    SigmoidInPlace(v.data(), n);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Sigmoid)->Arg(64)->Arg(1024)->Arg(16384);

// The block checksum every OFCD read, bundle load and checkpoint read pays:
// Crc32 folds with PCLMULQDQ where the CPU has it, and Crc32Table is the
// slice-by-8 fallback. 64 B is a tail-dominated call, 3 MiB about one
// 65,536-row adult block.
template <uint32_t (*Crc)(const uint8_t*, size_t, uint32_t)>
void BM_Crc32Impl(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<uint8_t>(i * 131 + 7);
  for (auto _ : state) benchmark::DoNotOptimize(Crc(bytes.data(), n, 0));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
void BM_Crc32(benchmark::State& state) { BM_Crc32Impl<Crc32>(state); }
void BM_Crc32Table(benchmark::State& state) {
  BM_Crc32Impl<internal_crc::Crc32Table>(state);
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(64 << 10)->Arg(3 << 20);
BENCHMARK(BM_Crc32Table)->Arg(64)->Arg(64 << 10)->Arg(3 << 20);

// The LR/MLP inner product: one dense mat-vec into a reused buffer.
void BM_MatVec(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<double>((r * 1315423911u + c * 2654435761u) % 1000) / 499.5 - 1.0;
    }
  }
  std::vector<double> x(cols);
  for (size_t c = 0; c < cols; ++c) x[c] = 0.5 - static_cast<double>(c % 7) / 7.0;
  std::vector<double> y(rows);
  for (auto _ : state) {
    m.MatVecInto(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows * cols));
}
BENCHMARK(BM_MatVec)->Args({1024, 64})->Args({4096, 128});

void BM_MatVecF32(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  Matrix m = Matrix::Float32(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m.Set(r, c,
            static_cast<double>((r * 1315423911u + c * 2654435761u) % 1000) / 499.5 - 1.0);
    }
  }
  std::vector<double> x(cols);
  for (size_t c = 0; c < cols; ++c) x[c] = 0.5 - static_cast<double>(c % 7) / 7.0;
  std::vector<double> y(rows);
  for (auto _ : state) {
    m.MatVecInto(x, &y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows * cols));
}
BENCHMARK(BM_MatVecF32)->Args({1024, 64})->Args({4096, 128});

// Per-node histogram accumulation (the tree-training hot loop): every row of
// a 16-feature binned matrix scattered into per-bin accumulators.
void BM_HistAccumulate(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = 16;
  Matrix X(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      X(r, c) = static_cast<double>((r * 2654435761u + c * 40503u) % 977);
    }
  }
  auto binned = BinnedMatrix::Build(X, 64, 1);
  std::vector<size_t> samples(rows);
  for (size_t i = 0; i < rows; ++i) samples[i] = i;
  std::vector<double> grad(rows), hess(rows);
  for (size_t i = 0; i < rows; ++i) {
    grad[i] = -0.5 + static_cast<double>(i % 11) / 11.0;
    hess[i] = 0.1 + static_cast<double>(i % 5) / 5.0;
  }
  NodeHistogram hist;
  for (auto _ : state) {
    FillNodeHistogram(*binned, samples, grad.data(), hess.data(), 1, &hist);
    benchmark::DoNotOptimize(hist.first.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows * cols));
}
BENCHMARK(BM_HistAccumulate)->Arg(4096)->Arg(32768);

void BM_WeightComputation(benchmark::State& state) {
  MicroFixture fx("lr");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.problem->weight_computer().Compute(0.05, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.split.train.NumRows()));
}
BENCHMARK(BM_WeightComputation);

void BM_FairnessPartEvaluation(benchmark::State& state) {
  MicroFixture fx("lr");
  auto model = fx.problem->FitWithLambdas({0.0}, nullptr);
  const std::vector<int> preds = fx.problem->PredictVal(*model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.problem->val_evaluator().FairnessPart(0, preds));
  }
}
BENCHMARK(BM_FairnessPartEvaluation);

void BM_FitModel(benchmark::State& state, const std::string& name) {
  MicroFixture fx(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.problem->FitWithLambdas({0.05}, nullptr));
  }
}
BENCHMARK_CAPTURE(BM_FitModel, lr, std::string("lr"));
BENCHMARK_CAPTURE(BM_FitModel, dt, std::string("dt"));
BENCHMARK_CAPTURE(BM_FitModel, xgb, std::string("xgb"));
BENCHMARK_CAPTURE(BM_FitModel, nn, std::string("nn"));

void BM_AuditModel(benchmark::State& state) {
  MicroFixture fx("lr");
  auto model = fx.problem->FitWithLambdas({0.0}, nullptr);
  const FairnessSpec spec = MakeSpec(MainGroups("compas"), "sp", 0.03);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Audit(*model, fx.problem->encoder(), fx.split.test, {spec}));
  }
}
BENCHMARK(BM_AuditModel);

/// One fitted tree-family model per (family, depth), shared by every
/// BM_TreePredict case, plus the model ModelBundle::MakeModel builds over its
/// bundle image.
struct TreePredictFixture {
  Matrix X;
  std::unique_ptr<Classifier> trained;
  std::unique_ptr<Classifier> from_bundle;

  static const TreePredictFixture& Get(int family, int depth) {
    static std::map<std::pair<int, int>, std::unique_ptr<TreePredictFixture>>
        cache;
    std::unique_ptr<TreePredictFixture>& slot = cache[{family, depth}];
    if (slot == nullptr) slot = std::make_unique<TreePredictFixture>(family, depth);
    return *slot;
  }

  TreePredictFixture(int family, int depth) {
    SyntheticOptions options;
    options.num_rows = 11001;
    options.seed = 3;
    const Dataset data = MakeCompasDataset(options);
    FeatureEncoder encoder;
    X = encoder.FitTransform(data);
    const std::vector<double> weights(X.rows(), 1.0);
    if (family == 0) {
      DecisionTreeOptions dt;
      dt.max_depth = depth;
      trained = DecisionTreeTrainer(dt).Fit(X, data.labels(), weights);
    } else if (family == 1) {
      RandomForestOptions rf;
      rf.num_trees = 20;
      rf.max_depth = depth;
      rf.split_method = SplitMethod::kHistogram;
      trained = RandomForestTrainer(rf).Fit(X, data.labels(), weights);
    } else {
      GbdtOptions gbdt;
      gbdt.num_rounds = 40;
      gbdt.max_depth = depth;
      gbdt.split_method = SplitMethod::kHistogram;
      trained = GbdtTrainer(gbdt).Fit(X, data.labels(), weights);
    }
    Result<std::vector<uint8_t>> image = EncodeBundle(*trained, encoder, BundleMeta{});
    OF_CHECK(image.ok()) << image.status();
    Result<std::shared_ptr<const ModelBundle>> bundle =
        ModelBundle::Open(std::move(*image));
    OF_CHECK(bundle.ok()) << bundle.status();
    from_bundle = (*bundle)->MakeModel();
  }
};

// Single-threaded tree-family predict over 11,001 synthetic COMPAS rows:
// family 0/1/2 = decision tree, random forest (20 trees), GBDT (40 rounds),
// at max depth 3, 8 and 16, scoring batches of 1 or 256 rows, on the trained
// model (bundle = 0) or the model MakeModel builds over its bundle image
// (bundle = 1). Ungated: it measures, it does not check.
void BM_TreePredict(benchmark::State& state) {
  const TreePredictFixture& fx = TreePredictFixture::Get(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  const size_t batch = static_cast<size_t>(state.range(2));
  const Classifier& model = state.range(3) == 1 ? *fx.from_bundle : *fx.trained;
  // Every row once per pass, so no short cycle of rows lets the branch
  // predictor learn the paths.
  std::vector<Matrix> batches;
  for (size_t begin = 0; begin + batch <= fx.X.rows(); begin += batch) {
    std::vector<size_t> rows(batch);
    for (size_t j = 0; j < batch; ++j) rows[j] = begin + j;
    batches.push_back(fx.X.SelectRows(rows));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProba(batches[next]));
    next = next + 1 == batches.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_TreePredict)
    ->ArgNames({"family", "depth", "batch", "bundle"})
    ->ArgsProduct({{0, 1, 2}, {3, 8, 16}, {1, 256}, {0, 1}});

/// Console output as usual, plus one BenchReporter row per benchmark so the
/// microbench participates in the machine-readable bench/out/ corpus.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(BenchReporter& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      out_.AddRow("microbench")
          .Label("name", run.benchmark_name())
          .Label("time_unit", benchmark::GetTimeUnitString(run.time_unit))
          .Value("real_time", run.GetAdjustedRealTime())
          .Value("cpu_time", run.GetAdjustedCPUTime())
          .Value("iterations", static_cast<double>(run.iterations));
    }
  }

 private:
  BenchReporter& out_;
};

/// ns per call of `fn` over one timed batch of `reps` calls.
template <typename Fn>
double TimeBatchNs(Fn& fn, long reps) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  for (long r = 0; r < reps; ++r) fn();
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
         static_cast<double>(reps);
}

/// A repetition count whose timed batch takes at least ~5 ms, which washes
/// out clock granularity without google-benchmark's machinery (both tables
/// must run in the same process for a machine-relative ratio).
template <typename Fn>
long CalibrateReps(Fn& fn) {
  fn();  // warm up: fault pages in, resolve the dispatch table
  long reps = 1;
  while (reps < (1L << 24) &&
         TimeBatchNs(fn, reps) * static_cast<double>(reps) < 5e6) {
    reps *= 4;
  }
  return reps;
}

/// Timed scalar/active pairs per kernel. The two sides alternate, so a
/// frequency or cache disturbance lands on both halves of a pair, and the
/// reported ratio is the median over the pairs.
constexpr int kSpeedupPairs = 7;

/// One "kernel_speedup" row comparing the active backend against the scalar
/// table in-process. The *_speedup fields (which tools/bench_diff.py gates
/// on) are machine-relative ratios, so a committed snapshot from one box is
/// a meaningful baseline on another of the same ISA; they are emitted only
/// when a vector backend is active, so scalar-only machines diff vacuously
/// clean instead of flagging a phantom regression. The *_ns fields are the
/// medians of each side over the same pairs.
void ReportKernelSpeedups(BenchReporter& out) {
  const simd::Kernels& active = simd::Active();
  const simd::Kernels& scalar = simd::ScalarKernels();
  const bool vectorized = simd::ActiveBackend() != simd::Backend::kScalar;
  const size_t n = 4096;
  std::vector<double> a(n), b(n), acc(n, 0.0), v(n), margins(n), weights(n);
  std::vector<float> f(n);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = 0.25 + static_cast<double>(i % 31);
    b[i] = 1.5 - static_cast<double>(i % 17);
    v[i] = -6.0 + 12.0 * static_cast<double>(i % 97) / 96.0;
    f[i] = static_cast<float>(a[i]);
    margins[i] = v[i];
    weights[i] = 0.5 + static_cast<double>(i % 5) * 0.25;
    labels[i] = static_cast<int>((i * 7) % 3 == 0);
  }
  BenchReporter::Row& row = out.AddRow("kernel_speedup");
  row.Label("backend", simd::BackendName(simd::ActiveBackend()));
  row.Value("n", static_cast<double>(n));
  std::printf("\nkernel_speedup (n=%zu, backend=%s)\n", n,
              simd::BackendName(simd::ActiveBackend()));
  auto add = [&](const char* name, auto&& scalar_fn, auto&& active_fn) {
    const long scalar_reps = CalibrateReps(scalar_fn);
    const long active_reps = CalibrateReps(active_fn);
    std::vector<double> scalar_ns, simd_ns, ratios;
    for (int pair = 0; pair < kSpeedupPairs; ++pair) {
      scalar_ns.push_back(TimeBatchNs(scalar_fn, scalar_reps));
      simd_ns.push_back(TimeBatchNs(active_fn, active_reps));
      ratios.push_back(scalar_ns.back() / simd_ns.back());
    }
    const double speedup = Median(ratios);
    row.Value(std::string(name) + "_scalar_ns", Median(scalar_ns))
        .Value(std::string(name) + "_simd_ns", Median(simd_ns));
    if (vectorized) row.Value(std::string(name) + "_speedup", speedup);
    std::printf("  %-10s scalar %9.1f ns   active %9.1f ns   speedup %5.2fx"
                "   (median of %d pairs, %.2f-%.2fx)\n",
                name, Median(scalar_ns), Median(simd_ns), speedup, kSpeedupPairs,
                *std::min_element(ratios.begin(), ratios.end()),
                *std::max_element(ratios.begin(), ratios.end()));
  };
  add("dot",
      [&] { benchmark::DoNotOptimize(scalar.dot(a.data(), b.data(), n)); },
      [&] { benchmark::DoNotOptimize(active.dot(a.data(), b.data(), n)); });
  add("axpy",
      [&] {
        scalar.axpy(1e-9, b.data(), acc.data(), n);
        benchmark::ClobberMemory();
      },
      [&] {
        active.axpy(1e-9, b.data(), acc.data(), n);
        benchmark::ClobberMemory();
      });
  add("sum",
      [&] { benchmark::DoNotOptimize(scalar.sum(a.data(), n)); },
      [&] { benchmark::DoNotOptimize(active.sum(a.data(), n)); });
  add("sigmoid",
      [&] {
        scalar.sigmoid_inplace(v.data(), n);
        benchmark::ClobberMemory();
      },
      [&] {
        active.sigmoid_inplace(v.data(), n);
        benchmark::ClobberMemory();
      });
  add("dot_f32",
      [&] { benchmark::DoNotOptimize(scalar.dot_f32(f.data(), b.data(), n)); },
      [&] { benchmark::DoNotOptimize(active.dot_f32(f.data(), b.data(), n)); });
  // The fused LR loss pass; it overwrites its margins with residuals, so each
  // call first restores them (the copy is timed on both sides alike).
  std::vector<double> scratch(n);
  add("logistic",
      [&] {
        std::copy(margins.begin(), margins.end(), scratch.begin());
        benchmark::DoNotOptimize(scalar.logistic_loss_residual(
            scratch.data(), 0.1, weights.data(), labels.data(), n));
      },
      [&] {
        std::copy(margins.begin(), margins.end(), scratch.begin());
        benchmark::DoNotOptimize(active.logistic_loss_residual(
            scratch.data(), 0.1, weights.data(), labels.data(), n));
      });
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main(int argc, char** argv) {
  omnifair::InitTelemetryFromEnv();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  omnifair::bench::BenchReporter reporter(
      "microbench", "Microbenchmarks: weight computation, FP evaluation, fits");
  reporter.Config("simd_backend",
                  std::string(omnifair::simd::BackendName(
                      omnifair::simd::ActiveBackend())));
  omnifair::bench::JsonCapturingReporter console(reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  omnifair::bench::ReportKernelSpeedups(reporter);
  return omnifair::bench::FinishBench(reporter);
}
