#ifndef OMNIFAIR_LINALG_SIMD_H_
#define OMNIFAIR_LINALG_SIMD_H_

#include <cstddef>

namespace omnifair {
namespace simd {

/// Vector kernel backends. kScalar is the portable unrolled fallback and is
/// always available; kAvx2/kNeon are compiled in when CMake detects the
/// target architecture (OMNIFAIR_ENABLE_SIMD) and selected at runtime when
/// the CPU actually supports them.
enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Dispatch table for the dense numeric kernels behind vector_ops.h, Matrix
/// products, the LR fits, and the batched LR/MLP/GBDT predict paths. All
/// accumulators are double regardless of backend; the *_f32 variants read
/// float32 feature data (widened per lane) against double coefficients, so
/// only the input width changes, never the arithmetic precision.
///
/// Precision contract: backends may reassociate reductions and contract
/// multiply-add (FMA), so results agree with the scalar path to O(n * eps),
/// not bitwise. sigmoid/softmax/logistic_loss_residual use a polynomial exp
/// (and log1p) on vector backends, accurate to a few ulp. The elementwise
/// kernels run a ragged tail through the same vector lanes, padded, so an
/// element's result never depends on its position in the batch. Callers that
/// need bit-stable results across OMNIFAIR_SIMD settings must not route
/// through these kernels.
struct Kernels {
  /// Unordered-reduction dot product of a[0..n) and b[0..n).
  double (*dot)(const double* a, const double* b, size_t n);
  /// a[i] += s * b[i].
  void (*axpy)(double s, const double* b, double* a, size_t n);
  /// v[i] *= s.
  void (*scale)(double s, double* v, size_t n);
  /// Unordered-reduction sum of v[0..n).
  double (*sum)(const double* v, size_t n);
  /// v[i] = sigmoid(v[i]) for a whole batch of margins.
  void (*sigmoid_inplace)(double* v, size_t n);
  /// Row-wise softmax over a row-major rows x cols block (max-shifted).
  void (*softmax_rows)(double* m, size_t rows, size_t cols);
  /// Mixed-precision variants: float32 data, double coefficients/accumulators.
  double (*dot_f32)(const float* a, const double* b, size_t n);
  void (*axpy_f32)(double s, const float* b, double* a, size_t n);
  /// Fused weighted logistic loss and residual pass over n rows (DESIGN.md
  /// §8). With z = margins[i] + bias and t = exp(-|z|), computed once per
  /// row, returns the unordered sum of
  ///   weights[i] * (max(z, 0) - y z + log1p(t)),   y = (labels[i] == 1),
  /// and overwrites margins[i] with the residual weights[i] * (sigmoid(z) - y),
  /// where sigmoid(z) is 1/(1+t) for z >= 0 and t/(1+t) otherwise.
  double (*logistic_loss_residual)(double* margins, double bias,
                                   const double* weights, const int* labels,
                                   size_t n);
};

/// Human-readable backend name ("scalar", "avx2", "neon").
const char* BackendName(Backend backend);

/// True when the backend is both compiled in and supported by this CPU.
bool BackendAvailable(Backend backend);

/// Kernel table for an available backend (OF_CHECKs availability).
const Kernels& KernelsFor(Backend backend);

/// The portable fallback table; always available. Parity tests and the
/// in-process speedup benches compare Active() against this.
const Kernels& ScalarKernels();

/// The backend in use. First call resolves it: the OMNIFAIR_SIMD environment
/// variable ("off"/"0"/"scalar" force the fallback, "avx2"/"neon" force a
/// specific backend when available, "on"/"auto"/unset pick the best), then
/// compile-time + CPU detection. Publishes the choice on the `simd.path`
/// telemetry gauge (0 = scalar, 1 = avx2, 2 = neon).
Backend ActiveBackend();

/// Kernel table of ActiveBackend(). Hot loops should hoist the reference.
const Kernels& Active();

/// Runtime override (tests and the OMNIFAIR_SIMD escape hatch re-applied
/// programmatically). OF_CHECKs that the backend is available; updates the
/// `simd.path` gauge. Not intended to race with in-flight kernel calls.
void SetActiveBackend(Backend backend);

// Convenience wrappers over the active table.
inline double Dot(const double* a, const double* b, size_t n) {
  return Active().dot(a, b, n);
}
inline void Axpy(double s, const double* b, double* a, size_t n) {
  Active().axpy(s, b, a, n);
}
inline double DotF32(const float* a, const double* b, size_t n) {
  return Active().dot_f32(a, b, n);
}
inline void SigmoidInPlace(double* v, size_t n) {
  Active().sigmoid_inplace(v, n);
}

}  // namespace simd
}  // namespace omnifair

#endif  // OMNIFAIR_LINALG_SIMD_H_
