#include "linalg/simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>

#include "util/logging.h"
#include "util/telemetry.h"

// Backend availability is a compile-time property (CMake sets
// OMNIFAIR_SIMD_X86 / OMNIFAIR_SIMD_NEON per architecture when
// OMNIFAIR_ENABLE_SIMD is on) plus a runtime CPU check on x86. The AVX2
// implementations use function multiversioning (`target` attribute), so no
// global -mavx2 flag is needed and the rest of the library stays baseline.
#if defined(OMNIFAIR_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
#define OMNIFAIR_HAVE_AVX2_IMPL 1
#include <immintrin.h>
#endif
#if defined(OMNIFAIR_SIMD_NEON) && defined(__ARM_NEON)
#define OMNIFAIR_HAVE_NEON_IMPL 1
#include <arm_neon.h>
#endif

namespace omnifair {
namespace simd {
namespace {

double ScalarSigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// ---------------------------------------------------------------------------
// Portable fallback: unrolled scalar loops. Dot/Sum use independent
// accumulators to break the loop-carried add dependency; Axpy/Scale are
// elementwise so unrolling only widens the scheduler window.
// ---------------------------------------------------------------------------
namespace scalar {

double Dot(const double* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double acc = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void Axpy(double s, const double* b, double* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a[i] += s * b[i];
    a[i + 1] += s * b[i + 1];
    a[i + 2] += s * b[i + 2];
    a[i + 3] += s * b[i + 3];
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

void Scale(double s, double* v, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] *= s;
}

double Sum(const double* v, size_t n) {
  // Single accumulator: keeps Sum() bit-identical to the pre-SIMD library
  // for the metric/means call sites that historically used it.
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += v[i];
  return acc;
}

void SigmoidInPlace(double* v, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] = ScalarSigmoid(v[i]);
}

void SoftmaxRows(double* m, size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    double* row = m + r * cols;
    double mx = -std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < cols; ++c) mx = std::max(mx, row[c]);
    double total = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - mx);
      total += row[c];
    }
    const double inv = 1.0 / total;
    for (size_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

double DotF32(const float* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(a[i]) * b[i];
    acc1 += static_cast<double>(a[i + 1]) * b[i + 1];
    acc2 += static_cast<double>(a[i + 2]) * b[i + 2];
    acc3 += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  double acc = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

void AxpyF32(double s, const float* b, double* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a[i] += s * static_cast<double>(b[i]);
    a[i + 1] += s * static_cast<double>(b[i + 1]);
    a[i + 2] += s * static_cast<double>(b[i + 2]);
    a[i + 3] += s * static_cast<double>(b[i + 3]);
  }
  for (; i < n; ++i) a[i] += s * static_cast<double>(b[i]);
}

/// One std::exp and one std::log1p per row, in the same operation order as
/// the vector backends, so the loss goes non-finite on exactly the same rows.
double LogisticLossResidual(double* margins, double bias, const double* weights,
                            const int* labels, size_t n) {
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double z = margins[i] + bias;
    const double t = std::exp(-std::fabs(z));
    const bool positive = labels[i] == 1;
    loss += weights[i] * ((std::max(z, 0.0) - (positive ? z : 0.0)) + std::log1p(t));
    const double sigmoid = (z >= 0.0 ? 1.0 : t) / (1.0 + t);
    margins[i] = weights[i] * (sigmoid - (positive ? 1.0 : 0.0));
  }
  return loss;
}

}  // namespace scalar

constexpr Kernels kScalarTable = {
    scalar::Dot,         scalar::Axpy,           scalar::Scale,
    scalar::Sum,         scalar::SigmoidInPlace, scalar::SoftmaxRows,
    scalar::DotF32,      scalar::AxpyF32,        scalar::LogisticLossResidual,
};

// ---------------------------------------------------------------------------
// AVX2 + FMA backend (x86-64). 256-bit lanes, 4 doubles per vector; the
// reductions run four vectors deep to saturate the FMA pipes. exp() is a
// Cephes-style degree-2/3 rational polynomial after range reduction —
// accurate to ~1-2 ulp over the clamped range, which is why the sigmoid
// parity contract is tolerance-based rather than bitwise.
// ---------------------------------------------------------------------------
#if OMNIFAIR_HAVE_AVX2_IMPL
namespace avx2 {

#define OMNIFAIR_AVX2 __attribute__((target("avx2,fma")))

OMNIFAIR_AVX2 inline double ReduceAdd(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

OMNIFAIR_AVX2 double Dot(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4),
                           acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8), _mm256_loadu_pd(b + i + 8),
                           acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
  }
  double acc =
      ReduceAdd(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

OMNIFAIR_AVX2 void Axpy(double s, const double* b, double* a, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        a + i, _mm256_fmadd_pd(vs, _mm256_loadu_pd(b + i), _mm256_loadu_pd(a + i)));
    _mm256_storeu_pd(a + i + 4,
                     _mm256_fmadd_pd(vs, _mm256_loadu_pd(b + i + 4),
                                     _mm256_loadu_pd(a + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        a + i, _mm256_fmadd_pd(vs, _mm256_loadu_pd(b + i), _mm256_loadu_pd(a + i)));
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

OMNIFAIR_AVX2 void Scale(double s, double* v, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(vs, _mm256_loadu_pd(v + i)));
  }
  for (; i < n; ++i) v[i] *= s;
}

OMNIFAIR_AVX2 double Sum(const double* v, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(v + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(v + i + 4));
  }
  for (; i + 4 <= n; i += 4) acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(v + i));
  double acc = ReduceAdd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += v[i];
  return acc;
}

/// exp(x) for four lanes, Cephes-style: n = round(x * log2 e), r = x - n ln 2
/// (split-constant reduction), exp(r) via a rational polynomial, then scale
/// by 2^n through direct exponent-bit construction. Inputs are clamped to
/// [-708, 709] so 2^n stays inside the normal range; for the sigmoid callers
/// the clamp only affects probabilities below ~1e-307. A NaN lane stays NaN
/// (max/min return their second operand when either is NaN).
OMNIFAIR_AVX2 inline __m256d Exp(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d ln2_hi = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d ln2_lo = _mm256_set1_pd(1.42860682030941723212e-6);
  const __m256d p0 = _mm256_set1_pd(1.26177193074810590878e-4);
  const __m256d p1 = _mm256_set1_pd(3.02994407707441961300e-2);
  const __m256d p2 = _mm256_set1_pd(9.99999999999999999910e-1);
  const __m256d q0 = _mm256_set1_pd(3.00198505138664455042e-6);
  const __m256d q1 = _mm256_set1_pd(2.52448340349684104192e-3);
  const __m256d q2 = _mm256_set1_pd(2.27265548208155028766e-1);
  const __m256d q3 = _mm256_set1_pd(2.00000000000000000005e0);
  const __m256d one = _mm256_set1_pd(1.0);

  x = _mm256_min_pd(_mm256_set1_pd(709.0),
                    _mm256_max_pd(_mm256_set1_pd(-708.0), x));
  const __m256d nf =
      _mm256_floor_pd(_mm256_fmadd_pd(log2e, x, _mm256_set1_pd(0.5)));
  x = _mm256_fnmadd_pd(nf, ln2_hi, x);
  x = _mm256_fnmadd_pd(nf, ln2_lo, x);

  const __m256d xx = _mm256_mul_pd(x, x);
  __m256d px = _mm256_fmadd_pd(p0, xx, p1);
  px = _mm256_fmadd_pd(px, xx, p2);
  px = _mm256_mul_pd(px, x);
  __m256d qx = _mm256_fmadd_pd(q0, xx, q1);
  qx = _mm256_fmadd_pd(qx, xx, q2);
  qx = _mm256_fmadd_pd(qx, xx, q3);
  // exp(r) = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2))
  __m256d e = _mm256_div_pd(px, _mm256_sub_pd(qx, px));
  e = _mm256_fmadd_pd(e, _mm256_set1_pd(2.0), one);

  __m256i n64 = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(nf));
  n64 = _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(n64));
}

/// exp(-|z|) for four lanes: the one transcendental the sigmoid and the
/// logistic loss share.
OMNIFAIR_AVX2 inline __m256d ExpNegAbs(__m256d z) {
  return Exp(_mm256_or_pd(z, _mm256_set1_pd(-0.0)));
}

/// Stable sigmoid from t = exp(-|z|): 1/(1+t) for z >= 0 and t/(1+t)
/// otherwise — the same two-sided form as the scalar Sigmoid().
OMNIFAIR_AVX2 inline __m256d SigmoidFromT(__m256d z, __m256d t) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d ge = _mm256_cmp_pd(z, _mm256_setzero_pd(), _CMP_GE_OQ);
  return _mm256_div_pd(_mm256_blendv_pd(t, one, ge), _mm256_add_pd(one, t));
}

OMNIFAIR_AVX2 inline __m256d Sigmoid(__m256d z) {
  return SigmoidFromT(z, ExpNegAbs(z));
}

/// log1p(t) for four lanes with t in [0, 1]: 1 + t = 2^k (1 + f) with k = 0,
/// f = t up to t = sqrt(2) - 1 and k = 1, f = (t - 1) / 2 above it, so f lies
/// in fdlibm's reduced range [sqrt(2)/2 - 1, sqrt(2) - 1]. Then fdlibm's log
/// kernel: the Lg1..Lg7 series in s = f / (2 + f), and k ln 2 added in two
/// parts. Largest relative error against libm over a uniform grid of 4M
/// points on [0, 1]: 2.2e-16.
OMNIFAIR_AVX2 inline __m256d Log1pUnit(__m256d t) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lg1 = _mm256_set1_pd(6.666666666666735130e-01);
  const __m256d lg2 = _mm256_set1_pd(3.999999999940941908e-01);
  const __m256d lg3 = _mm256_set1_pd(2.857142874366239149e-01);
  const __m256d lg4 = _mm256_set1_pd(2.222219843214978396e-01);
  const __m256d lg5 = _mm256_set1_pd(1.818357216161805012e-01);
  const __m256d lg6 = _mm256_set1_pd(1.531383769920937332e-01);
  const __m256d lg7 = _mm256_set1_pd(1.479819860511658591e-01);
  const __m256d ln2_hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d ln2_lo = _mm256_set1_pd(1.90821492927058770002e-10);

  const __m256d upper =
      _mm256_cmp_pd(t, _mm256_set1_pd(0.41421356237309504880), _CMP_GT_OQ);
  const __m256d f =
      _mm256_blendv_pd(t, _mm256_mul_pd(_mm256_sub_pd(t, one), half), upper);
  const __m256d k = _mm256_and_pd(upper, one);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 =
      _mm256_mul_pd(w, _mm256_fmadd_pd(w, _mm256_fmadd_pd(w, lg6, lg4), lg2));
  const __m256d t2 = _mm256_mul_pd(
      z, _mm256_fmadd_pd(
             w, _mm256_fmadd_pd(w, _mm256_fmadd_pd(w, lg7, lg5), lg3), lg1));
  const __m256d r = _mm256_add_pd(t1, t2);
  const __m256d hfsq = _mm256_mul_pd(half, _mm256_mul_pd(f, f));
  // k ln2_hi - ((hfsq - (s (hfsq + R) + k ln2_lo)) - f)
  const __m256d tail =
      _mm256_fmadd_pd(s, _mm256_add_pd(hfsq, r), _mm256_mul_pd(k, ln2_lo));
  return _mm256_fmsub_pd(k, ln2_hi, _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f));
}

OMNIFAIR_AVX2 void SigmoidInPlace(double* v, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, Sigmoid(_mm256_loadu_pd(v + i)));
  }
  if (i < n) {
    // The ragged tail runs through the same lanes, zero-padded, so a score
    // does not depend on its row's position in the batch.
    double pad[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy_n(v + i, n - i, pad);
    _mm256_storeu_pd(pad, Sigmoid(_mm256_loadu_pd(pad)));
    std::copy_n(pad, n - i, v + i);
  }
}

/// Four rows of the fused logistic kernel: writes the weighted residuals
/// over `margins` and returns the weighted loss terms.
OMNIFAIR_AVX2 inline __m256d LogisticLanes(double* margins, __m256d bias,
                                           const double* weights,
                                           const int* labels) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d z = _mm256_add_pd(_mm256_loadu_pd(margins), bias);
  const __m256d w = _mm256_loadu_pd(weights);
  const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(labels));
  const __m256d positive = _mm256_castsi256_pd(
      _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(y, _mm_set1_epi32(1))));
  const __m256d t = ExpNegAbs(z);
  const __m256d target = _mm256_and_pd(positive, one);
  _mm256_storeu_pd(margins,
                   _mm256_mul_pd(w, _mm256_sub_pd(SigmoidFromT(z, t), target)));
  // max(0, z) keeps a NaN z (the second operand); y z is z or +0.
  const __m256d linear =
      _mm256_sub_pd(_mm256_max_pd(zero, z), _mm256_and_pd(positive, z));
  return _mm256_mul_pd(w, _mm256_add_pd(linear, Log1pUnit(t)));
}

OMNIFAIR_AVX2 double LogisticLossResidual(double* margins, double bias,
                                          const double* weights,
                                          const int* labels, size_t n) {
  const __m256d vbias = _mm256_set1_pd(bias);
  __m256d loss = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    loss = _mm256_add_pd(
        loss, LogisticLanes(margins + i, vbias, weights + i, labels + i));
  }
  if (i < n) {
    // The ragged tail runs through the same lanes as the body. Its padding
    // rows have weight 0, so they add 0 to the loss for any finite bias (a
    // non-finite bias makes every real row non-finite anyway).
    const size_t rest = n - i;
    double z[4] = {0.0, 0.0, 0.0, 0.0};
    double w[4] = {0.0, 0.0, 0.0, 0.0};
    int y[4] = {0, 0, 0, 0};
    std::copy_n(margins + i, rest, z);
    std::copy_n(weights + i, rest, w);
    std::copy_n(labels + i, rest, y);
    loss = _mm256_add_pd(loss, LogisticLanes(z, vbias, w, y));
    std::copy_n(z, rest, margins + i);
  }
  return ReduceAdd(loss);
}

OMNIFAIR_AVX2 void SoftmaxRows(double* m, size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    double* row = m + r * cols;
    double mx = -std::numeric_limits<double>::infinity();
    {
      __m256d vmax = _mm256_set1_pd(mx);
      size_t c = 0;
      for (; c + 4 <= cols; c += 4) {
        vmax = _mm256_max_pd(vmax, _mm256_loadu_pd(row + c));
      }
      __m128d pair = _mm_max_pd(_mm256_castpd256_pd128(vmax),
                                _mm256_extractf128_pd(vmax, 1));
      mx = _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
      for (; c < cols; ++c) mx = std::max(mx, row[c]);
    }
    const __m256d vmx = _mm256_set1_pd(mx);
    __m256d vsum = _mm256_setzero_pd();
    size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d e = Exp(_mm256_sub_pd(_mm256_loadu_pd(row + c), vmx));
      _mm256_storeu_pd(row + c, e);
      vsum = _mm256_add_pd(vsum, e);
    }
    double total = ReduceAdd(vsum);
    for (; c < cols; ++c) {
      row[c] = std::exp(row[c] - mx);
      total += row[c];
    }
    Scale(1.0 / total, row, cols);
  }
}

OMNIFAIR_AVX2 double DotF32(const float* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Widen 8 floats to 2x4 doubles; the products/accumulators stay double.
    const __m256 f = _mm256_loadu_ps(a + i);
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(f)),
                           _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(f, 1)),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                           _mm256_loadu_pd(b + i), acc0);
  }
  double acc = ReduceAdd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

OMNIFAIR_AVX2 void AxpyF32(double s, const float* b, double* a, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(a + i,
                     _mm256_fmadd_pd(vs, _mm256_cvtps_pd(_mm_loadu_ps(b + i)),
                                     _mm256_loadu_pd(a + i)));
  }
  for (; i < n; ++i) a[i] += s * static_cast<double>(b[i]);
}

#undef OMNIFAIR_AVX2

}  // namespace avx2

const Kernels kAvx2Table = {
    avx2::Dot,         avx2::Axpy,           avx2::Scale,
    avx2::Sum,         avx2::SigmoidInPlace, avx2::SoftmaxRows,
    avx2::DotF32,      avx2::AxpyF32,        avx2::LogisticLossResidual,
};
#endif  // OMNIFAIR_HAVE_AVX2_IMPL

// ---------------------------------------------------------------------------
// NEON backend (aarch64; NEON is baseline there so no runtime CPU check).
// 128-bit lanes, 2 doubles per vector, four accumulators deep. The
// transcendental kernels (sigmoid/softmax/logistic loss) reuse the scalar
// implementations: a polynomial float64x2 exp buys little over libm on
// 2-wide lanes.
// ---------------------------------------------------------------------------
#if OMNIFAIR_HAVE_NEON_IMPL
namespace neon {

double Dot(const double* a, const double* b, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    acc2 = vfmaq_f64(acc2, vld1q_f64(a + i + 4), vld1q_f64(b + i + 4));
    acc3 = vfmaq_f64(acc3, vld1q_f64(a + i + 6), vld1q_f64(b + i + 6));
  }
  for (; i + 2 <= n; i += 2) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
  }
  double acc =
      vaddvq_f64(vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3)));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void Axpy(double s, const double* b, double* a, size_t n) {
  const float64x2_t vs = vdupq_n_f64(s);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(a + i, vfmaq_f64(vld1q_f64(a + i), vs, vld1q_f64(b + i)));
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

void Scale(double s, double* v, size_t n) {
  const float64x2_t vs = vdupq_n_f64(s);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(v + i, vmulq_f64(vs, vld1q_f64(v + i)));
  }
  for (; i < n; ++i) v[i] *= s;
}

double Sum(const double* v, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_f64(acc0, vld1q_f64(v + i));
    acc1 = vaddq_f64(acc1, vld1q_f64(v + i + 2));
  }
  for (; i + 2 <= n; i += 2) acc0 = vaddq_f64(acc0, vld1q_f64(v + i));
  double acc = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) acc += v[i];
  return acc;
}

double DotF32(const float* a, const double* b, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t f = vld1q_f32(a + i);
    acc0 = vfmaq_f64(acc0, vcvt_f64_f32(vget_low_f32(f)), vld1q_f64(b + i));
    acc1 = vfmaq_f64(acc1, vcvt_f64_f32(vget_high_f32(f)), vld1q_f64(b + i + 2));
  }
  double acc = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

void AxpyF32(double s, const float* b, double* a, size_t n) {
  const float64x2_t vs = vdupq_n_f64(s);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wb = vcvt_f64_f32(vld1_f32(b + i));
    vst1q_f64(a + i, vfmaq_f64(vld1q_f64(a + i), vs, wb));
  }
  for (; i < n; ++i) a[i] += s * static_cast<double>(b[i]);
}

}  // namespace neon

const Kernels kNeonTable = {
    neon::Dot,         neon::Axpy,             neon::Scale,
    neon::Sum,         scalar::SigmoidInPlace, scalar::SoftmaxRows,
    neon::DotF32,      neon::AxpyF32,          scalar::LogisticLossResidual,
};
#endif  // OMNIFAIR_HAVE_NEON_IMPL

std::atomic<const Kernels*> g_active{nullptr};
std::atomic<int> g_active_backend{static_cast<int>(Backend::kScalar)};
std::once_flag g_resolve_once;

void PublishBackend(Backend backend) {
  g_active.store(&KernelsFor(backend), std::memory_order_release);
  g_active_backend.store(static_cast<int>(backend), std::memory_order_release);
  OF_GAUGE_SET("simd.path", static_cast<double>(backend));
}

Backend BestAvailable() {
  if (BackendAvailable(Backend::kAvx2)) return Backend::kAvx2;
  if (BackendAvailable(Backend::kNeon)) return Backend::kNeon;
  return Backend::kScalar;
}

Backend ResolveFromEnv() {
  const char* env = std::getenv("OMNIFAIR_SIMD");
  std::string value = env != nullptr ? env : "";
  for (char& c : value) c = static_cast<char>(std::tolower(c));
  if (value == "off" || value == "0" || value == "scalar" || value == "none") {
    return Backend::kScalar;
  }
  if (value == "avx2" || value == "neon") {
    const Backend forced = value == "avx2" ? Backend::kAvx2 : Backend::kNeon;
    if (BackendAvailable(forced)) return forced;
    OF_LOG(Warning) << "OMNIFAIR_SIMD=" << value
                    << " requested but unavailable; falling back to "
                    << BackendName(BestAvailable());
    return BestAvailable();
  }
  if (!value.empty() && value != "on" && value != "auto" && value != "1") {
    OF_LOG(Warning) << "unknown OMNIFAIR_SIMD value '" << value
                    << "'; using auto";
  }
  return BestAvailable();
}

void ResolveOnce() {
  std::call_once(g_resolve_once, [] { PublishBackend(ResolveFromEnv()); });
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

bool BackendAvailable(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if OMNIFAIR_HAVE_AVX2_IMPL
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Backend::kNeon:
#if OMNIFAIR_HAVE_NEON_IMPL
      return true;
#else
      return false;
#endif
  }
  return false;
}

const Kernels& KernelsFor(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return kScalarTable;
    case Backend::kAvx2:
#if OMNIFAIR_HAVE_AVX2_IMPL
      OF_CHECK(BackendAvailable(backend)) << "avx2 backend unavailable";
      return kAvx2Table;
#else
      break;
#endif
    case Backend::kNeon:
#if OMNIFAIR_HAVE_NEON_IMPL
      return kNeonTable;
#else
      break;
#endif
  }
  OF_CHECK(false) << "simd backend " << BackendName(backend)
                  << " not compiled in";
  return kScalarTable;
}

const Kernels& ScalarKernels() { return kScalarTable; }

Backend ActiveBackend() {
  ResolveOnce();
  return static_cast<Backend>(g_active_backend.load(std::memory_order_acquire));
}

const Kernels& Active() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    ResolveOnce();
    table = g_active.load(std::memory_order_acquire);
  }
  return *table;
}

void SetActiveBackend(Backend backend) {
  OF_CHECK(BackendAvailable(backend))
      << "simd backend " << BackendName(backend) << " unavailable";
  ResolveOnce();  // keep first-use resolution from clobbering the override
  PublishBackend(backend);
}

}  // namespace simd
}  // namespace omnifair
