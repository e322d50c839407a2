/**
 * @file
 * AVX2/FMA variants of the dense complex kernels.
 *
 * Compiled with per-function target attributes so the translation unit
 * stays buildable with a baseline -march: the dispatcher
 * (kernels::activeSimd) only routes here after a cpuid probe.
 *
 * Layout exploited throughout: std::complex<double> is
 * layout-compatible with double[2], and one 256-bit register holds two
 * complex doubles [re0, im0, re1, im1]. A complex multiply-accumulate
 * is two broadcasts, one in-lane swap and one fmaddsub:
 *
 *   acc += (ar + i*ai) * [b0, b1]
 *     t    = ai * swap(b)              // [ai*bi, ai*br, ...]
 *     prod = fmaddsub(ar, b, t)        // [ar*br - ai*bi, ar*bi + ai*br]
 */
#if defined(__x86_64__) || defined(__i386__)

#include "linalg/simd.h"

#include <immintrin.h>

namespace qpulse {
namespace kernels {

namespace {

#define QPULSE_AVX2 __attribute__((target("avx2,fma")))

QPULSE_AVX2 inline const double *
dp(const Complex *z)
{
    return reinterpret_cast<const double *>(z);
}

QPULSE_AVX2 inline double *
dp(Complex *z)
{
    return reinterpret_cast<double *>(z);
}

/** Sum of even lanes (0, 2) of a 256-bit vector. */
QPULSE_AVX2 inline double
sumEven(__m256d v)
{
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    return _mm_cvtsd_f64(lo) + _mm_cvtsd_f64(hi);
}

/** Sum of odd lanes (1, 3) of a 256-bit vector. */
QPULSE_AVX2 inline double
sumOdd(__m256d v)
{
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    return _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)) +
           _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
}

} // namespace

QPULSE_AVX2 void
gemmAvx2(Complex *out, const Complex *a, const Complex *b,
         std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        const Complex *arow = a + i * k;
        Complex *orow = out + i * n;
        std::size_t j = 0;
        for (; j + 2 <= n; j += 2) {
            __m256d acc = _mm256_setzero_pd();
            for (std::size_t kk = 0; kk < k; ++kk) {
                const double *az = dp(arow + kk);
                const __m256d are = _mm256_broadcast_sd(az);
                const __m256d aim = _mm256_broadcast_sd(az + 1);
                const __m256d bv =
                    _mm256_loadu_pd(dp(b + kk * n + j));
                const __m256d bswap = _mm256_permute_pd(bv, 0x5);
                const __m256d t = _mm256_mul_pd(aim, bswap);
                acc = _mm256_add_pd(acc,
                                    _mm256_fmaddsub_pd(are, bv, t));
            }
            _mm256_storeu_pd(dp(orow + j), acc);
        }
        for (; j < n; ++j) {
            Complex sum{0.0, 0.0};
            for (std::size_t kk = 0; kk < k; ++kk)
                sum += arow[kk] * b[kk * n + j];
            orow[j] = sum;
        }
    }
}

QPULSE_AVX2 void
gemmAdjBAvx2(Complex *out, const Complex *a, const Complex *b,
             std::size_t m, std::size_t k, std::size_t n)
{
    // out(i, j) = <row_j(b) | row_i(a)>: both operands are contiguous
    // rows, so the inner product vectorizes without any transpose.
    for (std::size_t i = 0; i < m; ++i) {
        const Complex *arow = a + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const Complex *brow = b + j * k;
            __m256d acc_r = _mm256_setzero_pd();
            __m256d acc_i = _mm256_setzero_pd();
            std::size_t kk = 0;
            for (; kk + 2 <= k; kk += 2) {
                const __m256d x = _mm256_loadu_pd(dp(arow + kk));
                const __m256d y = _mm256_loadu_pd(dp(brow + kk));
                acc_r = _mm256_fmadd_pd(x, y, acc_r);
                acc_i = _mm256_fmadd_pd(
                    x, _mm256_permute_pd(y, 0x5), acc_i);
            }
            // x * conj(y): re = xr*yr + xi*yi, im = xi*yr - xr*yi.
            double re = sumEven(acc_r) + sumOdd(acc_r);
            double im = sumOdd(acc_i) - sumEven(acc_i);
            for (; kk < k; ++kk) {
                const Complex z = arow[kk] * std::conj(brow[kk]);
                re += z.real();
                im += z.imag();
            }
            out[i * n + j] = Complex{re, im};
        }
    }
}

QPULSE_AVX2 void
gemmAdjAAvx2(Complex *out, const Complex *a, const Complex *b,
             std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m * n; ++i)
        out[i] = Complex{0.0, 0.0};
    for (std::size_t kk = 0; kk < k; ++kk) {
        const Complex *arow = a + kk * m;
        const Complex *brow = b + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
            const double *az = dp(arow + i);
            // conj(a(kk, i)): negate the broadcast imaginary part.
            const __m256d sre = _mm256_broadcast_sd(az);
            const __m256d sim = _mm256_sub_pd(
                _mm256_setzero_pd(), _mm256_broadcast_sd(az + 1));
            Complex *orow = out + i * n;
            std::size_t j = 0;
            for (; j + 2 <= n; j += 2) {
                const __m256d bv = _mm256_loadu_pd(dp(brow + j));
                const __m256d bswap = _mm256_permute_pd(bv, 0x5);
                const __m256d t = _mm256_mul_pd(sim, bswap);
                const __m256d acc = _mm256_add_pd(
                    _mm256_loadu_pd(dp(orow + j)),
                    _mm256_fmaddsub_pd(sre, bv, t));
                _mm256_storeu_pd(dp(orow + j), acc);
            }
            const Complex s = std::conj(arow[i]);
            for (; j < n; ++j)
                orow[j] += s * brow[j];
        }
    }
}

QPULSE_AVX2 void
matvecAvx2(Complex *out, const Complex *a, const Complex *x,
           std::size_t m, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        const Complex *arow = a + i * n;
        __m256d acc_r = _mm256_setzero_pd();
        __m256d acc_i = _mm256_setzero_pd();
        std::size_t j = 0;
        for (; j + 2 <= n; j += 2) {
            const __m256d av = _mm256_loadu_pd(dp(arow + j));
            const __m256d xv = _mm256_loadu_pd(dp(x + j));
            acc_r = _mm256_fmadd_pd(av, xv, acc_r);
            acc_i = _mm256_fmadd_pd(
                av, _mm256_permute_pd(xv, 0x5), acc_i);
        }
        // a * x (no conjugation): re = ar*xr - ai*xi,
        // im = ar*xi + ai*xr.
        double re = sumEven(acc_r) - sumOdd(acc_r);
        double im = sumEven(acc_i) + sumOdd(acc_i);
        for (; j < n; ++j) {
            const Complex z = arow[j] * x[j];
            re += z.real();
            im += z.imag();
        }
        out[i] = Complex{re, im};
    }
}

#undef QPULSE_AVX2

} // namespace kernels
} // namespace qpulse

#endif // x86
