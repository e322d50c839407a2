#include "linalg/simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <string>

#include "common/env.h"

namespace qpulse {
namespace kernels {

bool
avx2Supported()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("fma") != 0;
#else
    return false;
#endif
}

bool
pclmulSupported()
{
#if defined(__x86_64__) || defined(__i386__)
    // Tied to the active dispatch mode so QPULSE_SIMD=0 (or
    // setActiveSimd(Scalar)) forces the table CRC path as well.
    return activeSimd() != SimdMode::Scalar &&
           __builtin_cpu_supports("pclmul") != 0 &&
           __builtin_cpu_supports("sse2") != 0;
#else
    return false;
#endif
}

namespace {

/** -1 = unresolved; otherwise a SimdMode value. */
std::atomic<int> g_mode{-1};

SimdMode
resolveMode()
{
    std::string raw = envString("QPULSE_SIMD").value_or("");
    std::transform(raw.begin(), raw.end(), raw.begin(), [](char c) {
        return static_cast<char>(std::tolower(
            static_cast<unsigned char>(c)));
    });
    if (raw == "0" || raw == "scalar")
        return SimdMode::Scalar;
    if (!raw.empty() && raw != "1" && raw != "auto" && raw != "avx2")
        envWarn("QPULSE_SIMD",
                "expected 0/scalar or 1/auto/avx2; using auto");
    return avx2Supported() ? SimdMode::Avx2 : SimdMode::Scalar;
}

} // namespace

SimdMode
activeSimd()
{
    int mode = g_mode.load(std::memory_order_relaxed);
    if (mode < 0) {
        // A racing first call resolves to the same value, so the
        // blind store is benign.
        mode = static_cast<int>(resolveMode());
        g_mode.store(mode, std::memory_order_relaxed);
    }
    return static_cast<SimdMode>(mode);
}

void
setActiveSimd(SimdMode mode)
{
    if (mode == SimdMode::Avx2 && !avx2Supported()) {
        envWarn("QPULSE_SIMD",
                "AVX2 requested on a CPU without AVX2+FMA; using scalar");
        mode = SimdMode::Scalar;
    }
    g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

const char *
simdModeName(SimdMode mode)
{
    return mode == SimdMode::Avx2 ? "avx2" : "scalar";
}

void
gemmScalar(Complex *out, const Complex *a, const Complex *b,
           std::size_t m, std::size_t k, std::size_t n)
{
    // Bit-identical to the historical Matrix::operator* triple loop:
    // zero-initialize, then accumulate row-by-row skipping exact-zero
    // A entries (the skip preserves signed-zero behaviour of the
    // original, so scalar results never drift from the seed code).
    for (std::size_t i = 0; i < m * n; ++i)
        out[i] = Complex{0.0, 0.0};
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const Complex aik = a[i * k + kk];
            if (aik == Complex{0.0, 0.0})
                continue;
            const Complex *brow = b + kk * n;
            Complex *orow = out + i * n;
            for (std::size_t j = 0; j < n; ++j)
                orow[j] += aik * brow[j];
        }
    }
}

void
gemmAdjBScalar(Complex *out, const Complex *a, const Complex *b,
               std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        const Complex *arow = a + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const Complex *brow = b + j * k;
            Complex sum{0.0, 0.0};
            for (std::size_t kk = 0; kk < k; ++kk)
                sum += arow[kk] * std::conj(brow[kk]);
            out[i * n + j] = sum;
        }
    }
}

void
gemmAdjAScalar(Complex *out, const Complex *a, const Complex *b,
               std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m * n; ++i)
        out[i] = Complex{0.0, 0.0};
    for (std::size_t kk = 0; kk < k; ++kk) {
        const Complex *arow = a + kk * m;
        const Complex *brow = b + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
            const Complex s = std::conj(arow[i]);
            if (s == Complex{0.0, 0.0})
                continue;
            Complex *orow = out + i * n;
            for (std::size_t j = 0; j < n; ++j)
                orow[j] += s * brow[j];
        }
    }
}

void
matvecScalar(Complex *out, const Complex *a, const Complex *x,
             std::size_t m, std::size_t n)
{
    // Bit-identical to the historical Matrix::apply loop.
    for (std::size_t i = 0; i < m; ++i) {
        Complex total{0.0, 0.0};
        const Complex *arow = a + i * n;
        for (std::size_t j = 0; j < n; ++j)
            total += arow[j] * x[j];
        out[i] = total;
    }
}

void
gemmDispatch(Complex *out, const Complex *a, const Complex *b,
             std::size_t m, std::size_t k, std::size_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    if (activeSimd() == SimdMode::Avx2) {
        gemmAvx2(out, a, b, m, k, n);
        return;
    }
#endif
    gemmScalar(out, a, b, m, k, n);
}

void
gemmAdjBDispatch(Complex *out, const Complex *a, const Complex *b,
                 std::size_t m, std::size_t k, std::size_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    if (activeSimd() == SimdMode::Avx2) {
        gemmAdjBAvx2(out, a, b, m, k, n);
        return;
    }
#endif
    gemmAdjBScalar(out, a, b, m, k, n);
}

void
gemmAdjADispatch(Complex *out, const Complex *a, const Complex *b,
                 std::size_t m, std::size_t k, std::size_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    if (activeSimd() == SimdMode::Avx2) {
        gemmAdjAAvx2(out, a, b, m, k, n);
        return;
    }
#endif
    gemmAdjAScalar(out, a, b, m, k, n);
}

void
matvecDispatch(Complex *out, const Complex *a, const Complex *x,
               std::size_t m, std::size_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    if (activeSimd() == SimdMode::Avx2) {
        matvecAvx2(out, a, x, m, n);
        return;
    }
#endif
    matvecScalar(out, a, x, m, n);
}

} // namespace kernels
} // namespace qpulse
