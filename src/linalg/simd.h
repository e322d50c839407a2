/**
 * @file
 * Runtime-dispatched dense complex kernels (the "dense-kernel layer").
 *
 * Every dense product in qpulse funnels through these raw row-major
 * kernels. Two dispatch tiers:
 *  - Scalar reproduces the original triple-loop implementations
 *    bit-for-bit (they ARE those loops, hoisted) and is the reference
 *    every other path is checked against;
 *  - Avx2 vectorizes two complex doubles per 256-bit lane with FMA.
 * Dispatch is resolved once per process from a cpuid probe and the
 * QPULSE_SIMD environment knob (0/"scalar" forces scalar, the escape
 * hatch for bit-exact reproduction of historical results; 1/"auto"/
 * "avx2" picks AVX2 when the CPU has it). CPUs without AVX2+FMA,
 * including every non-x86 CPU, run Scalar. Tests override the mode
 * with setActiveSimd().
 *
 * Numerics contract (docs/PERFORMANCE.md, "Kernel architecture"):
 *  - within one dispatch mode results are deterministic — the mode is
 *    process-wide, so thread count never changes output bits;
 *  - scalar mode is bit-identical to the pre-overhaul implementation;
 *  - Avx2 agrees with scalar to <= 1e-12 max-abs on every matrix this
 *    project produces (pinned per kernel by tests/test_kernels.cc and
 *    end to end by tests/test_pulsesim_cache.cc).
 */
#ifndef QPULSE_LINALG_SIMD_H
#define QPULSE_LINALG_SIMD_H

#include <cstddef>

#include "common/constants.h"

namespace qpulse {
namespace kernels {

/** Which GEMM/matvec implementation the dispatcher selects. */
enum class SimdMode
{
    Scalar = 0, ///< Portable triple loops (bit-identical to the seed code).
    Avx2 = 2,   ///< AVX2+FMA, two complex doubles per 256-bit lane.
};

/** True when the CPU supports AVX2 and FMA (false on non-x86). */
bool avx2Supported();

/**
 * True when the CPU supports carry-less multiply (PCLMULQDQ; false on
 * non-x86). Gate for the folding CRC-64 fast path in store/serde.cc.
 * Honours the QPULSE_SIMD escape hatch: forcing scalar disables this
 * probe too, so the table CRC stays reachable for differential tests.
 */
bool pclmulSupported();

/**
 * The active dispatch mode, resolved once on first use from
 * QPULSE_SIMD: 0/"scalar" forces Scalar; 1/"auto"/"avx2"/unset picks
 * Avx2 when the CPU supports it, else Scalar. Any other value warns
 * and is treated as auto.
 */
SimdMode activeSimd();

/**
 * Override the dispatch mode (test seam). Requesting Avx2 on a CPU
 * without AVX2+FMA falls back to Scalar, with a warning.
 */
void setActiveSimd(SimdMode mode);

/** "scalar" / "avx2" (reports and bench JSON). */
const char *simdModeName(SimdMode mode);

// ---------------------------------------------------------------------
// Raw kernels on row-major Complex buffers. `out` must not alias `a`
// or `b`; every kernel fully (re)defines `out`.
// ---------------------------------------------------------------------

/** out[m x n] = a[m x k] * b[k x n]. */
void gemmScalar(Complex *out, const Complex *a, const Complex *b,
                std::size_t m, std::size_t k, std::size_t n);

/** out[m x n] = a[m x k] * b[n x k]^dagger (B conjugate-transposed). */
void gemmAdjBScalar(Complex *out, const Complex *a, const Complex *b,
                    std::size_t m, std::size_t k, std::size_t n);

/** out[m x n] = a[k x m]^dagger * b[k x n] (A conjugate-transposed). */
void gemmAdjAScalar(Complex *out, const Complex *a, const Complex *b,
                    std::size_t m, std::size_t k, std::size_t n);

/** out[m] = a[m x n] * x[n]. */
void matvecScalar(Complex *out, const Complex *a, const Complex *x,
                  std::size_t m, std::size_t n);

#if defined(__x86_64__) || defined(__i386__)
/** AVX2/FMA counterparts (defined only on x86; gate on avx2Supported). */
void gemmAvx2(Complex *out, const Complex *a, const Complex *b,
              std::size_t m, std::size_t k, std::size_t n);
void gemmAdjBAvx2(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t k, std::size_t n);
void gemmAdjAAvx2(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t k, std::size_t n);
void matvecAvx2(Complex *out, const Complex *a, const Complex *x,
                std::size_t m, std::size_t n);
#endif

// ---------------------------------------------------------------------
// Tier-routing entry points: select the active SimdMode's kernel.
// These do NOT touch the linalg.gemm.* counters — the Matrix/StatePanel
// wrappers own accounting.
// ---------------------------------------------------------------------
void gemmDispatch(Complex *out, const Complex *a, const Complex *b,
                  std::size_t m, std::size_t k, std::size_t n);
void gemmAdjBDispatch(Complex *out, const Complex *a, const Complex *b,
                      std::size_t m, std::size_t k, std::size_t n);
void gemmAdjADispatch(Complex *out, const Complex *a, const Complex *b,
                      std::size_t m, std::size_t k, std::size_t n);
void matvecDispatch(Complex *out, const Complex *a, const Complex *x,
                    std::size_t m, std::size_t n);

} // namespace kernels
} // namespace qpulse

#endif // QPULSE_LINALG_SIMD_H
