/**
 * @file
 * Dense-kernel layer tests (ctest label: kernels): SIMD-vs-scalar
 * parity, bit-identity of the scalar kernels with the historical
 * triple loops, powm semantics, the eigensolver's work counters, and —
 * via a counting global allocator — zero-heap-allocation assertions on
 * the workspace API.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "linalg/workspace.h"
#include "telemetry/metrics.h"

// ---------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps the
// counter, so tests can assert a code region is heap-silent.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The replaced operator new above allocates with std::malloc, so
// releasing with std::free is correct; GCC cannot see the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace qpulse {
namespace {

std::uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

/** Restores the dispatch mode active at construction. */
class ScopedSimdMode
{
  public:
    explicit ScopedSimdMode(kernels::SimdMode mode)
        : saved_(kernels::activeSimd())
    {
        kernels::setActiveSimd(mode);
    }
    ~ScopedSimdMode() { kernels::setActiveSimd(saved_); }

  private:
    kernels::SimdMode saved_;
};

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = Complex{rng.uniform(-1.0, 1.0),
                              rng.uniform(-1.0, 1.0)};
    return m;
}

Matrix
randomHermitian(std::size_t n, std::uint64_t seed)
{
    const Matrix m = randomMatrix(n, n, seed);
    return (m + m.adjoint()) * Complex{0.5, 0.0};
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    double worst = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    return worst;
}

/** The historical Matrix::operator* triple loop, verbatim. */
Matrix
referenceGemm(const Matrix &a, const Matrix &b)
{
    Matrix result(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const Complex aik = a(i, k);
            if (aik == Complex{0.0, 0.0})
                continue;
            for (std::size_t j = 0; j < b.cols(); ++j)
                result(i, j) += aik * b(k, j);
        }
    }
    return result;
}

TEST(Kernels, ScalarGemmBitIdenticalToReferenceLoop)
{
    ScopedSimdMode scalar(kernels::SimdMode::Scalar);
    for (std::size_t n : {2u, 3u, 9u, 16u}) {
        const Matrix a = randomMatrix(n, n, 100 + n);
        const Matrix b = randomMatrix(n, n, 200 + n);
        const Matrix expected = referenceGemm(a, b);
        const Matrix got = a * b;
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c) {
                EXPECT_EQ(got(r, c).real(), expected(r, c).real());
                EXPECT_EQ(got(r, c).imag(), expected(r, c).imag());
            }
    }
}

TEST(Kernels, SimdGemmMatchesScalarAcrossSizes)
{
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this host";
    // All sizes 2..16, covering the d=3 and d=9 transmon dimensions
    // and every odd size (scalar-tail coverage in the AVX2 kernels).
    for (std::size_t n = 2; n <= 16; ++n) {
        const Matrix a = randomMatrix(n, n, 300 + n);
        const Matrix b = randomMatrix(n, n, 400 + n);
        Matrix scalar_out, simd_out;
        {
            ScopedSimdMode mode(kernels::SimdMode::Scalar);
            gemmInto(scalar_out, a, b);
        }
        {
            ScopedSimdMode mode(kernels::SimdMode::Avx2);
            gemmInto(simd_out, a, b);
        }
        EXPECT_LE(maxAbsDiff(scalar_out, simd_out), 1e-12)
            << "gemm parity failed at n=" << n;
    }
}

TEST(Kernels, BlockedGemmMatchesScalarAtLargeDims)
{
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this host";
    // Long reductions through the AVX2 streaming gemm (these sizes once
    // selected a cache-blocked kernel); 81 is the 9-level qutrit-pair
    // dimension.
    for (const std::size_t n : {48u, 81u, 96u}) {
        const Matrix a = randomMatrix(n, n, 2400 + n);
        const Matrix b = randomMatrix(n, n, 2500 + n);
        Matrix scalar_out, simd_out;
        {
            ScopedSimdMode mode(kernels::SimdMode::Scalar);
            gemmInto(scalar_out, a, b);
        }
        {
            ScopedSimdMode mode(kernels::SimdMode::Avx2);
            gemmInto(simd_out, a, b);
        }
        EXPECT_LE(maxAbsDiff(scalar_out, simd_out), 1e-12)
            << "large gemm parity failed at n=" << n;
    }
}

TEST(Kernels, BlockedGemmHandlesRectangularTails)
{
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this host";
    // Rectangular shapes with odd k/n leave a column tail after long
    // reductions in the AVX2 gemm.
    struct Shape { std::size_t m, k, n; };
    const Shape shapes[] = {{5, 81, 60}, {81, 50, 49}, {7, 64, 97}};
    for (const Shape &s : shapes) {
        const Matrix a = randomMatrix(s.m, s.k, 2600 + s.m);
        const Matrix b = randomMatrix(s.k, s.n, 2700 + s.n);
        Matrix want(s.m, s.n);
        kernels::gemmScalar(want.data().data(), a.data().data(),
                            b.data().data(), s.m, s.k, s.n);
        Matrix got;
        {
            ScopedSimdMode mode(kernels::SimdMode::Avx2);
            gemmInto(got, a, b);
        }
        EXPECT_LE(maxAbsDiff(want, got), 1e-12)
            << "rectangular gemm failed at m=" << s.m << " k=" << s.k
            << " n=" << s.n;
    }
}

TEST(Kernels, SimdAdjointKernelsMatchScalarAcrossSizes)
{
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this host";
    for (std::size_t n = 2; n <= 16; ++n) {
        const Matrix a = randomMatrix(n, n, 500 + n);
        const Matrix b = randomMatrix(n, n, 600 + n);
        Matrix s_adjb, s_adja, v_adjb, v_adja;
        {
            ScopedSimdMode mode(kernels::SimdMode::Scalar);
            gemmAdjBInto(s_adjb, a, b);
            gemmAdjAInto(s_adja, a, b);
        }
        {
            ScopedSimdMode mode(kernels::SimdMode::Avx2);
            gemmAdjBInto(v_adjb, a, b);
            gemmAdjAInto(v_adja, a, b);
        }
        EXPECT_LE(maxAbsDiff(s_adjb, v_adjb), 1e-12)
            << "a*b^dag parity failed at n=" << n;
        EXPECT_LE(maxAbsDiff(s_adja, v_adja), 1e-12)
            << "a^dag*b parity failed at n=" << n;
    }
}

TEST(Kernels, SimdMatvecMatchesScalarAcrossSizes)
{
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this host";
    for (std::size_t n = 2; n <= 16; ++n) {
        const Matrix a = randomMatrix(n, n, 700 + n);
        Rng rng(800 + n);
        Vector x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = Complex{rng.uniform(-1.0, 1.0),
                           rng.uniform(-1.0, 1.0)};
        Vector s_out, v_out;
        {
            ScopedSimdMode mode(kernels::SimdMode::Scalar);
            applyInto(s_out, a, x);
        }
        {
            ScopedSimdMode mode(kernels::SimdMode::Avx2);
            applyInto(v_out, a, x);
        }
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_LE(std::abs(s_out[i] - v_out[i]), 1e-12)
                << "matvec parity failed at n=" << n;
    }
}

TEST(Kernels, AdjointKernelsMatchMaterializedAdjoint)
{
    const Matrix a = randomMatrix(9, 9, 901);
    const Matrix b = randomMatrix(9, 9, 902);
    Matrix adjb, adja;
    gemmAdjBInto(adjb, a, b);
    gemmAdjAInto(adja, a, b);
    EXPECT_LE(maxAbsDiff(adjb, a * b.adjoint()), 1e-13);
    EXPECT_LE(maxAbsDiff(adja, a.adjoint() * b), 1e-13);
}

TEST(Kernels, PowmMatchesRepeatedMultiplication)
{
    ScopedSimdMode scalar(kernels::SimdMode::Scalar);
    const Matrix base = randomMatrix(5, 5, 1100) * Complex{0.3, 0.0};
    Matrix expected = base;
    for (std::uint64_t count = 1; count <= 12; ++count) {
        EXPECT_LE(maxAbsDiff(powm(base, count), expected), 1e-12)
            << "powm failed at count=" << count;
        expected = base * expected;
    }
}

TEST(Kernels, EigSweepCountersAreExported)
{
    auto &reg = telemetry::MetricsRegistry::global();
    telemetry::Counter &calls = reg.counter("sim.eig.calls");
    telemetry::Counter &sweeps = reg.counter("sim.eig.sweeps");

    const std::uint64_t calls0 = calls.value();
    const std::uint64_t sweeps0 = sweeps.value();

    (void)eigHermitian(randomHermitian(6, 1300));
    EXPECT_EQ(calls.value(), calls0 + 1);
    EXPECT_GT(sweeps.value(), sweeps0);
}

TEST(Kernels, SetActiveSimdControlsDispatch)
{
    const kernels::SimdMode original = kernels::activeSimd();
    kernels::setActiveSimd(kernels::SimdMode::Scalar);
    EXPECT_EQ(kernels::activeSimd(), kernels::SimdMode::Scalar);
    // Requesting AVX2 on a CPU without it must fall back, not crash.
    kernels::setActiveSimd(kernels::SimdMode::Avx2);
    EXPECT_EQ(kernels::activeSimd(), kernels::avx2Supported()
                                         ? kernels::SimdMode::Avx2
                                         : kernels::SimdMode::Scalar);
    kernels::setActiveSimd(original);
}

// ---------------------------------------------------------------------
// Zero-allocation assertions.
// ---------------------------------------------------------------------

TEST(Kernels, GemmIntoIsHeapSilentAfterWarmup)
{
    const Matrix a = randomMatrix(9, 9, 1400);
    const Matrix b = randomMatrix(9, 9, 1401);
    Matrix out;
    gemmInto(out, a, b); // Warm-up sizes the output buffer.

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 100; ++i)
        gemmInto(out, a, b);
    EXPECT_EQ(allocCount(), before);
}

TEST(Kernels, PowmIntoIsHeapSilentAfterWarmup)
{
    const Matrix base = randomMatrix(9, 9, 1500) * Complex{0.3, 0.0};
    Workspace ws;
    Matrix out;
    powmInto(out, base, 13, ws); // Warm-up.

    const std::uint64_t before = allocCount();
    for (int i = 0; i < 50; ++i)
        powmInto(out, base, 13, ws);
    EXPECT_EQ(allocCount(), before);
}

TEST(Kernels, WorkspaceReusesSlotCapacity)
{
    Workspace ws;
    (void)ws.matrix(0, 9, 9);
    (void)ws.vector(0, 9);
    const std::uint64_t before = allocCount();
    for (int i = 0; i < 100; ++i) {
        Matrix &m = ws.matrix(0, 9, 9);
        m.setZero();
        Vector &v = ws.vector(0, 9);
        v.setZero();
        // Shrinking and re-growing within capacity stays silent too.
        (void)ws.matrix(0, 3, 3);
        (void)ws.vector(0, 3);
    }
    EXPECT_EQ(allocCount(), before);
}

} // namespace
} // namespace qpulse
