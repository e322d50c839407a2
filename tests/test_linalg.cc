/**
 * @file
 * Unit + property tests for the linear algebra substrate: matrix
 * arithmetic, Kronecker products, the Hermitian eigensolver, matrix
 * exponentials, gate matrices and fidelity measures.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/gates.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace {

Matrix
randomHermitian(std::size_t n, Rng &rng)
{
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) = Complex{rng.uniform(-1, 1), 0.0};
        for (std::size_t j = i + 1; j < n; ++j) {
            const Complex z{rng.uniform(-1, 1), rng.uniform(-1, 1)};
            a(i, j) = z;
            a(j, i) = std::conj(z);
        }
    }
    return a;
}

TEST(Vector, NormAndNormalize)
{
    Vector v{Complex{3, 0}, Complex{0, 4}};
    EXPECT_NEAR(v.norm(), 5.0, 1e-12);
    v.normalize();
    EXPECT_NEAR(v.norm(), 1.0, 1e-12);
}

TEST(Vector, DotConjugateLinear)
{
    Vector a{Complex{0, 1}, Complex{1, 0}};
    Vector b{Complex{1, 0}, Complex{0, 0}};
    // <a|b> = conj(i) * 1 = -i.
    const Complex d = a.dot(b);
    EXPECT_NEAR(d.real(), 0.0, 1e-12);
    EXPECT_NEAR(d.imag(), -1.0, 1e-12);
}

TEST(Matrix, IdentityAndDiagonal)
{
    const Matrix eye = Matrix::identity(3);
    EXPECT_TRUE(eye.isIdentity());
    const Matrix d = Matrix::diagonal({Complex{1, 0}, Complex{0, 1}});
    EXPECT_EQ(d(1, 1), (Complex{0, 1}));
    EXPECT_EQ(d(0, 1), (Complex{0, 0}));
}

TEST(Matrix, MultiplyKnownProduct)
{
    // X * Z = -iY.
    const Matrix xz = gates::x() * gates::z();
    const Matrix expected = gates::y() * Complex{0, -1};
    EXPECT_LT(xz.maxAbsDiff(expected), 1e-12);
}

TEST(Matrix, AdjointAndTranspose)
{
    Matrix m{{Complex{1, 2}, Complex{3, 4}},
             {Complex{5, 6}, Complex{7, 8}}};
    const Matrix adj = m.adjoint();
    EXPECT_EQ(adj(0, 1), (Complex{5, -6}));
    const Matrix tr = m.transpose();
    EXPECT_EQ(tr(0, 1), (Complex{5, 6}));
    EXPECT_LT((m.conjugate().transpose()).maxAbsDiff(adj), 1e-15);
}

TEST(Matrix, TraceAndNorm)
{
    const Matrix z = gates::z();
    EXPECT_NEAR(std::abs(z.trace()), 0.0, 1e-12);
    EXPECT_NEAR(z.frobeniusNorm(), std::sqrt(2.0), 1e-12);
}

TEST(Matrix, UnitaryChecks)
{
    EXPECT_TRUE(gates::h().isUnitary());
    EXPECT_TRUE(gates::cnot().isUnitary());
    Matrix not_unitary{{1, 1}, {0, 1}};
    EXPECT_FALSE(not_unitary.isUnitary());
}

TEST(Matrix, HermitianCheck)
{
    EXPECT_TRUE(gates::x().isHermitian());
    EXPECT_TRUE(gates::y().isHermitian());
    EXPECT_FALSE(gates::s().isHermitian());
}

TEST(Kron, PauliProducts)
{
    const Matrix zz = kron(gates::z(), gates::z());
    EXPECT_EQ(zz.rows(), 4u);
    EXPECT_EQ(zz(0, 0), (Complex{1, 0}));
    EXPECT_EQ(zz(1, 1), (Complex{-1, 0}));
    EXPECT_EQ(zz(2, 2), (Complex{-1, 0}));
    EXPECT_EQ(zz(3, 3), (Complex{1, 0}));
}

TEST(Kron, MixedProductProperty)
{
    // (A (x) B)(C (x) D) = AC (x) BD.
    Rng rng(3);
    const Matrix a = randomHermitian(2, rng);
    const Matrix b = randomHermitian(2, rng);
    const Matrix c = randomHermitian(2, rng);
    const Matrix d = randomHermitian(2, rng);
    const Matrix lhs = kron(a, b) * kron(c, d);
    const Matrix rhs = kron(a * c, b * d);
    EXPECT_LT(lhs.maxAbsDiff(rhs), 1e-12);
}

TEST(Kron, VectorKron)
{
    Vector zero{Complex{1, 0}, Complex{0, 0}};
    Vector one{Complex{0, 0}, Complex{1, 0}};
    const Vector v = kron(zero, one); // |01>
    EXPECT_NEAR(std::norm(v[1]), 1.0, 1e-12);
}

TEST(Eigen, DiagonalMatrix)
{
    const Matrix d =
        Matrix::diagonal({Complex{3, 0}, Complex{-1, 0}, Complex{2, 0}});
    const EigenSystem es = eigHermitian(d);
    EXPECT_NEAR(es.values[0], -1.0, 1e-10);
    EXPECT_NEAR(es.values[1], 2.0, 1e-10);
    EXPECT_NEAR(es.values[2], 3.0, 1e-10);
}

TEST(Eigen, PauliX)
{
    const EigenSystem es = eigHermitian(gates::x());
    EXPECT_NEAR(es.values[0], -1.0, 1e-10);
    EXPECT_NEAR(es.values[1], 1.0, 1e-10);
}

class EigenRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EigenRandomTest, ReconstructsMatrix)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 8;
    const Matrix a = randomHermitian(n, rng);
    const EigenSystem es = eigHermitian(a);

    // V diag(values) V^dag == A.
    std::vector<Complex> diag(n);
    for (std::size_t i = 0; i < n; ++i)
        diag[i] = Complex{es.values[i], 0.0};
    const Matrix rebuilt =
        es.vectors * Matrix::diagonal(diag) * es.vectors.adjoint();
    EXPECT_LT(rebuilt.maxAbsDiff(a), 1e-9);
    EXPECT_TRUE(es.vectors.isUnitary(1e-9));

    // Eigenvalues ascending.
    for (std::size_t i = 1; i < n; ++i)
        EXPECT_LE(es.values[i - 1], es.values[i] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomHermitians, EigenRandomTest,
                         ::testing::Range(0, 12));

TEST(Expm, HermitianPropagatorIsUnitary)
{
    Rng rng(5);
    const Matrix h = randomHermitian(5, rng);
    const Matrix u = expMinusIHt(h, 0.37);
    EXPECT_TRUE(u.isUnitary(1e-9));
}

TEST(Expm, MatchesAnalyticRotation)
{
    // exp(-i theta/2 X) = Rx(theta).
    const double theta = 1.234;
    const Matrix u = expMinusIHt(gates::x(), theta / 2);
    EXPECT_LT(u.maxAbsDiff(gates::rx(theta)), 1e-10);
}

/**
 * exp(-i H t) built from the eigendecomposition, V diag(e^{-i lambda t})
 * V^dag: the oracle the exponential kernel is held to.
 */
Matrix
eigenPropagator(const Matrix &h, double t)
{
    const EigenSystem es = eigHermitian(h);
    std::vector<Complex> phases(h.rows());
    for (std::size_t i = 0; i < h.rows(); ++i)
        phases[i] = std::exp(Complex{0.0, -es.values[i] * t});
    return es.vectors * Matrix::diagonal(phases) * es.vectors.adjoint();
}

/** max |(U^dag U - I)_rc|. */
double
unitarityDefect(const Matrix &u)
{
    return (u.adjoint() * u).maxAbsDiff(Matrix::identity(u.rows()));
}

TEST(Expm, GeneralAgainstHermitianPath)
{
    Rng rng(9);
    const Matrix h = randomHermitian(4, rng);
    const Matrix via_eig = eigenPropagator(h, 1.0);
    const Matrix via_taylor = expm(h * Complex{0.0, -1.0});
    EXPECT_LT(via_eig.maxAbsDiff(via_taylor), 1e-13);
}

TEST(Expm, Identity)
{
    const Matrix z = Matrix::zero(3);
    EXPECT_TRUE(expm(z).isIdentity(1e-12));
}

TEST(Expm, EarlyExitKeepsHermitianAgreementAcrossScales)
{
    // The degree ladder exits at the lowest Taylor degree whose bound
    // covers the norm. It must agree with the eigendecomposition at
    // small norms (low degree, no squaring), at norms just above the
    // squaring threshold, and at large norms (many squarings compound
    // the rounding error).
    Rng rng(11);
    const Matrix h = randomHermitian(5, rng);
    for (const double t : {1e-4, 0.3, 1.0, 7.0, 30.0}) {
        const Matrix via_eig = eigenPropagator(h, t);
        const Matrix via_taylor = expm(h * Complex{0.0, -t});
        EXPECT_LT(via_eig.maxAbsDiff(via_taylor), 1e-12)
            << "expm diverged from the Hermitian path at t=" << t;
        EXPECT_TRUE(via_taylor.isUnitary(1e-12));
    }
}

TEST(Expm, EarlyExitMatchesScaledIdentity)
{
    // exp(a I) = e^a I exactly: the trace shift leaves a zero matrix,
    // which exits at the lowest degree without degrading the result.
    const double a = 0.125;
    Matrix m = Matrix::identity(4);
    m *= Complex{a, 0.0};
    const Matrix e = expm(m);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(e(i, i).real(), std::exp(a), 1e-13);
}

TEST(Expm, MatchesEigensolverOracleOnBothTiers)
{
    // Seeded Hermitians at the simulator's dimensions (a qubit, a
    // transmon qutrit, a coupled pair of them), each scaled so that
    // ||t (H - mu I)||_1 runs from 1e-3 to 8: every rung of the degree
    // ladder, then 1 to 4 squarings past theta_16 ~ 0.78. The gemms
    // inside go through the SIMD dispatch, so both tiers are held to
    // the same bounds, pinned at about 10x the largest values measured
    // (oracle 4.2e-15 scalar, 3.6e-15 AVX2; unitarity 3.3e-15 scalar,
    // 3.1e-15 AVX2).
    constexpr double kOracleBound = 4e-14;
    constexpr double kUnitarityBound = 3e-14;
    const telemetry::Counter &squarings =
        telemetry::MetricsRegistry::global().counter("sim.expm.squarings");
    const kernels::SimdMode original = kernels::activeSimd();
    std::vector<kernels::SimdMode> tiers = {kernels::SimdMode::Scalar};
    if (kernels::avx2Supported())
        tiers.push_back(kernels::SimdMode::Avx2);
    for (const kernels::SimdMode tier : tiers) {
        kernels::setActiveSimd(tier);
        double worst_oracle = 0.0;
        double worst_unitarity = 0.0;
        std::uint64_t most_squarings = 0;
        for (const std::size_t d : {2u, 3u, 9u}) {
            Rng rng(0xE4A0 + d);
            for (int draw = 0; draw < 8; ++draw) {
                const Matrix h = randomHermitian(d, rng);
                const Complex mu = h.trace() / static_cast<double>(d);
                const Matrix shifted = h - Matrix::identity(d) * mu;
                double norm1 = 0.0;
                for (std::size_t c = 0; c < d; ++c) {
                    double column = 0.0;
                    for (std::size_t r = 0; r < d; ++r)
                        column += std::abs(shifted(r, c));
                    norm1 = std::max(norm1, column);
                }
                for (const double target :
                     {1e-3, 1e-2, 0.05, 0.2, 0.5, 0.78, 1.2, 2.5, 5.0,
                      8.0}) {
                    const double t = target / norm1;
                    const std::uint64_t before = squarings.value();
                    const Matrix u = expMinusIHt(h, t);
                    most_squarings = std::max(
                        most_squarings, squarings.value() - before);
                    worst_oracle = std::max(
                        worst_oracle,
                        u.maxAbsDiff(eigenPropagator(h, t)));
                    worst_unitarity =
                        std::max(worst_unitarity, unitarityDefect(u));
                }
            }
        }
        EXPECT_LE(worst_oracle, kOracleBound)
            << kernels::simdModeName(tier);
        EXPECT_LE(worst_unitarity, kUnitarityBound)
            << kernels::simdModeName(tier);
        EXPECT_EQ(most_squarings, 4u) << kernels::simdModeName(tier);
    }
    kernels::setActiveSimd(original);
}

TEST(SolveLinear, SolvesKnownSystem)
{
    // x + 2y = 5; 3x - y = 1 -> x = 1, y = 2.
    const auto x = solveLinearReal({{1, 2}, {3, -1}}, {5, 1});
    EXPECT_NEAR(x[0], 1.0, 1e-10);
    EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(SolveLinear, SingularThrows)
{
    EXPECT_THROW(solveLinearReal({{1, 2}, {2, 4}}, {1, 2}), FatalError);
}

TEST(Gates, RotationComposition)
{
    // Rx(a) Rx(b) = Rx(a + b).
    const Matrix lhs = gates::rx(0.4) * gates::rx(0.9);
    EXPECT_LT(lhs.maxAbsDiff(gates::rx(1.3)), 1e-12);
    const Matrix lz = gates::rz(0.4) * gates::rz(0.9);
    EXPECT_LT(lz.maxAbsDiff(gates::rz(1.3)), 1e-12);
}

TEST(Gates, HadamardConjugation)
{
    // H X H = Z and H Z H = X.
    const Matrix h = gates::h();
    EXPECT_LT((h * gates::x() * h).maxAbsDiff(gates::z()), 1e-12);
    EXPECT_LT((h * gates::z() * h).maxAbsDiff(gates::x()), 1e-12);
}

TEST(Gates, U3Identities)
{
    // U3(pi, 0, pi) = X.
    EXPECT_GT(unitaryOverlap(gates::u3(kPi, 0, kPi), gates::x()),
              1 - 1e-10);
    // U3(pi/2, 0, pi) = H.
    EXPECT_GT(unitaryOverlap(gates::u3(kPi / 2, 0, kPi), gates::h()),
              1 - 1e-10);
    // U3(theta, -pi/2, pi/2) = Rx(theta).
    EXPECT_GT(unitaryOverlap(gates::u3(0.7, -kPi / 2, kPi / 2),
                             gates::rx(0.7)),
              1 - 1e-10);
}

TEST(Gates, CnotFromCr)
{
    // CNOT = e^{-i pi/4} Rz(-90)_c Rx(-90)_t CR(90) (Section 5.1).
    const Matrix built = kron(gates::rz(-kPi / 2), gates::i2()) *
                         kron(gates::i2(), gates::rx(-kPi / 2)) *
                         gates::cr(kPi / 2);
    EXPECT_GT(unitaryOverlap(built, gates::cnot()), 1 - 1e-10);
}

TEST(Gates, EchoedCrIdentity)
{
    // (X (x) I) CR(-t/2) (X (x) I) CR(t/2) = CR(t) (Section 5.1).
    const double theta = 0.9;
    const Matrix xc = kron(gates::x(), gates::i2());
    const Matrix echo =
        xc * gates::cr(-theta / 2) * xc * gates::cr(theta / 2);
    EXPECT_LT(echo.maxAbsDiff(gates::cr(theta)), 1e-12);
}

TEST(Gates, ZzFromCr)
{
    // ZZ(t) = (I (x) H) CR(t) (I (x) H) (Section 6.2).
    const double theta = 0.8;
    const Matrix ih = kron(gates::i2(), gates::h());
    EXPECT_LT((ih * gates::cr(theta) * ih).maxAbsDiff(gates::zz(theta)),
              1e-12);
}

TEST(Gates, SqrtIswapSquares)
{
    const Matrix half = gates::sqrtIswap();
    EXPECT_LT((half * half).maxAbsDiff(gates::iswap()), 1e-12);
}

TEST(Gates, OpenCnotFromCnot)
{
    const Matrix xi = kron(gates::x(), gates::i2());
    EXPECT_LT((xi * gates::cnot() * xi).maxAbsDiff(gates::openCnot()),
              1e-12);
}

TEST(Gates, Embed1qPlacesCorrectWire)
{
    const Matrix x0 = gates::embed1q(gates::x(), 0, 2);
    const Matrix x1 = gates::embed1q(gates::x(), 1, 2);
    EXPECT_LT(x0.maxAbsDiff(kron(gates::x(), gates::i2())), 1e-12);
    EXPECT_LT(x1.maxAbsDiff(kron(gates::i2(), gates::x())), 1e-12);
}

TEST(Gates, Embed2qMatchesKronForAdjacent)
{
    const Matrix direct = gates::embed2q(gates::cnot(), 0, 1, 2);
    EXPECT_LT(direct.maxAbsDiff(gates::cnot()), 1e-12);
}

TEST(Gates, Embed2qReversedWires)
{
    // CNOT with control = wire 1, target = wire 0 equals the
    // SWAP-conjugated CNOT.
    const Matrix reversed = gates::embed2q(gates::cnot(), 1, 0, 2);
    const Matrix expected =
        gates::swap() * gates::cnot() * gates::swap();
    EXPECT_LT(reversed.maxAbsDiff(expected), 1e-12);
}

TEST(Gates, Embed2qNonAdjacent)
{
    // CNOT between wires 0 and 2 of a 3-qubit register: check action
    // on basis states.
    const Matrix cx02 = gates::embed2q(gates::cnot(), 0, 2, 3);
    // |100> (index 4) -> |101> (index 5).
    Vector in(8);
    in[4] = Complex{1, 0};
    const Vector out = cx02.apply(in);
    EXPECT_NEAR(std::norm(out[5]), 1.0, 1e-12);
}

TEST(Fidelity, OverlapInvariantToGlobalPhase)
{
    const Matrix u = gates::h();
    const Matrix phased = u * std::exp(Complex{0, 1.1});
    EXPECT_NEAR(unitaryOverlap(u, phased), 1.0, 1e-12);
}

TEST(Fidelity, AverageGateFidelityRange)
{
    EXPECT_NEAR(averageGateFidelity(gates::x(), gates::x()), 1.0, 1e-12);
    // Orthogonal gates: Fp = 0, avg = 1/(d+1).
    EXPECT_NEAR(averageGateFidelity(gates::x(), gates::z()), 1.0 / 3.0,
                1e-12);
}

TEST(Fidelity, StateFidelity)
{
    Vector a{Complex{1, 0}, Complex{0, 0}};
    Vector b{Complex{0, 0}, Complex{1, 0}};
    EXPECT_NEAR(stateFidelity(a, a), 1.0, 1e-12);
    EXPECT_NEAR(stateFidelity(a, b), 0.0, 1e-12);
}

} // namespace
} // namespace qpulse
