/**
 * @file
 * Tests for the derivative-free optimisers and curve fitters:
 * Nelder-Mead on standard landscapes, the constrained (COBYLA-style)
 * wrapper, Brent, SPSA, Levenberg-Marquardt and the cosine fit of the
 * calibration scans.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/constants.h"
#include "common/logging.h"
#include "common/rng.h"
#include "opt/fitting.h"
#include "opt/nelder_mead.h"
#include "opt/spsa.h"

namespace qpulse {
namespace {

TEST(NelderMead, QuadraticBowl)
{
    const Objective f = [](const std::vector<double> &x) {
        return (x[0] - 1.0) * (x[0] - 1.0) +
               (x[1] + 2.0) * (x[1] + 2.0);
    };
    const OptResult result = nelderMead(f, {0.0, 0.0});
    EXPECT_NEAR(result.x[0], 1.0, 1e-4);
    EXPECT_NEAR(result.x[1], -2.0, 1e-4);
    EXPECT_LT(result.fun, 1e-7);
}

TEST(NelderMead, Rosenbrock2d)
{
    const Objective f = [](const std::vector<double> &x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    NelderMeadOptions options;
    options.maxIterations = 20000;
    const OptResult result = nelderMead(f, {-1.2, 1.0}, options);
    EXPECT_NEAR(result.x[0], 1.0, 1e-3);
    EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(NelderMead, OneDimensional)
{
    const Objective f = [](const std::vector<double> &x) {
        return std::cos(x[0]);
    };
    const OptResult result = nelderMead(f, {2.5});
    EXPECT_NEAR(std::cos(result.x[0]), -1.0, 1e-8);
}

TEST(NelderMeadMultiStart, EscapesLocalMinimum)
{
    // f has a shallow local min near x=0 and a deep global min near
    // x=4 (well depth 2 beats the 0.16 quadratic cost there).
    const Objective f = [](const std::vector<double> &x) {
        const double t = x[0];
        return 0.01 * t * t - 2.0 * std::exp(-(t - 4.0) * (t - 4.0));
    };
    Rng rng(1);
    const OptResult result = nelderMeadMultiStart(f, {0.0}, 20, 6.0, rng);
    EXPECT_NEAR(result.x[0], 4.0, 0.3);
}

TEST(ConstrainedMinimize, ActiveConstraint)
{
    // Minimise x subject to x >= 2 -> optimum at x = 2.
    const Objective f = [](const std::vector<double> &x) { return x[0]; };
    const std::vector<Constraint> constraints = {
        [](const std::vector<double> &x) { return x[0] - 2.0; }};
    Rng rng(2);
    const OptResult result =
        constrainedMinimize(f, constraints, {5.0}, 4, 6.0, rng);
    EXPECT_NEAR(result.x[0], 2.0, 1e-2);
    EXPECT_GE(result.x[0], 2.0 - 1e-6);
}

TEST(ConstrainedMinimize, InactiveConstraint)
{
    const Objective f = [](const std::vector<double> &x) {
        return x[0] * x[0];
    };
    const std::vector<Constraint> constraints = {
        [](const std::vector<double> &x) { return 5.0 - x[0]; }};
    Rng rng(3);
    const OptResult result =
        constrainedMinimize(f, constraints, {3.0}, 4, 4.0, rng);
    EXPECT_NEAR(result.x[0], 0.0, 1e-2);
}

TEST(Brent, FindsCosineMinimum)
{
    const double x =
        brentMinimize([](double t) { return std::cos(t); }, 2.0, 4.5);
    EXPECT_NEAR(x, kPi, 1e-6);
}

TEST(Brent, QuadraticExact)
{
    const double x = brentMinimize(
        [](double t) { return (t - 0.3) * (t - 0.3); }, -1.0, 1.0);
    EXPECT_NEAR(x, 0.3, 1e-6);
}

TEST(Spsa, NoisyQuadratic)
{
    Rng noise(7);
    const Objective f = [&](const std::vector<double> &x) {
        double value = 0.0;
        for (double xi : x)
            value += (xi - 1.0) * (xi - 1.0);
        return value + noise.gaussian(0.0, 0.01);
    };
    Rng rng(11);
    SpsaOptions options;
    options.iterations = 600;
    const OptResult result = spsa(f, {0.0, 0.0, 0.0}, rng, options);
    for (double xi : result.x)
        EXPECT_NEAR(xi, 1.0, 0.25);
}

TEST(LevenbergMarquardt, FitsLine)
{
    const FitModel line = [](double x, const std::vector<double> &p) {
        return p[0] + p[1] * x;
    };
    std::vector<double> xs, ys;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(i);
        ys.push_back(2.0 + 0.5 * i);
    }
    const FitResult fit = levenbergMarquardt(line, xs, ys, {0.0, 0.0});
    EXPECT_NEAR(fit.params[0], 2.0, 1e-6);
    EXPECT_NEAR(fit.params[1], 0.5, 1e-6);
}

class CosineFitTest
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(CosineFitTest, RecoversFrequencyAndPhase)
{
    const double freq = std::get<0>(GetParam());
    const double phase = std::get<1>(GetParam());
    std::vector<double> xs, ys;
    for (int i = 0; i <= 40; ++i) {
        const double x = 0.01 * i;
        xs.push_back(x);
        ys.push_back(0.5 - 0.5 * std::cos(2 * kPi * freq * x + phase));
    }
    const FitResult fit = fitCosine(xs, ys);
    EXPECT_NEAR(fit.params[2], freq, 0.05 * freq);
    EXPECT_LT(fit.residualSumSq, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CosineFitTest,
    ::testing::Combine(::testing::Values(3.0, 5.3, 9.0),
                       ::testing::Values(0.0, 0.7, -1.1)));

TEST(CosineFit, RejectsAliasedFit)
{
    // A sparse Rabi-like scan must not lock onto a super-Nyquist
    // frequency (regression test for the calibration aliasing bug).
    std::vector<double> xs, ys;
    for (int k = 0; k <= 24; ++k) {
        const double amp = 0.3 * k / 24.0;
        xs.push_back(amp);
        ys.push_back(0.5 - 0.5 * std::cos(2 * kPi * 5.31 * amp));
    }
    const FitResult fit = fitCosine(xs, ys);
    const double nyquist = 0.5 / (xs[1] - xs[0]);
    EXPECT_LE(std::abs(fit.params[2]), nyquist);
    EXPECT_NEAR(std::abs(fit.params[2]), 5.31, 0.1);
}

/**
 * Test-local oracle for fitCosine: the least-squares frequency and
 * residual of a scan. At a fixed frequency the model is linear in
 * (offset, a, b) of offset + a cos(2 pi f x) + b sin(2 pi f x), so the
 * profile (the least residual at f) is one exact 3x3 solve. The
 * oracle scans it on a dense grid up to Nyquist, then golden-sections
 * the best cell to 1e-13 relative, all in long double.
 */
long double
cosineProfile(const std::vector<double> &xs, const std::vector<double> &ys,
              long double f)
{
    const long double two_pi = 2.0L * 3.141592653589793238462643383279L;
    const std::size_t n = xs.size();
    std::vector<long double> cs(n), ss(n);
    long double m[3][4] = {};
    for (std::size_t i = 0; i < n; ++i) {
        cs[i] = std::cos(two_pi * f * xs[i]);
        ss[i] = std::sin(two_pi * f * xs[i]);
        const long double row[3] = {1.0L, cs[i], ss[i]};
        for (int r = 0; r < 3; ++r) {
            for (int c = 0; c < 3; ++c)
                m[r][c] += row[r] * row[c];
            m[r][3] += row[r] * ys[i];
        }
    }
    for (int col = 0; col < 3; ++col) {
        int pivot = col;
        for (int r = col + 1; r < 3; ++r)
            if (std::abs(m[r][col]) > std::abs(m[pivot][col]))
                pivot = r;
        for (int c = 0; c < 4; ++c)
            std::swap(m[col][c], m[pivot][c]);
        for (int r = col + 1; r < 3; ++r) {
            const long double factor = m[r][col] / m[col][col];
            for (int c = col; c < 4; ++c)
                m[r][c] -= factor * m[col][c];
        }
    }
    long double p[3];
    for (int r = 2; r >= 0; --r) {
        long double total = m[r][3];
        for (int c = r + 1; c < 3; ++c)
            total -= m[r][c] * p[c];
        p[r] = total / m[r][r];
    }
    long double rss = 0.0L;
    for (std::size_t i = 0; i < n; ++i) {
        const long double r = ys[i] - p[0] - p[1] * cs[i] - p[2] * ss[i];
        rss += r * r;
    }
    return rss;
}

struct ProfileMinimum
{
    long double frequency;
    long double residualSumSq;
};

ProfileMinimum
cosineOracle(const std::vector<double> &xs, const std::vector<double> &ys)
{
    long double min_spacing = xs.back() - xs.front();
    for (std::size_t i = 1; i < xs.size(); ++i)
        min_spacing = std::min<long double>(min_spacing, xs[i] - xs[i - 1]);
    const long double nyquist = 0.5L / min_spacing;
    const int cells = 4000;
    int best = 1;
    long double best_rss = cosineProfile(xs, ys, nyquist / cells);
    for (int j = 2; j < cells; ++j) {
        const long double rss = cosineProfile(xs, ys, nyquist * j / cells);
        if (rss < best_rss) {
            best = j;
            best_rss = rss;
        }
    }
    const long double ratio = (std::sqrt(5.0L) - 1.0L) / 2.0L;
    long double a = nyquist * (best - 1) / cells;
    long double b = nyquist * (best + 1) / cells;
    long double c1 = b - ratio * (b - a), c2 = a + ratio * (b - a);
    long double f1 = cosineProfile(xs, ys, c1);
    long double f2 = cosineProfile(xs, ys, c2);
    for (int iter = 0; iter < 200 && b - a > 1e-13L * b; ++iter) {
        if (f1 < f2) {
            b = c2;
            c2 = c1;
            f2 = f1;
            c1 = b - ratio * (b - a);
            f1 = cosineProfile(xs, ys, c1);
        } else {
            a = c1;
            c1 = c2;
            f1 = f2;
            c2 = a + ratio * (b - a);
            f2 = cosineProfile(xs, ys, c2);
        }
    }
    const long double f = (a + b) / 2.0L;
    return {f, cosineProfile(xs, ys, f)};
}

void
expectAtProfileMinimum(const std::vector<double> &xs,
                       const std::vector<double> &ys)
{
    const ProfileMinimum oracle = cosineOracle(xs, ys);
    const FitResult fit = fitCosine(xs, ys);
    EXPECT_NEAR(fit.params[2], static_cast<double>(oracle.frequency),
                1e-8 * static_cast<double>(oracle.frequency));
    EXPECT_NEAR(fit.residualSumSq,
                static_cast<double>(oracle.residualSumSq),
                1e-9 * static_cast<double>(oracle.residualSumSq));
}

// The three scans calibrateAll(almadenLineConfig(2)) fits, recorded
// bit for bit: the Rabi amplitude scan of calibrateQubit and the CR
// flat-top fringe scans of calibrateCr before and after its amplitude
// trim. The abscissae are the calibration's own expressions.
const std::vector<double> kRabiScanP1 = {
    0x0p+0, 0x1.5ff4dfe1a3da5p-5, 0x1.50ceacb22637bp-3,
    0x1.5fcfa46ac5266p-2, 0x1.1953e18ba02b9p-1, 0x1.7e562f697d868p-1,
    0x1.cd93239890c33p-1, 0x1.f971bec5742e4p-1, 0x1.fa70e0884ad93p-1,
    0x1.d06ea70060edap-1, 0x1.82aa3f49c2f9dp-1, 0x1.1e80ee88637ap-1,
    0x1.6a3e4c283a84ep-2, 0x1.6231868dde507p-3, 0x1.89476f677ec1dp-5,
    0x1.62f01fd85fa6cp-13, 0x1.32cbff8d7ed4cp-5, 0x1.3a0d9a3a81234p-3,
    0x1.4fdd6c2613311p-2, 0x1.102f4754392c5p-1, 0x1.758edda6ab297p-1,
    0x1.c6e485cef5b39p-1, 0x1.f67bb6576d408p-1, 0x1.fc60a77fef445p-1,
    0x1.d7af9b24c384p-1,
};
const std::vector<double> kFringeScanP1 = {
    0x1.22824b6e9c2b5p-9, 0x1.b3176e54a1d43p-6, 0x1.2b7b9c66063a9p-4,
    0x1.36d344d41fb1fp-3, 0x1.f9fb0a63a4132p-3, 0x1.68cd233c236c6p-2,
    0x1.de384ba7008c1p-2, 0x1.22326c638e246p-1, 0x1.5c9a36a6bbbacp-1,
    0x1.91c69e328bedcp-1, 0x1.b5a5c52dddbf3p-1, 0x1.d4d258f135e99p-1,
    0x1.de49c638a8255p-1, 0x1.d87f2dd9dc079p-1, 0x1.d54bf49c3ed0fp-1,
    0x1.ba9b9d12701eep-1, 0x1.94774aec400eap-1,
};
const std::vector<double> kTrimmedFringeScanP1 = {
    0x1.33153a79c298cp-9, 0x1.d33ee5addc5eep-6, 0x1.40516858678f8p-4,
    0x1.4ab8a93d729d6p-3, 0x1.0c2011de93e1cp-2, 0x1.7d1dde971aec4p-2,
    0x1.f7279ff4fa026p-2, 0x1.30eda301e3294p-1, 0x1.6b6cebe337495p-1,
    0x1.a01373c92d4b5p-1, 0x1.c0dde8a544adap-1, 0x1.de199e7ec0717p-1,
    0x1.e12e31af0a1a9p-1, 0x1.d455d9da7b14bp-1, 0x1.cc9fe31405fbcp-1,
    0x1.a9be902c44b36p-1, 0x1.80759eec2e6f3p-1,
};

std::vector<double>
rabiAmplitudes()
{
    std::vector<double> amps;
    for (int k = 0; k <= 24; ++k)
        amps.push_back(0.3 * static_cast<double>(k) / 24.0);
    return amps;
}

std::vector<double>
fringeFlats()
{
    std::vector<double> flats;
    for (long flat = 0; flat <= 1600; flat += 100)
        flats.push_back(static_cast<double>(flat));
    return flats;
}

TEST(CosineFit, RabiScanLandsOnTheProfileMinimum)
{
    expectAtProfileMinimum(rabiAmplitudes(), kRabiScanP1);
}

TEST(CosineFit, FringeScansLandOnTheProfileMinimum)
{
    // The fringe covers ~0.6 of a period at ~4e-4 cycles per dt.
    expectAtProfileMinimum(fringeFlats(), kFringeScanP1);
    expectAtProfileMinimum(fringeFlats(), kTrimmedFringeScanP1);
}

TEST(CosineFit, NoisyRabiFitsNoWorseThanTheTruth)
{
    // The least-squares fit must leave no more residual than the
    // parameters that generated the curve.
    const double offset = 0.5, amplitude = 0.48, freq = 5.3, phase = 3.0;
    Rng noise(20201);
    std::vector<double> xs = rabiAmplitudes(), ys;
    double true_rss = 0.0;
    for (double x : xs) {
        const double e = noise.gaussian(0.0, 0.02);
        ys.push_back(offset + amplitude * std::cos(2 * kPi * freq * x +
                                                   phase) +
                     e);
        true_rss += e * e;
    }
    const FitResult fit = fitCosine(xs, ys);
    EXPECT_LE(fit.residualSumSq, true_rss);
    EXPECT_NEAR(fit.params[2], freq, 0.05 * freq);
}

TEST(CosineFit, ConstantScanHasNoAmplitude)
{
    const std::vector<double> xs = rabiAmplitudes();
    const std::vector<double> ys(xs.size(), 0.37);
    FitResult fit;
    ASSERT_NO_THROW(fit = fitCosine(xs, ys));
    EXPECT_LE(fit.params[1], 1e-12);
    EXPECT_DOUBLE_EQ(fit.params[0], 0.37);
}

TEST(CosineFit, FindsFrequenciesUpToNyquist)
{
    // Beyond 8 cycles per span and within 5 % of Nyquist: the
    // Levenberg-Marquardt fits reached these by walking away from
    // their start grid, so the profile grid must cover them itself.
    const auto expect_recovered = [](const std::vector<double> &xs,
                                     double freq) {
        std::vector<double> ys;
        for (double x : xs)
            ys.push_back(0.5 + 0.4 * std::cos(2 * kPi * freq * x + 0.3));
        const FitResult fit = fitCosine(xs, ys);
        EXPECT_NEAR(fit.params[2], freq, 1e-9 * freq);
        EXPECT_LT(fit.residualSumSq, 1e-18);
    };
    std::vector<double> unit_steps, unit_span;
    for (int i = 0; i <= 40; ++i)
        unit_steps.push_back(i); // Nyquist 0.5
    for (int i = 0; i < 100; ++i)
        unit_span.push_back(i / 99.0);
    expect_recovered(unit_steps, 0.47);
    expect_recovered(unit_steps, 0.49);
    expect_recovered(unit_span, 10.0);
}

TEST(CosineFit, RejectsNonFiniteSamples)
{
    for (double bad : {std::nan(""), HUGE_VAL}) {
        std::vector<double> xs = rabiAmplitudes(), ys(xs.size(), 0.5);
        ys[5] = bad;
        EXPECT_THROW(fitCosine(xs, ys), FatalError);
    }
}

TEST(Stats, MeanAndStddev)
{
    const std::vector<double> xs = {1, 2, 3, 4};
    EXPECT_NEAR(mean(xs), 2.5, 1e-12);
    EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
}

} // namespace
} // namespace qpulse
