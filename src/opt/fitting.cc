#include "opt/fitting.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/logging.h"
#include "linalg/eigen.h"
#include "opt/spsa.h"

namespace qpulse {

FitResult
levenbergMarquardt(const FitModel &model, const std::vector<double> &xs,
                   const std::vector<double> &ys, std::vector<double> p0,
                   int max_iterations)
{
    qpulseRequire(xs.size() == ys.size(), "fit data size mismatch");
    qpulseRequire(!p0.empty(), "fit requires at least one parameter");

    const std::size_t n_params = p0.size();
    const std::size_t n_points = xs.size();

    auto residual_sum = [&](const std::vector<double> &params) {
        double total = 0.0;
        for (std::size_t i = 0; i < n_points; ++i) {
            const double r = ys[i] - model(xs[i], params);
            total += r * r;
        }
        return total;
    };

    std::vector<double> params = p0;
    double current = residual_sum(params);
    double lambda = 1e-3;

    FitResult result;
    for (int iter = 0; iter < max_iterations; ++iter) {
        // Numeric Jacobian.
        std::vector<std::vector<double>> jacobian(
            n_points, std::vector<double>(n_params, 0.0));
        std::vector<double> residuals(n_points);
        for (std::size_t i = 0; i < n_points; ++i)
            residuals[i] = ys[i] - model(xs[i], params);
        for (std::size_t j = 0; j < n_params; ++j) {
            const double step =
                1e-7 * std::max(1.0, std::abs(params[j]));
            std::vector<double> perturbed = params;
            perturbed[j] += step;
            for (std::size_t i = 0; i < n_points; ++i) {
                const double plus = model(xs[i], perturbed);
                const double base = model(xs[i], params);
                jacobian[i][j] = (plus - base) / step;
            }
        }

        // Normal equations (J^T J + lambda diag) dp = J^T r.
        std::vector<std::vector<double>> jtj(
            n_params, std::vector<double>(n_params, 0.0));
        std::vector<double> jtr(n_params, 0.0);
        for (std::size_t i = 0; i < n_points; ++i) {
            for (std::size_t a = 0; a < n_params; ++a) {
                jtr[a] += jacobian[i][a] * residuals[i];
                for (std::size_t b = 0; b < n_params; ++b)
                    jtj[a][b] += jacobian[i][a] * jacobian[i][b];
            }
        }

        bool improved = false;
        for (int attempt = 0; attempt < 12 && !improved; ++attempt) {
            auto damped = jtj;
            for (std::size_t a = 0; a < n_params; ++a)
                damped[a][a] += lambda * std::max(jtj[a][a], 1e-12);
            std::vector<double> delta;
            try {
                delta = solveLinearReal(damped, jtr);
            } catch (const FatalError &) {
                lambda *= 10.0;
                continue;
            }
            std::vector<double> trial = params;
            for (std::size_t a = 0; a < n_params; ++a)
                trial[a] += delta[a];
            const double trial_cost = residual_sum(trial);
            if (trial_cost < current) {
                params = trial;
                current = trial_cost;
                lambda = std::max(lambda * 0.3, 1e-12);
                improved = true;
            } else {
                lambda *= 10.0;
            }
        }
        if (!improved) {
            result.converged = true;
            break;
        }
        if (current < 1e-18) {
            result.converged = true;
            break;
        }
    }

    result.params = params;
    result.residualSumSq = current;
    return result;
}

namespace {

/** The linear part of the cosine fit at one frequency. */
struct CosineAtFrequency
{
    double offset = 0.0;
    double a = 0.0; ///< Coefficient of cos(2 pi g u).
    double b = 0.0; ///< Coefficient of sin(2 pi g u).
    double residualSumSq = 0.0;
    bool singular = false;
};

/**
 * Least squares of y = offset + a cos(2 pi g u) + b sin(2 pi g u) at a
 * fixed frequency g (cycles per unit of u): the model is linear in
 * (offset, a, b). The 3x3 normal equations are solved by eliminating
 * the offset (centring the columns), then Cramer's rule on the 2x2
 * rest. The trig columns are bounded by 1, so a determinant below
 * 1e-12 n^2 means they are numerically dependent (e.g. all samples
 * on the zeros of the sine at the Nyquist frequency).
 */
CosineAtFrequency
solveAtFrequency(const std::vector<double> &us,
                 const std::vector<double> &ys, double y_mean, double g)
{
    const std::size_t n = us.size();
    std::vector<double> cs(n), ss(n);
    double c_mean = 0.0, s_mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double theta = 2.0 * kPi * g * us[i];
        cs[i] = std::cos(theta);
        ss[i] = std::sin(theta);
        c_mean += cs[i];
        s_mean += ss[i];
    }
    c_mean /= static_cast<double>(n);
    s_mean /= static_cast<double>(n);
    double scc = 0.0, sss = 0.0, scs = 0.0, scy = 0.0, ssy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cs[i] -= c_mean;
        ss[i] -= s_mean;
        const double dy = ys[i] - y_mean;
        scc += cs[i] * cs[i];
        sss += ss[i] * ss[i];
        scs += cs[i] * ss[i];
        scy += cs[i] * dy;
        ssy += ss[i] * dy;
    }

    CosineAtFrequency fit;
    const double det = scc * sss - scs * scs;
    if (!(det > 1e-12 * static_cast<double>(n * n))) {
        fit.singular = true;
        return fit;
    }
    fit.a = (scy * sss - ssy * scs) / det;
    fit.b = (ssy * scc - scy * scs) / det;
    fit.offset = y_mean - fit.a * c_mean - fit.b * s_mean;
    for (std::size_t i = 0; i < n; ++i) {
        const double r = ys[i] - y_mean - fit.a * cs[i] - fit.b * ss[i];
        fit.residualSumSq += r * r;
    }
    return fit;
}

} // namespace

FitResult
fitCosine(const std::vector<double> &xs, const std::vector<double> &ys)
{
    qpulseRequire(xs.size() == ys.size() && xs.size() >= 4,
                  "fitCosine requires >= 4 points");
    const double x_span = xs.back() - xs.front();
    qpulseRequire(x_span > 0.0, "fitCosine requires increasing abscissae");

    // Frequencies above the Nyquist limit of the sampling alias onto
    // low frequencies and must be rejected or the fit can lock onto a
    // spurious high-frequency solution.
    double min_spacing = x_span;
    for (std::size_t i = 1; i < xs.size(); ++i)
        min_spacing = std::min(min_spacing, xs[i] - xs[i - 1]);
    qpulseRequire(min_spacing > 0.0,
                  "fitCosine requires strictly increasing abscissae");
    for (double y : ys)
        qpulseRequire(std::isfinite(y), "fitCosine requires finite samples");
    const double nyquist = 0.5 / min_spacing;

    // Work in units of the span: u = x / span, g = f * span. Brent's
    // tolerance has an absolute floor of 1e-12, which a raw frequency
    // of a few 1e-4 per dt would sit on.
    std::vector<double> us(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        us[i] = xs[i] / x_span;
    const double nyquist_u = nyquist * x_span;
    const double y_mean = mean(ys);
    double constant_rss = 0.0;
    for (double y : ys)
        constant_rss += (y - y_mean) * (y - y_mean);
    // The profile: the least residual at frequency g. Where the solve
    // is singular it reads the constant fit's residual, which bounds
    // the profile from above everywhere.
    const auto profile = [&](double g) {
        const CosineAtFrequency fit = solveAtFrequency(us, ys, y_mean, g);
        return fit.singular ? constant_rss : fit.residualSumSq;
    };

    // Coarse frequency grid below Nyquist, one linear solve per point.
    // It resolves the profile's main lobe (about one cycle per span
    // wide) twenty times over and never reaches an alias above
    // Nyquist. Uniform sampling's Nyquist is (n - 1) / 2 cycles per
    // span, so the 20 n cap on the points only bounds the cost of an
    // irregular scan with one tiny spacing.
    std::vector<double> grid;
    for (std::size_t k = 1; 0.05 * k < nyquist_u && k <= 20 * xs.size();
         ++k)
        grid.push_back(0.05 * k);
    std::size_t best = grid.size();
    CosineAtFrequency fit;
    for (std::size_t j = 0; j < grid.size(); ++j) {
        const CosineAtFrequency at_grid =
            solveAtFrequency(us, ys, y_mean, grid[j]);
        if (!at_grid.singular &&
            (best == grid.size() ||
             at_grid.residualSumSq < fit.residualSumSq)) {
            best = j;
            fit = at_grid;
        }
    }
    qpulseRequire(best < grid.size(),
                  "fitCosine failed to find a sub-Nyquist fit");

    // The neighbours of the best grid point bracket the lobe's
    // minimum; refine it, keeping the grid point if Brent ends worse.
    const double lo = best > 0 ? grid[best - 1] : 0.0;
    const double hi = best + 1 < grid.size()
                          ? grid[best + 1]
                          : std::min(grid[best] + 0.05, nyquist_u);
    double g = grid[best];
    const double refined = brentMinimize(profile, lo, hi, 1e-10);
    const CosineAtFrequency at_refined =
        solveAtFrequency(us, ys, y_mean, refined);
    if (!at_refined.singular &&
        at_refined.residualSumSq < fit.residualSumSq) {
        g = refined;
        fit = at_refined;
    }

    // (a, b) -> amplitude and phase: a cos t + b sin t = A cos(t + phi)
    // with A = hypot(a, b), phi = atan2(-b, a) in [-pi, pi].
    FitResult result;
    result.params = {fit.offset, std::hypot(fit.a, fit.b),
                     std::min(g / x_span, nyquist),
                     std::atan2(-fit.b, fit.a)};
    result.residualSumSq = fit.residualSumSq;
    result.converged = true;
    return result;
}

FitResult
fitExponentialDecayFixedOffset(const std::vector<double> &ks,
                               const std::vector<double> &ys,
                               double offset)
{
    qpulseRequire(ks.size() == ys.size() && ks.size() >= 2,
                  "fitExponentialDecayFixedOffset requires >= 2 points");

    const FitModel model = [offset](double k,
                                    const std::vector<double> &p) {
        // p = {a, f}: y = a * f^k + offset.
        return p[0] * std::pow(std::max(p[1], 1e-12), k) + offset;
    };

    const double a0 = std::max(ys.front() - offset, 1e-3);
    double f0 = 0.999;
    if (ys.front() - offset > 1e-9 && ys.back() - offset > 1e-9) {
        const double ratio = (ys.back() - offset) / (ys.front() - offset);
        const double dk = ks.back() - ks.front();
        if (ratio > 0.0 && dk > 0.0)
            f0 = std::min(0.999999, std::pow(ratio, 1.0 / dk));
    }

    FitResult fit = levenbergMarquardt(model, ks, ys, {a0, f0}, 400);
    fit.params.push_back(offset);
    fit.converged = true;
    return fit;
}

double
mean(const std::vector<double> &xs)
{
    qpulseRequire(!xs.empty(), "mean of empty sample");
    double total = 0.0;
    for (double x : xs)
        total += x;
    return total / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    const double mu = mean(xs);
    double total = 0.0;
    for (double x : xs)
        total += (x - mu) * (x - mu);
    return std::sqrt(total / static_cast<double>(xs.size()));
}

} // namespace qpulse
