/**
 * @file
 * Curve-fitting routines used by the calibration and benchmarking
 * harnesses: the sinusoid fit of the Rabi and CR fringe scans (by
 * variable projection: one linear solve per trial frequency), and the
 * exponential-decay fit (f^K - b) of the randomized-benchmarking
 * analysis of Figure 13, with a small Levenberg-Marquardt engine
 * underneath it.
 */
#ifndef QPULSE_OPT_FITTING_H
#define QPULSE_OPT_FITTING_H

#include <functional>
#include <vector>

namespace qpulse {

/** Model y = f(x; params) with analytic evaluation only. */
using FitModel =
    std::function<double(double x, const std::vector<double> &params)>;

/** Result of a least-squares fit. */
struct FitResult
{
    std::vector<double> params;  ///< Best-fit parameters.
    double residualSumSq = 0.0;  ///< Sum of squared residuals.
    bool converged = false;
};

/**
 * Levenberg-Marquardt least squares with numeric Jacobian.
 *
 * @param model  Model function.
 * @param xs     Sample abscissae.
 * @param ys     Sample ordinates.
 * @param p0     Initial parameter guess.
 */
FitResult levenbergMarquardt(const FitModel &model,
                             const std::vector<double> &xs,
                             const std::vector<double> &ys,
                             std::vector<double> p0, int max_iterations = 200);

/**
 * Least-squares fit of y = offset + amplitude * cos(2 pi freq * x +
 * phase); params = {offset, amplitude, freq, phase}.
 *
 * Used by the Rabi calibration scan (the pi-pulse amplitude is half a
 * period of the fitted oscillation) and the CR flat-top fringe scans.
 * The caller needs no guess. At a fixed frequency the model is linear
 * in (offset, a, b) of offset + a cos(2 pi freq x) + b sin(2 pi freq x),
 * so each trial frequency costs one 3x3 solve whose residual is the
 * profile at that frequency. A grid of 0.05 cycles per scan span up to
 * the sampling's Nyquist frequency (at most 20 n points) finds the
 * profile's best lobe without ever trying an alias above Nyquist;
 * Brent's method between the best point's neighbours (never past
 * Nyquist) refines it.
 *
 * The result has amplitude = hypot(a, b) >= 0, freq in (0, Nyquist],
 * phase = atan2(-b, a) in [-pi, pi], residualSumSq at the returned
 * parameters, and converged = true. Requires >= 4 strictly increasing
 * abscissae and finite samples.
 */
FitResult fitCosine(const std::vector<double> &xs,
                    const std::vector<double> &ys);

/**
 * Fit the randomized-benchmarking decay y = a * f^K + b_fixed, with
 * the offset pinned to a known asymptote (e.g. the maximally-mixed-
 * state survival through the readout), fitting only {a, f}. Section
 * 8.3 fits "f^K - b"; in the slow-decay regime a free b is
 * ill-conditioned (a near-linear curve cannot separate a, f and b),
 * so RB analysis pins it. Returns {a, f, b_fixed}.
 */
FitResult fitExponentialDecayFixedOffset(const std::vector<double> &ks,
                                         const std::vector<double> &ys,
                                         double offset);

/** Mean of a sample. */
double mean(const std::vector<double> &xs);

/** Population standard deviation of a sample. */
double stddev(const std::vector<double> &xs);

} // namespace qpulse

#endif // QPULSE_OPT_FITTING_H
