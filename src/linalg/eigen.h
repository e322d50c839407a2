/**
 * @file
 * Eigendecomposition and matrix functions for small complex matrices.
 *
 * Matrix exponentials, including every per-sample propagator
 * exp(-i H dt) the pulse simulator derives, are one kernel: a
 * trace-shifted Taylor polynomial evaluated in Paterson-Stockmeyer
 * form, its degree chosen from the 1-norm, with scaling and squaring
 * only for norms past the top degree. The cyclic Jacobi eigensolver
 * for complex Hermitian matrices serves spectra (ground-state
 * energies) and is the tests' oracle for the exponential.
 */
#ifndef QPULSE_LINALG_EIGEN_H
#define QPULSE_LINALG_EIGEN_H

#include <vector>

#include "linalg/matrix.h"

namespace qpulse {

/** Result of a Hermitian eigendecomposition: A = V diag(values) V^dag. */
struct EigenSystem
{
    /** Real eigenvalues in ascending order. */
    std::vector<double> values;
    /** Unitary matrix whose columns are the matching eigenvectors. */
    Matrix vectors;
};

/**
 * Eigendecomposition of a complex Hermitian matrix via cyclic Jacobi,
 * refined against the input after the sweeps converge (see the
 * implementation note). Scratch comes from slots 0-2 of the calling
 * thread's tlsWorkspace(); each solve bumps the sim.eig.calls /
 * sim.eig.sweeps counters (docs/OBSERVABILITY.md).
 *
 * @param a   Hermitian matrix (checked to tolerance).
 * @param tol Off-diagonal convergence threshold relative to the norm.
 */
EigenSystem eigHermitian(const Matrix &a, double tol = 1e-13);

/**
 * exp(-i * H * t) for Hermitian H: e^{-i mu t} expm(-i t (H - mu I))
 * with mu = tr(H) / n. Unitary to round-off (a few eps for the
 * propagators the simulator derives; pinned against an eigensolver
 * oracle in tests/test_linalg.cc).
 */
Matrix expMinusIHt(const Matrix &h, double t);

/** exp(i * scale * H) for Hermitian H (scale real). */
Matrix expIH(const Matrix &h, double scale);

/**
 * General matrix exponential. The trace shift mu = tr(a) / n leaves
 * the scalar e^mu; B = a - mu I then goes through a Taylor polynomial
 * of the lowest degree m in {2, 4, 6, 9, 12, 16} whose backward-error
 * bound theta_m (relative 2^-53) covers ||B||_1, evaluated in
 * Paterson-Stockmeyer form: at most 6 gemms at m = 16. A norm past
 * theta_16 ~ 0.78 is halved s times to fit and the result squared s
 * times. Scratch comes from slots 0-5 of the calling thread's
 * tlsWorkspace(); each call bumps the sim.expm.calls and
 * sim.expm.squarings counters (docs/OBSERVABILITY.md).
 */
Matrix expm(const Matrix &a);

/**
 * Solve the linear system a * x = b with partial-pivoting Gaussian
 * elimination. Used by the Levenberg-Marquardt fitter and measurement
 * error mitigation.
 */
std::vector<double> solveLinearReal(std::vector<std::vector<double>> a,
                                    std::vector<double> b);

} // namespace qpulse

#endif // QPULSE_LINALG_EIGEN_H
