/**
 * @file
 * Eigendecomposition and matrix functions for small complex matrices.
 *
 * The workhorse is a cyclic Jacobi eigensolver for complex Hermitian
 * matrices, which is robust and plenty fast for the <= 64-dimensional
 * matrices that appear in qpulse. Matrix exponentials of Hermitian
 * generators (Hamiltonians) go through the eigendecomposition; general
 * matrix exponentials use scaling-and-squaring with a Taylor kernel.
 */
#ifndef QPULSE_LINALG_EIGEN_H
#define QPULSE_LINALG_EIGEN_H

#include <limits>
#include <vector>

#include "linalg/matrix.h"

namespace qpulse {

/**
 * Convergence tolerance pinning a Jacobi solve at the round-off floor
 * (a few eps above the best the iteration can reach, so it still
 * terminates in finite sweeps). Callers that compose many solve
 * results — the pulse simulator multiplies ~10^3 per-sample
 * propagators per schedule — should converge each solve to this floor
 * rather than the default tolerance: per-solve slack accumulates
 * linearly across the product, so a 1e-13 residual per step is a
 * ~1e-10 error budget over a schedule while the floor keeps the total
 * near 1e-12. Costs about one extra sweep versus the default (Jacobi
 * converges quadratically near the solution).
 */
inline constexpr double kEigFloorTol =
    8.0 * std::numeric_limits<double>::epsilon();

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
 * implementation note). Scratch comes from slots 0-3 of the calling
 * thread's tlsWorkspace(); each solve bumps the sim.eig.calls /
 * sim.eig.sweeps counters (docs/OBSERVABILITY.md).
 *
 * @param a   Hermitian matrix (checked to tolerance).
 * @param tol Off-diagonal convergence threshold relative to the norm.
 */
EigenSystem eigHermitian(const Matrix &a, double tol = 1e-13);

/**
 * exp(-i * H * t) for Hermitian H, via eigendecomposition.
 *
 * This is the propagator of a time-independent Hamiltonian; it is
 * exactly unitary up to roundoff. Callers composing long propagator
 * products pass kEigFloorTol so the per-factor residual cannot
 * accumulate (see kEigFloorTol).
 */
Matrix expMinusIHt(const Matrix &h, double t, double tol = 1e-13);

/** exp(i * scale * H) for Hermitian H (scale real). */
Matrix expIH(const Matrix &h, double scale);

/**
 * General matrix exponential via scaling-and-squaring Taylor series.
 *
 * The Taylor loop stops early once the current term is negligible
 * relative to the accumulated sum: with the 1-norm of the scaled
 * matrix at most 1/2, the neglected tail after term T_k is bounded by
 * ||T_k|| * sum_{j>=1} 2^-j = ||T_k||, so truncating when
 * ||T_k|| <= eps * ||result|| keeps the relative error of the scaled
 * exponential at ~eps (pinned against the Hermitian eigensolver path
 * in tests/test_linalg.cc).
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
