#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/simd.h"
#include "linalg/workspace.h"
#include "telemetry/metrics.h"

namespace qpulse {

namespace {

/**
 * One complex Jacobi rotation zeroing the (p, q) off-diagonal entry of
 * the Hermitian matrix a, accumulating the rotation into v. Entries
 * with |a(p,q)|^2 <= thr2 are skipped (threshold Jacobi): rotating a
 * pivot already inside the convergence budget costs three O(n) update
 * loops and buys nothing; thr2 = 0 degenerates to the classical
 * skip-exact-zeros behaviour.
 */
void
jacobiRotate(Matrix &a, Matrix &v, std::size_t p, std::size_t q,
             double thr2)
{
    const Complex apq = a(p, q);
    if (std::norm(apq) <= thr2)
        return;
    const double abs_apq = std::abs(apq);

    const double app = a(p, p).real();
    const double aqq = a(q, q).real();

    // Hermitian 2x2 block [[app, apq], [conj(apq), aqq]] diagonalized by
    // a rotation with complex phase.
    const double tau = (aqq - app) / (2.0 * abs_apq);
    const double t = (tau >= 0.0)
        ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
        : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
    const double c = 1.0 / std::sqrt(1.0 + t * t);
    const double s = t * c;
    const Complex phase = apq / abs_apq;
    const double pr = phase.real();
    const double pi = phase.imag();
    const double spr = s * pr;
    const double spi = s * pi;

    const std::size_t n = a.rows();
    Complex *A = a.data().data();
    Complex *V = v.data().data();

    // Update rows/cols p and q of a: a <- J^dag a J with
    // J(p,p)=c, J(q,q)=c, J(p,q)=s*phase, J(q,p)=-s*conj(phase).
    // Spelled out in real arithmetic on raw pointers: this loop runs
    // tens of thousands of times per evolve call, and the expanded
    // form dodges the complex-multiply library fallback and index
    // re-computation the compiler cannot hoist on its own.
    Complex *cp = A + p;
    Complex *cq = A + q;
    for (std::size_t k = 0; k < n; ++k, cp += n, cq += n) {
        const double xr = cp->real(), xi = cp->imag();
        const double yr = cq->real(), yi = cq->imag();
        // a(k,p) = c * akp - s * conj(phase) * akq
        *cp = Complex{c * xr - (spr * yr + spi * yi),
                      c * xi - (spr * yi - spi * yr)};
        // a(k,q) = s * phase * akp + c * akq
        *cq = Complex{(spr * xr - spi * xi) + c * yr,
                      (spr * xi + spi * xr) + c * yi};
    }
    Complex *rp = A + p * n;
    Complex *rq = A + q * n;
    for (std::size_t k = 0; k < n; ++k) {
        const double xr = rp[k].real(), xi = rp[k].imag();
        const double yr = rq[k].real(), yi = rq[k].imag();
        // a(p,k) = c * apk - s * phase * aqk
        rp[k] = Complex{c * xr - (spr * yr - spi * yi),
                        c * xi - (spr * yi + spi * yr)};
        // a(q,k) = s * conj(phase) * apk + c * aqk
        rq[k] = Complex{(spr * xr + spi * xi) + c * yr,
                        (spr * xi - spi * xr) + c * yi};
    }
    Complex *vp = V + p;
    Complex *vq = V + q;
    for (std::size_t k = 0; k < n; ++k, vp += n, vq += n) {
        const double xr = vp->real(), xi = vp->imag();
        const double yr = vq->real(), yi = vq->imag();
        // v(k,p) = c * vkp - s * conj(phase) * vkq
        *vp = Complex{c * xr - (spr * yr + spi * yi),
                      c * xi - (spr * yi - spi * yr)};
        // v(k,q) = s * phase * vkp + c * vkq
        *vq = Complex{(spr * xr - spi * xi) + c * yr,
                      (spr * xi + spi * xr) + c * yi};
    }
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * AVX2-mode variant of jacobiRotate operating entirely on contiguous
 * memory: the rotation touches only rows p and q of `a` (one fused
 * row-pair kernel), the 2x2 pivot block is set from the closed-form
 * Jacobi update (app -+ t|apq|, zero off-diagonal), and columns p and q
 * are restored by Hermitian mirroring — conjugate copies, no flops.
 * The eigenvector accumulator is kept TRANSPOSED (rows = eigenvectors)
 * so its update is the same contiguous kernel with spi negated.
 * Compared to the scalar path this does two O(n) arithmetic loops
 * instead of three, all unit-stride, and the mirror enforces exact
 * Hermitian symmetry every rotation.
 */
void
jacobiRotateRows(Matrix &a, Matrix &vt, std::size_t p, std::size_t q,
                 double thr2)
{
    const Complex apq = a(p, q);
    if (std::norm(apq) <= thr2)
        return;
    const double abs_apq = std::abs(apq);

    const double app = a(p, p).real();
    const double aqq = a(q, q).real();
    const double tau = (aqq - app) / (2.0 * abs_apq);
    const double t = (tau >= 0.0)
        ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
        : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
    const double c = 1.0 / std::sqrt(1.0 + t * t);
    const double s = t * c;
    const Complex phase = apq / abs_apq;
    const double spr = s * phase.real();
    const double spi = s * phase.imag();

    const std::size_t n = a.rows();
    Complex *A = a.data().data();
    kernels::rotateRowPairAvx2(A + p * n, A + q * n, n, c, spr, spi);
    // Closed-form pivot block: the rotation zeroes (p, q) exactly and
    // moves t|apq| between the diagonal entries.
    const double shift = t * abs_apq;
    A[p * n + p] = Complex{app - shift, 0.0};
    A[q * n + q] = Complex{aqq + shift, 0.0};
    A[p * n + q] = Complex{0.0, 0.0};
    A[q * n + p] = Complex{0.0, 0.0};
    const Complex *prow = A + p * n;
    const Complex *qrow = A + q * n;
    for (std::size_t k = 0; k < n; ++k) {
        A[k * n + p] = std::conj(prow[k]);
        A[k * n + q] = std::conj(qrow[k]);
    }
    Complex *V = vt.data().data();
    kernels::rotateRowPairAvx2(V + p * n, V + q * n, n, c, spr, -spi);
}
#endif

double
offDiagonalNorm(const Matrix &a)
{
    double total = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (i != j)
                total += std::norm(a(i, j));
    return std::sqrt(total);
}

/**
 * Restore exact Hermitian symmetry after a similarity transform whose
 * factors are unitary only up to roundoff (the refinement residual
 * V^dagger a V). Averages mirrored entries and drops the O(1e-16)
 * imaginary part the diagonal may have picked up.
 */
void
hermitize(Matrix &a)
{
    const std::size_t n = a.rows();
    for (std::size_t r = 0; r < n; ++r) {
        a(r, r) = Complex{a(r, r).real(), 0.0};
        for (std::size_t c = r + 1; c < n; ++c) {
            const Complex avg =
                (a(r, c) + std::conj(a(c, r))) * 0.5;
            a(r, c) = avg;
            a(c, r) = std::conj(avg);
        }
    }
}

/** Work counters for one Jacobi solve (thread-count invariant). */
void
countEig(int sweeps)
{
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter("sim.eig.calls");
    static telemetry::Counter &c_sweeps =
        telemetry::MetricsRegistry::global().counter("sim.eig.sweeps");
    c_calls.increment();
    c_sweeps.add(static_cast<std::uint64_t>(sweeps));
}

} // namespace

EigenSystem
eigHermitian(const Matrix &input, double tol)
{
    qpulseRequire(input.rows() == input.cols(),
                  "eigHermitian requires a square matrix");
    qpulseRequire(input.isHermitian(1e-8),
                  "eigHermitian requires a Hermitian matrix");
    const std::size_t n = input.rows();
    Workspace &ws = tlsWorkspace();
    EigenSystem result;
    std::vector<double> &values = result.values;
    Matrix &vectors = result.vectors;

    // In AVX2 dispatch mode the sweeps run the contiguous row kernel
    // (jacobiRotateRows), which keeps the eigenvector accumulator
    // transposed; scalar mode keeps the original column-update loops
    // bit-for-bit. The mode is process-wide, so results stay
    // deterministic for a given dispatch configuration.
#if defined(__x86_64__) || defined(__i386__)
    const bool row_mode =
        kernels::activeSimd() == kernels::SimdMode::Avx2;
#else
    const bool row_mode = false;
#endif
    Matrix &vt = ws.matrix(3, n, n);

    Matrix &a = ws.matrix(0, n, n);
    a = input;
    if (row_mode) {
        vt.resize(n, n);
        vt.setIdentity();
    } else {
        vectors.resize(n, n);
        vectors.setIdentity();
    }

    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    // Rotation threshold, pinned at the round-off floor (not the
    // caller tolerance): a looser threshold would leave O(tol)
    // pivot residuals in every propagator, which the cached path's
    // run collapse then amplifies by the run length. At the floor the
    // skip is harmless — pivots below 8 eps scale / n keep the
    // off-diagonal norm under sqrt(n(n-1)) / n < 1 of the floor
    // target, so the norm check above each sweep stays the sole
    // authority.
    const double thr = 8.0 * std::numeric_limits<double>::epsilon() *
                       scale / static_cast<double>(n);
    const double thr2 = thr * thr;
    const int max_sweeps = 100;
    int sweeps = 0;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (offDiagonalNorm(a) <= tol * scale)
            break;
        ++sweeps;
#if defined(__x86_64__) || defined(__i386__)
        if (row_mode) {
            for (std::size_t p = 0; p + 1 < n; ++p)
                for (std::size_t q = p + 1; q < n; ++q)
                    jacobiRotateRows(a, vt, p, q, thr2);
            continue;
        }
#endif
        for (std::size_t p = 0; p + 1 < n; ++p)
            for (std::size_t q = p + 1; q < n; ++q)
                jacobiRotate(a, vectors, p, q, thr2);
    }
    countEig(sweeps);
    if (row_mode) {
        vectors.resize(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                vectors(r, c) = vt(c, r);
    }

    // Post-iteration refinement against the PRISTINE input. The
    // iterated matrix (and the accumulated eigenvectors) drift from
    // the true similarity transform by the rotation round-off
    // (~rotations * eps * ||a||), and that drift depends on the
    // iteration history: the scalar column loops and the AVX2 row
    // kernel take different rotation sequences and disagree by ~1e-14
    // on the same matrix, which composes coherently when a caller
    // multiplies propagators of a repeated Hamiltonian — the pulse
    // simulator's flat-tops do exactly that, hundreds of times in a
    // row. Both drifts are removed with one residual computation
    // E = V^dag A V from the original input:
    //  - eigenvalues re-read as E's diagonal (Rayleigh quotients,
    //    stationary: insensitive to eigenvector error to 2nd order);
    //  - eigenvectors corrected to first order, V <- V (I + S) with
    //    S_pq = E_pq gap / (gap^2 + mu^2), gap = lambda_q - lambda_p,
    //    which cancels the history-dependent part of the basis error.
    //    The Tikhonov floor mu regularizes near-degenerate pairs,
    //    where the bare 1/gap would amplify the E_pq noise into a
    //    non-unitary S; the damping is harmless there because for any
    //    function f(A) = V f(diag) V^dag the uncorrected error between
    //    levels p, q is suppressed by f(lambda_p) - f(lambda_q) -> 0.
    //    Smooth damping (rather than a cutoff) keeps the correction a
    //    continuous function of the input, so scalar and SIMD solves
    //    of the same matrix cannot land on opposite sides of a branch.
    // Cost: three gemms and an n^2 pass per solve.
    Matrix &av = ws.matrix(1, n, n);
    Matrix &e = ws.matrix(0, n, n); // Reuses the iteration slot.
    gemmInto(av, input, vectors);
    gemmAdjAInto(e, vectors, av);
    // The gemm rounding asymmetry in E (~n eps ||A||) would otherwise
    // leak a Hermitian component into S — a non-unitary stretch of V
    // that compounds multiplicatively when propagators are composed.
    // Hermitizing E keeps S exactly anti-Hermitian.
    hermitize(e);
    values.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        values[i] = e(i, i).real();
    const double mu = 1e-5 * scale;
    const double mu2 = mu * mu;
    for (std::size_t p = 0; p < n; ++p) {
        e(p, p) = Complex{1.0, 0.0};
        for (std::size_t q = 0; q < n; ++q) {
            if (p == q)
                continue;
            const double gap = values[q] - values[p];
            e(p, q) *= gap / (gap * gap + mu2);
        }
    }
    Matrix &vref = ws.matrix(2, n, n);
    gemmInto(vref, vectors, e);
    // One Newton polar step re-unitarizes the corrected basis,
    // vectors = vref (3I - vref^dag vref) / 2: the correction and its
    // own product rounding leave ~n eps of non-unitarity, which the
    // composition argument above cannot tolerate either.
    gemmAdjAInto(av, vref, vref);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) {
            const Complex g = av(r, c) * Complex{-0.5, 0.0};
            av(r, c) = (r == c) ? g + Complex{1.5, 0.0} : g;
        }
    vectors.resize(n, n);
    gemmInto(vectors, vref, av);

    // Sort eigenvalues (and matching eigenvector columns) ascending.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                  return values[x] < values[y];
              });
    std::vector<double> sorted_values(n);
    Matrix sorted_vectors(n, n);
    for (std::size_t c = 0; c < n; ++c) {
        sorted_values[c] = values[order[c]];
        for (std::size_t r = 0; r < n; ++r)
            sorted_vectors(r, c) = vectors(r, order[c]);
    }
    values = std::move(sorted_values);
    vectors = std::move(sorted_vectors);
    return result;
}

Matrix
expMinusIHt(const Matrix &h, double t, double tol)
{
    const EigenSystem es = eigHermitian(h, tol);
    const std::size_t n = h.rows();
    std::vector<Complex> phases(n);
    for (std::size_t i = 0; i < n; ++i)
        phases[i] = std::exp(Complex{0.0, -es.values[i] * t});
    return es.vectors * Matrix::diagonal(phases) * es.vectors.adjoint();
}

Matrix
expIH(const Matrix &h, double scale)
{
    return expMinusIHt(h, -scale);
}

Matrix
expm(const Matrix &a)
{
    qpulseRequire(a.rows() == a.cols(), "expm requires a square matrix");

    // Scale the matrix down until its norm is small, exponentiate with a
    // Taylor series, then square back up.
    double norm = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double row_sum = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j)
            row_sum += std::abs(a(i, j));
        norm = std::max(norm, row_sum);
    }

    int squarings = 0;
    double scale = 1.0;
    while (norm * scale > 0.5) {
        scale *= 0.5;
        ++squarings;
    }

    const Matrix scaled = a * Complex{scale, 0.0};
    Matrix result = Matrix::identity(a.rows());
    Matrix term = Matrix::identity(a.rows());
    for (int k = 1; k <= 20; ++k) {
        term = term * scaled * Complex{1.0 / k, 0.0};
        result += term;
        // Relative early exit. ||scaled||_1 <= 1/2, so the neglected
        // tail after this term is bounded by
        //   sum_{j>=1} ||term|| * (1/2)^j = ||term||,
        // giving a relative truncation error of ~1e-16 on the scaled
        // exponential (see eigen.h for the documented bound).
        if (term.frobeniusNorm() <= 1e-16 * result.frobeniusNorm())
            break;
    }
    for (int s = 0; s < squarings; ++s)
        result = result * result;
    return result;
}

std::vector<double>
solveLinearReal(std::vector<std::vector<double>> a, std::vector<double> b)
{
    const std::size_t n = b.size();
    qpulseRequire(a.size() == n, "solveLinearReal shape mismatch");
    for (const auto &row : a)
        qpulseRequire(row.size() == n, "solveLinearReal ragged matrix");

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::abs(a[r][col]) > std::abs(a[pivot][col]))
                pivot = r;
        qpulseRequire(std::abs(a[pivot][col]) > 1e-300,
                      "solveLinearReal: singular matrix");
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);

        const double inv = 1.0 / a[col][col];
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a[r][col] * inv;
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                a[r][c] -= factor * a[col][c];
            b[r] -= factor * b[col];
        }
    }

    std::vector<double> x(n, 0.0);
    for (std::size_t ri = n; ri-- > 0;) {
        double total = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c)
            total -= a[ri][c] * x[c];
        x[ri] = total / a[ri][ri];
    }
    return x;
}

} // namespace qpulse
