#include "linalg/eigen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>

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
    // Spelled out in real arithmetic on raw pointers: the expanded
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

    Matrix &a = ws.matrix(0, n, n);
    a = input;
    vectors.resize(n, n);
    vectors.setIdentity();

    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    // Rotation threshold, pinned at the round-off floor (not the
    // caller tolerance): pivots below 8 eps scale / n keep the
    // off-diagonal norm under sqrt(n(n-1)) / n < 1 of that floor, so
    // skipping them is harmless and the norm check above each sweep
    // stays the sole authority.
    const double thr = 8.0 * std::numeric_limits<double>::epsilon() *
                       scale / static_cast<double>(n);
    const double thr2 = thr * thr;
    const int max_sweeps = 100;
    int sweeps = 0;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (offDiagonalNorm(a) <= tol * scale)
            break;
        ++sweeps;
        for (std::size_t p = 0; p + 1 < n; ++p)
            for (std::size_t q = p + 1; q < n; ++q)
                jacobiRotate(a, vectors, p, q, thr2);
    }
    countEig(sweeps);

    // Post-iteration refinement against the PRISTINE input. The
    // iterated matrix (and the accumulated eigenvectors) drift from
    // the true similarity transform by the rotation round-off
    // (~rotations * eps * ||a||), and that drift depends on the
    // iteration history. One residual computation E = V^dag A V from
    // the original input removes it, leaving eigenpairs at round-off
    // from the input (tests/test_linalg.cc builds its exp(-iHt)
    // oracle from them):
    //  - eigenvalues re-read as E's diagonal (Rayleigh quotients,
    //    stationary: insensitive to eigenvector error to 2nd order);
    //  - eigenvectors corrected to first order, V <- V (I + S) with
    //    S_pq = E_pq gap / (gap^2 + mu^2), gap = lambda_q - lambda_p.
    //    The Tikhonov floor mu regularizes near-degenerate pairs,
    //    where the bare 1/gap would amplify the E_pq noise into a
    //    non-unitary S; the damping is harmless there because for any
    //    function f(A) = V f(diag) V^dag the uncorrected error between
    //    levels p, q is suppressed by f(lambda_p) - f(lambda_q) -> 0.
    // Cost: three gemms and an n^2 pass per solve.
    Matrix &av = ws.matrix(1, n, n);
    Matrix &e = ws.matrix(0, n, n); // Reuses the iteration slot.
    gemmInto(av, input, vectors);
    gemmAdjAInto(e, vectors, av);
    // The gemm rounding asymmetry in E (~n eps ||A||) would otherwise
    // leak a Hermitian component into S, a non-unitary stretch of V.
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
    // own product rounding leave ~n eps of non-unitarity.
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

namespace {

/**
 * One rung of the Taylor degree ladder. A degree m = s * r costs
 * (s - 1) + (r - 1) gemms in Paterson-Stockmeyer form, and theta is
 * the largest ||A||_1 at which the degree-m Taylor polynomial of
 * exp(A) has relative backward error at most 2^-53: the bound of
 * Al-Mohy & Higham on the power series of log(e^{-A} T_m(A)),
 * evaluated for these degrees.
 */
struct TaylorRung
{
    int degree;
    int blockSize;
    double theta;
};

constexpr TaylorRung kTaylorLadder[] = {
    {2, 2, 2.580957e-8},  {4, 2, 3.397169e-4},  {6, 3, 9.065656e-3},
    {9, 3, 8.957760e-2},  {12, 4, 2.996159e-1}, {16, 4, 7.802874e-1},
};
constexpr int kMaxBlockSize = 4;

/** c_k = 1 / k! for every degree on the ladder. */
constexpr auto kInvFactorial = [] {
    std::array<double, 17> c{};
    c[0] = 1.0;
    for (std::size_t k = 1; k < c.size(); ++k)
        c[k] = c[k - 1] / static_cast<double>(k);
    return c;
}();

/** Work counters for one exponential (thread-count invariant). */
void
countExpm(int squarings)
{
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter("sim.expm.calls");
    static telemetry::Counter &c_squarings =
        telemetry::MetricsRegistry::global().counter(
            "sim.expm.squarings");
    c_calls.increment();
    c_squarings.add(static_cast<std::uint64_t>(squarings));
}

/**
 * exp(scale * a). The trace shift mu = tr(a) / n comes out as the
 * scalar e^{scale mu}, so the polynomial sees B = scale (a - mu I),
 * whose 1-norm picks the lowest rung with ||B||_1 <= theta. Past the
 * top rung, B is halved until it fits and the result squared back.
 * Scratch: slots 0-5 of the calling thread's tlsWorkspace().
 */
Matrix
expScaled(const Matrix &a, Complex scale)
{
    qpulseRequire(a.rows() == a.cols(), "expm requires a square matrix");
    const std::size_t n = a.rows();
    Workspace &ws = tlsWorkspace();
    Complex mu{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i)
        mu += a(i, i);
    mu /= static_cast<double>(n);
    Matrix &b = ws.matrix(0, n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b(r, c) = scale * (r == c ? a(r, c) - mu : a(r, c));
    // |z| as sqrt(norm(z)): std::abs's overflow-safe hypot is the
    // slower of the two, and these entries are far from overflow.
    double norm1 = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        double column = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            column += std::sqrt(std::norm(b(r, c)));
        norm1 = std::max(norm1, column);
    }
    const TaylorRung *rung = std::end(kTaylorLadder) - 1;
    for (const TaylorRung &candidate : kTaylorLadder)
        if (norm1 <= candidate.theta) {
            rung = &candidate;
            break;
        }
    int squarings = 0;
    // A non-finite norm skips the scaling and propagates to the result.
    if (norm1 > rung->theta && std::isfinite(norm1)) {
        squarings =
            static_cast<int>(std::ceil(std::log2(norm1 / rung->theta)));
        const double down = std::ldexp(1.0, -squarings);
        for (Complex &z : b.data())
            z *= down;
    }
    countExpm(squarings);

    // Powers B^1 .. B^s.
    const int s = rung->blockSize;
    const int blocks = rung->degree / s;
    Matrix *power[kMaxBlockSize + 1] = {nullptr, &b};
    for (int j = 2; j <= s; ++j) {
        power[j] = &ws.matrix(static_cast<std::size_t>(j - 1), n, n);
        gemmInto(*power[j], *power[j - 1], b);
    }
    // acc += sum_{j < s} c_{s k + j} B^j, c_i = 1 / i!.
    const auto add_block = [&](Matrix &acc, int k) {
        for (std::size_t i = 0; i < n; ++i)
            acc(i, i) += kInvFactorial[s * k];
        for (int j = 1; j < s; ++j) {
            const double coef = kInvFactorial[s * k + j];
            const std::vector<Complex> &pj = power[j]->data();
            std::vector<Complex> &out = acc.data();
            for (std::size_t i = 0; i < out.size(); ++i)
                out[i] += coef * pj[i];
        }
    };
    // Horner in B^s over the blocks: the top block is c_m I, folded
    // into the first step, so the loop costs blocks - 1 gemms.
    Matrix &acc = ws.matrix(4, n, n);
    Matrix &tmp = ws.matrix(5, n, n);
    {
        const double top = kInvFactorial[rung->degree];
        const std::vector<Complex> &ps = power[s]->data();
        std::vector<Complex> &out = acc.data();
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = top * ps[i];
    }
    add_block(acc, blocks - 1);
    for (int k = blocks - 2; k >= 0; --k) {
        gemmInto(tmp, acc, *power[s]);
        std::swap(acc, tmp);
        add_block(acc, k);
    }
    for (int q = 0; q < squarings; ++q) {
        gemmInto(tmp, acc, acc);
        std::swap(acc, tmp);
    }
    const Complex phase = std::exp(scale * mu);
    Matrix result(n, n);
    for (std::size_t i = 0; i < n * n; ++i)
        result.data()[i] = phase * acc.data()[i];
    return result;
}

} // namespace

Matrix
expMinusIHt(const Matrix &h, double t)
{
    return expScaled(h, Complex{0.0, -t});
}

Matrix
expIH(const Matrix &h, double scale)
{
    return expMinusIHt(h, -scale);
}

Matrix
expm(const Matrix &a)
{
    return expScaled(a, Complex{1.0, 0.0});
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
