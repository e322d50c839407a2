#include "linalg/matrix.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "linalg/simd.h"
#include "linalg/workspace.h"
#include "telemetry/metrics.h"

namespace qpulse {

namespace {

// Work counters (docs/OBSERVABILITY.md): counts and complex
// multiply-add volume are functions of the work submitted, never of
// scheduling, so they stay bit-identical across QPULSE_THREADS.
void
countGemm(std::size_t m, std::size_t k, std::size_t n)
{
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter("linalg.gemm.calls");
    static telemetry::Counter &c_madds =
        telemetry::MetricsRegistry::global().counter("linalg.gemm.madds");
    c_calls.increment();
    c_madds.add(static_cast<std::uint64_t>(m * k * n));
}

void
countMatvec(std::size_t m, std::size_t n)
{
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter(
            "linalg.gemm.matvec_calls");
    static telemetry::Counter &c_madds =
        telemetry::MetricsRegistry::global().counter(
            "linalg.gemm.matvec_madds");
    c_calls.increment();
    c_madds.add(static_cast<std::uint64_t>(m * n));
}

} // namespace

double
Vector::normSq() const
{
    double total = 0.0;
    for (const auto &amp : data_)
        total += std::norm(amp);
    return total;
}

double
Vector::norm() const
{
    return std::sqrt(normSq());
}

void
Vector::normalize()
{
    const double n = norm();
    qpulseAssert(n > 0.0, "cannot normalize the zero vector");
    for (auto &amp : data_)
        amp /= n;
}

Complex
Vector::dot(const Vector &other) const
{
    qpulseAssert(size() == other.size(), "Vector::dot size mismatch");
    Complex total{0.0, 0.0};
    for (std::size_t i = 0; i < size(); ++i)
        total += std::conj(data_[i]) * other[i];
    return total;
}

Vector
Vector::operator+(const Vector &other) const
{
    qpulseAssert(size() == other.size(), "Vector::+ size mismatch");
    Vector result(size());
    for (std::size_t i = 0; i < size(); ++i)
        result[i] = data_[i] + other[i];
    return result;
}

Vector
Vector::operator-(const Vector &other) const
{
    qpulseAssert(size() == other.size(), "Vector::- size mismatch");
    Vector result(size());
    for (std::size_t i = 0; i < size(); ++i)
        result[i] = data_[i] - other[i];
    return result;
}

Vector
Vector::operator*(Complex scale) const
{
    Vector result(size());
    for (std::size_t i = 0; i < size(); ++i)
        result[i] = data_[i] * scale;
    return result;
}

Vector &
Vector::operator+=(const Vector &other)
{
    qpulseAssert(size() == other.size(), "Vector::+= size mismatch");
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] += other[i];
    return *this;
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, Complex{0.0, 0.0})
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows)
{
    rows_ = rows.size();
    cols_ = rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        qpulseRequire(row.size() == cols_, "ragged matrix initializer");
        for (const auto &entry : row)
            data_.push_back(entry);
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = Complex{1.0, 0.0};
    return m;
}

void
Matrix::setIdentity()
{
    qpulseAssert(rows_ == cols_, "setIdentity on non-square matrix");
    setZero();
    for (std::size_t i = 0; i < rows_; ++i)
        (*this)(i, i) = Complex{1.0, 0.0};
}

Matrix
Matrix::diagonal(const std::vector<Complex> &entries)
{
    Matrix m(entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        m(i, i) = entries[i];
    return m;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    qpulseAssert(rows_ == other.rows_ && cols_ == other.cols_,
                 "Matrix::+ shape mismatch");
    Matrix result(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        result.data_[i] = data_[i] + other.data_[i];
    return result;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    qpulseAssert(rows_ == other.rows_ && cols_ == other.cols_,
                 "Matrix::- shape mismatch");
    Matrix result(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        result.data_[i] = data_[i] - other.data_[i];
    return result;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    qpulseAssert(cols_ == other.rows_, "Matrix::* shape mismatch: ",
                 rows_, "x", cols_, " * ", other.rows_, "x", other.cols_);
    Matrix result(rows_, other.cols_);
    kernels::gemmDispatch(result.data_.data(), data_.data(), other.data_.data(),
                 rows_, cols_, other.cols_);
    countGemm(rows_, cols_, other.cols_);
    return result;
}

Matrix
Matrix::operator*(Complex scale) const
{
    Matrix result(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        result.data_[i] = data_[i] * scale;
    return result;
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    qpulseAssert(rows_ == other.rows_ && cols_ == other.cols_,
                 "Matrix::+= shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &other)
{
    qpulseAssert(rows_ == other.rows_ && cols_ == other.cols_,
                 "Matrix::-= shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(Complex scale)
{
    for (auto &entry : data_)
        entry *= scale;
    return *this;
}

Vector
Matrix::apply(const Vector &v) const
{
    qpulseAssert(cols_ == v.size(), "Matrix::apply shape mismatch");
    Vector result(rows_);
    kernels::matvecDispatch(result.data().data(), data_.data(), v.data().data(),
                   rows_, cols_);
    countMatvec(rows_, cols_);
    return result;
}

Matrix
Matrix::adjoint() const
{
    Matrix result(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            result(j, i) = std::conj((*this)(i, j));
    return result;
}

Matrix
Matrix::transpose() const
{
    Matrix result(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            result(j, i) = (*this)(i, j);
    return result;
}

Matrix
Matrix::conjugate() const
{
    Matrix result(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        result.data_[i] = std::conj(data_[i]);
    return result;
}

Complex
Matrix::trace() const
{
    qpulseAssert(rows_ == cols_, "trace of non-square matrix");
    Complex total{0.0, 0.0};
    for (std::size_t i = 0; i < rows_; ++i)
        total += (*this)(i, i);
    return total;
}

double
Matrix::frobeniusNorm() const
{
    double total = 0.0;
    for (const auto &entry : data_)
        total += std::norm(entry);
    return std::sqrt(total);
}

double
Matrix::maxAbsDiff(const Matrix &other) const
{
    qpulseAssert(rows_ == other.rows_ && cols_ == other.cols_,
                 "maxAbsDiff shape mismatch");
    double worst = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
    return worst;
}

bool
Matrix::isIdentity(double tol) const
{
    if (rows_ != cols_)
        return false;
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t j = 0; j < cols_; ++j) {
            const Complex expected =
                i == j ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
            if (std::abs((*this)(i, j) - expected) > tol)
                return false;
        }
    }
    return true;
}

bool
Matrix::isUnitary(double tol) const
{
    if (rows_ != cols_)
        return false;
    return ((*this) * adjoint()).isIdentity(tol);
}

bool
Matrix::isHermitian(double tol) const
{
    if (rows_ != cols_)
        return false;
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = i; j < cols_; ++j)
            if (std::abs((*this)(i, j) - std::conj((*this)(j, i))) > tol)
                return false;
    return true;
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision);
    for (std::size_t i = 0; i < rows_; ++i) {
        os << "[ ";
        for (std::size_t j = 0; j < cols_; ++j) {
            const Complex &z = (*this)(i, j);
            os << std::setw(precision + 4) << z.real()
               << (z.imag() >= 0 ? "+" : "-")
               << std::abs(z.imag()) << "i ";
        }
        os << "]\n";
    }
    return os.str();
}

void
gemmInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    qpulseAssert(&out != &a && &out != &b, "gemmInto: out aliases input");
    qpulseAssert(a.cols() == b.rows(), "gemmInto shape mismatch: ",
                 a.rows(), "x", a.cols(), " * ", b.rows(), "x", b.cols());
    out.resize(a.rows(), b.cols());
    kernels::gemmDispatch(out.data().data(), a.data().data(), b.data().data(),
                 a.rows(), a.cols(), b.cols());
    countGemm(a.rows(), a.cols(), b.cols());
}

void
gemmAdjBInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    qpulseAssert(&out != &a && &out != &b,
                 "gemmAdjBInto: out aliases input");
    qpulseAssert(a.cols() == b.cols(), "gemmAdjBInto shape mismatch: ",
                 a.rows(), "x", a.cols(), " * (", b.rows(), "x", b.cols(),
                 ")^dagger");
    out.resize(a.rows(), b.rows());
    kernels::gemmAdjBDispatch(out.data().data(), a.data().data(), b.data().data(),
                     a.rows(), a.cols(), b.rows());
    countGemm(a.rows(), a.cols(), b.rows());
}

void
gemmAdjAInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    qpulseAssert(&out != &a && &out != &b,
                 "gemmAdjAInto: out aliases input");
    qpulseAssert(a.rows() == b.rows(), "gemmAdjAInto shape mismatch: (",
                 a.rows(), "x", a.cols(), ")^dagger * ", b.rows(), "x",
                 b.cols());
    out.resize(a.cols(), b.cols());
    kernels::gemmAdjADispatch(out.data().data(), a.data().data(), b.data().data(),
                     a.cols(), a.rows(), b.cols());
    countGemm(a.cols(), a.rows(), b.cols());
}

void
applyInto(Vector &out, const Matrix &a, const Vector &x)
{
    qpulseAssert(&out != &x, "applyInto: out aliases input");
    qpulseAssert(a.cols() == x.size(), "applyInto shape mismatch");
    out.resize(a.rows());
    kernels::matvecDispatch(out.data().data(), a.data().data(), x.data().data(),
                   a.rows(), a.cols());
    countMatvec(a.rows(), a.cols());
}

void
powmInto(Matrix &out, const Matrix &base, std::uint64_t count,
         Workspace &ws)
{
    qpulseAssert(count >= 1, "powmInto requires count >= 1");
    qpulseAssert(base.rows() == base.cols(),
                 "powmInto requires a square base");
    qpulseAssert(&out != &base, "powmInto: out aliases base");
    const std::size_t n = base.rows();
    if (count == 1) {
        out = base;
        return;
    }
    // Mirrors the multiplication order of the historical binary-power
    // helper (out = sq * out; sq = sq * sq) so scalar-mode results are
    // bit-identical to the pre-overhaul implementation.
    Matrix &sq = ws.matrix(0, n, n);
    Matrix &tmp = ws.matrix(1, n, n);
    sq = base;
    out.resize(n, n);
    out.setIdentity();
    while (count > 0) {
        if (count & 1u) {
            gemmInto(tmp, sq, out);
            std::swap(out, tmp);
        }
        count >>= 1;
        if (count > 0) {
            gemmInto(tmp, sq, sq);
            std::swap(sq, tmp);
        }
    }
}

Matrix
powm(const Matrix &base, std::uint64_t count)
{
    Matrix out;
    powmInto(out, base, count, tlsWorkspace());
    return out;
}

Matrix
kron(const Matrix &a, const Matrix &b)
{
    Matrix result(a.rows() * b.rows(), a.cols() * b.cols());
    for (std::size_t ia = 0; ia < a.rows(); ++ia)
        for (std::size_t ja = 0; ja < a.cols(); ++ja) {
            const Complex scale = a(ia, ja);
            if (scale == Complex{0.0, 0.0})
                continue;
            for (std::size_t ib = 0; ib < b.rows(); ++ib)
                for (std::size_t jb = 0; jb < b.cols(); ++jb)
                    result(ia * b.rows() + ib, ja * b.cols() + jb) =
                        scale * b(ib, jb);
        }
    return result;
}

Matrix
kronAll(const std::vector<Matrix> &factors)
{
    qpulseRequire(!factors.empty(), "kronAll requires at least one factor");
    Matrix result = factors.front();
    for (std::size_t i = 1; i < factors.size(); ++i)
        result = kron(result, factors[i]);
    return result;
}

Vector
kron(const Vector &a, const Vector &b)
{
    Vector result(a.size() * b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = 0; j < b.size(); ++j)
            result[i * b.size() + j] = a[i] * b[j];
    return result;
}

} // namespace qpulse
