/**
 * @file
 * Dense complex matrix and vector types used throughout qpulse.
 *
 * The dimensions involved in this project are tiny (2x2 single-qubit
 * unitaries up to 64x64 five-qubit density matrices and 9x9 two-transmon
 * qutrit Hamiltonians), so a straightforward row-major dense
 * implementation is both sufficient and easy to audit.
 */
#ifndef QPULSE_LINALG_MATRIX_H
#define QPULSE_LINALG_MATRIX_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/logging.h"

namespace qpulse {

class Workspace;

/** Dense complex column vector. */
class Vector
{
  public:
    Vector() = default;

    /** Zero vector of the given size. */
    explicit Vector(std::size_t n) : data_(n, Complex{0.0, 0.0}) {}

    /** Construct from an explicit list of amplitudes. */
    Vector(std::initializer_list<Complex> values) : data_(values) {}

    std::size_t size() const { return data_.size(); }

    /**
     * Change the size, reusing existing capacity when possible; newly
     * exposed entries (growth only) are zero, surviving entries keep
     * their values.
     */
    void resize(std::size_t n) { data_.resize(n, Complex{0.0, 0.0}); }

    /** Set every entry to zero without changing the size. */
    void setZero()
    {
        for (auto &amp : data_)
            amp = Complex{0.0, 0.0};
    }

    Complex &operator[](std::size_t i) { return data_[i]; }
    const Complex &operator[](std::size_t i) const { return data_[i]; }

    /** Squared 2-norm. */
    double normSq() const;

    /** 2-norm. */
    double norm() const;

    /** Scale in place so the 2-norm is 1; panics on the zero vector. */
    void normalize();

    /** Inner product <this|other> (conjugate-linear in this). */
    Complex dot(const Vector &other) const;

    Vector operator+(const Vector &other) const;
    Vector operator-(const Vector &other) const;
    Vector operator*(Complex scale) const;
    Vector &operator+=(const Vector &other);

    const std::vector<Complex> &data() const { return data_; }
    std::vector<Complex> &data() { return data_; }

  private:
    std::vector<Complex> data_;
};

/** Dense row-major complex matrix. */
class Matrix
{
  public:
    Matrix() = default;

    /** Zero matrix with the given shape. */
    Matrix(std::size_t rows, std::size_t cols);

    /**
     * Construct from a nested initializer list, e.g.
     * Matrix m{{1, 0}, {0, 1}};
     */
    Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** Identity matrix of dimension n. */
    static Matrix identity(std::size_t n);

    /** Zero square matrix of dimension n. */
    static Matrix zero(std::size_t n) { return Matrix(n, n); }

    /** Diagonal matrix from the given entries. */
    static Matrix diagonal(const std::vector<Complex> &entries);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /**
     * Change the shape, reusing existing capacity when possible.
     * Entries are unspecified afterwards (callers fully overwrite or
     * call setZero); intended for Workspace scratch slots.
     */
    void resize(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

    /** Set every entry to zero without changing the shape. */
    void setZero()
    {
        for (auto &entry : data_)
            entry = Complex{0.0, 0.0};
    }

    /** Overwrite with the identity (requires square shape). */
    void setIdentity();

    Complex &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    const Complex &operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    Matrix operator+(const Matrix &other) const;
    Matrix operator-(const Matrix &other) const;
    Matrix operator*(const Matrix &other) const;
    Matrix operator*(Complex scale) const;
    Matrix &operator+=(const Matrix &other);
    Matrix &operator-=(const Matrix &other);
    Matrix &operator*=(Complex scale);

    /** Matrix-vector product. */
    Vector apply(const Vector &v) const;

    /** Conjugate transpose. */
    Matrix adjoint() const;

    /** Transpose (no conjugation). */
    Matrix transpose() const;

    /** Elementwise complex conjugate. */
    Matrix conjugate() const;

    /** Trace (sum of diagonal entries); requires square. */
    Complex trace() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Max elementwise absolute difference against another matrix. */
    double maxAbsDiff(const Matrix &other) const;

    /** True if within tolerance of the identity. */
    bool isIdentity(double tol = 1e-9) const;

    /** True if U * U^dagger is within tolerance of the identity. */
    bool isUnitary(double tol = 1e-9) const;

    /** True if within tolerance of self-adjoint. */
    bool isHermitian(double tol = 1e-9) const;

    /** Multi-line human-readable rendering (for debugging/tests). */
    std::string toString(int precision = 4) const;

    const std::vector<Complex> &data() const { return data_; }
    std::vector<Complex> &data() { return data_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

// ---------------------------------------------------------------------
// Allocation-free kernel API. Each *Into overload resizes `out` (a
// capacity-reusing no-op inside warm loops) and fully overwrites it;
// `out` must not alias any input. Products dispatch through
// kernels::activeSimd() — see src/linalg/simd.h for the numerics
// contract — and increment the linalg.gemm.* telemetry counters.
// ---------------------------------------------------------------------

/** out = a * b. */
void gemmInto(Matrix &out, const Matrix &a, const Matrix &b);

/** out = a * b^dagger (without materializing the adjoint). */
void gemmAdjBInto(Matrix &out, const Matrix &a, const Matrix &b);

/** out = a^dagger * b (without materializing the adjoint). */
void gemmAdjAInto(Matrix &out, const Matrix &a, const Matrix &b);

/** out = a * x. */
void applyInto(Vector &out, const Matrix &a, const Vector &x);

/**
 * Binary-exponentiation matrix power: out = base^count, count >= 1,
 * O(d^3 log count) and heap-silent after workspace warm-up (consumes
 * workspace matrix slots 0-1). The multiplication order matches the
 * historical PulseSimulator::matrixPower helper bit-for-bit.
 */
void powmInto(Matrix &out, const Matrix &base, std::uint64_t count,
              Workspace &ws);

/** Out-of-place powm convenience (uses the thread-local workspace). */
Matrix powm(const Matrix &base, std::uint64_t count);

/** Kronecker (tensor) product a (x) b. */
Matrix kron(const Matrix &a, const Matrix &b);

/** Kronecker product of a list, left-to-right. */
Matrix kronAll(const std::vector<Matrix> &factors);

/** Kronecker product of vectors. */
Vector kron(const Vector &a, const Vector &b);

/** Scalar * matrix convenience. */
inline Matrix
operator*(Complex scale, const Matrix &m)
{
    return m * scale;
}

} // namespace qpulse

#endif // QPULSE_LINALG_MATRIX_H
