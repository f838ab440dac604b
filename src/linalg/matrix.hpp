#pragma once
/// \file matrix.hpp
/// Dense, row-major, dynamically sized matrix and vector types used throughout
/// the library. The implementation favours clarity and numerical robustness
/// over raw speed: every dataset in the DAC'14 pipeline is at most a few
/// hundred thousand rows by six columns, so cache-friendly row-major storage
/// plus straightforward loops is more than adequate.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace htd::linalg {

/// A dynamically sized column vector of doubles.
///
/// `Vector` is a thin value type: copyable, movable, comparable. Element
/// access is bounds-checked in debug builds via `at()`; `operator[]` is
/// unchecked for hot loops.
class Vector {
public:
    Vector() = default;

    /// Construct a zero vector of dimension `n`.
    explicit Vector(std::size_t n) : data_(n, 0.0) {}

    /// Construct a vector of dimension `n` with every element set to `fill`.
    Vector(std::size_t n, double fill) : data_(n, fill) {}

    /// Construct from an explicit element list, e.g. `Vector{1.0, 2.0}`.
    Vector(std::initializer_list<double> init) : data_(init) {}

    /// Construct by copying a span of doubles.
    explicit Vector(std::span<const double> values)
        : data_(values.begin(), values.end()) {}

    /// Number of elements.
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    /// True when the vector has zero elements.
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    /// Unchecked element access.
    [[nodiscard]] double operator[](std::size_t i) const noexcept { return data_[i]; }
    [[nodiscard]] double& operator[](std::size_t i) noexcept { return data_[i]; }

    /// Bounds-checked element access; throws std::out_of_range.
    [[nodiscard]] double at(std::size_t i) const { return data_.at(i); }
    [[nodiscard]] double& at(std::size_t i) { return data_.at(i); }

    /// Raw contiguous storage.
    [[nodiscard]] const double* data() const noexcept { return data_.data(); }
    [[nodiscard]] double* data() noexcept { return data_.data(); }

    /// View of the underlying storage.
    [[nodiscard]] std::span<const double> span() const noexcept { return data_; }
    [[nodiscard]] std::span<double> span() noexcept { return data_; }

    [[nodiscard]] auto begin() noexcept { return data_.begin(); }
    [[nodiscard]] auto end() noexcept { return data_.end(); }
    [[nodiscard]] auto begin() const noexcept { return data_.begin(); }
    [[nodiscard]] auto end() const noexcept { return data_.end(); }

    /// Resize, zero-filling any new elements.
    void resize(std::size_t n) { data_.resize(n, 0.0); }

    /// Append an element.
    void push_back(double v) { data_.push_back(v); }

    // --- arithmetic -------------------------------------------------------

    Vector& operator+=(const Vector& rhs);
    Vector& operator-=(const Vector& rhs);
    Vector& operator*=(double s) noexcept;
    Vector& operator/=(double s);

    friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
    friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
    friend Vector operator*(Vector lhs, double s) { return lhs *= s; }
    friend Vector operator*(double s, Vector rhs) { return rhs *= s; }
    friend Vector operator/(Vector lhs, double s) { return lhs /= s; }

    friend bool operator==(const Vector&, const Vector&) = default;

    /// Euclidean (L2) norm.
    [[nodiscard]] double norm() const noexcept;

    /// Sum of all elements.
    [[nodiscard]] double sum() const noexcept;

    /// Arithmetic mean; throws std::invalid_argument on an empty vector.
    [[nodiscard]] double mean() const;

    /// Smallest / largest element; throw std::invalid_argument when empty.
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;

    /// Human-readable rendering, e.g. "[1.0, 2.0, 3.0]".
    [[nodiscard]] std::string str() const;

private:
    std::vector<double> data_;
};

/// Dot product; throws std::invalid_argument on dimension mismatch.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Squared Euclidean distance between two vectors of equal dimension.
[[nodiscard]] double squared_distance(const Vector& a, const Vector& b);

/// A dense row-major matrix of doubles.
///
/// Rows map naturally onto dataset samples: `row(i)` copies sample i out as a
/// `Vector`, while `row_span(i)` gives zero-copy access for hot paths.
class Matrix {
public:
    Matrix() = default;

    /// Construct a zero matrix of shape rows x cols.
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

    /// Construct a rows x cols matrix with every element set to `fill`.
    Matrix(std::size_t rows, std::size_t cols, double fill)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Construct from nested initializer lists; throws std::invalid_argument
    /// if the rows are ragged.
    Matrix(std::initializer_list<std::initializer_list<double>> init);

    /// The n x n identity matrix.
    [[nodiscard]] static Matrix identity(std::size_t n);

    /// Build a matrix from a list of equally sized row vectors.
    [[nodiscard]] static Matrix from_rows(std::span<const Vector> rows);

    /// Diagonal matrix with the given diagonal entries.
    [[nodiscard]] static Matrix diagonal(const Vector& d);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    /// Unchecked element access.
    [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }

    /// Bounds-checked element access; throws std::out_of_range.
    [[nodiscard]] double at(std::size_t r, std::size_t c) const;
    [[nodiscard]] double& at(std::size_t r, std::size_t c);

    /// Copy of row r as a Vector.
    [[nodiscard]] Vector row(std::size_t r) const;

    /// Copy of column c as a Vector.
    [[nodiscard]] Vector col(std::size_t c) const;

    /// Zero-copy view of row r.
    [[nodiscard]] std::span<const double> row_span(std::size_t r) const;
    [[nodiscard]] std::span<double> row_span(std::size_t r);

    /// Overwrite row r with `v`; throws std::invalid_argument on mismatch.
    void set_row(std::size_t r, const Vector& v);

    /// Overwrite column c with `v`; throws std::invalid_argument on mismatch.
    void set_col(std::size_t c, const Vector& v);

    /// Append a row; throws std::invalid_argument if the width differs
    /// (appending to an empty matrix sets the width).
    void append_row(const Vector& v);

    /// Matrix transpose.
    [[nodiscard]] Matrix transposed() const;

    /// Submatrix copy of rows [r0, r0+nr) x cols [c0, c0+nc).
    [[nodiscard]] Matrix block(std::size_t r0, std::size_t c0,
                               std::size_t nr, std::size_t nc) const;

    // --- arithmetic -------------------------------------------------------

    Matrix& operator+=(const Matrix& rhs);
    Matrix& operator-=(const Matrix& rhs);
    Matrix& operator*=(double s) noexcept;

    friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
    friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
    friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
    friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

    friend bool operator==(const Matrix&, const Matrix&) = default;

    /// Matrix-matrix product; throws std::invalid_argument on shape mismatch.
    [[nodiscard]] Matrix matmul(const Matrix& rhs) const;

    /// Matrix-vector product; throws std::invalid_argument on shape mismatch.
    /// Contract: each output element is the left-to-right sum over columns,
    /// out[i] = ((0 + a(i,0) v[0]) + a(i,1) v[1]) + ..., so the result is
    /// bit-for-bit that of the naive one-row loop. Computing several rows
    /// at once keeps that order; reordering or splitting the columns would
    /// not.
    [[nodiscard]] Vector matvec(const Vector& v) const;

    /// Frobenius norm.
    [[nodiscard]] double frobenius_norm() const noexcept;

    /// Maximum absolute element.
    [[nodiscard]] double max_abs() const noexcept;

    /// True if square and symmetric to within `tol` (absolute).
    [[nodiscard]] bool is_symmetric(double tol = 1e-12) const noexcept;

    /// Human-readable rendering with aligned columns.
    [[nodiscard]] std::string str() const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// C = A * B convenience wrapper around Matrix::matmul.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// Outer product a b^T.
[[nodiscard]] Matrix outer(const Vector& a, const Vector& b);

}  // namespace htd::linalg
