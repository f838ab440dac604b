#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace htd::linalg {

namespace {

void require(bool cond, const char* what) {
    if (!cond) throw std::invalid_argument(what);
}

}  // namespace

// --- Vector ----------------------------------------------------------------

Vector& Vector::operator+=(const Vector& rhs) {
    require(size() == rhs.size(), "Vector::operator+=: dimension mismatch");
    for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
    require(size() == rhs.size(), "Vector::operator-=: dimension mismatch");
    for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
}

Vector& Vector::operator*=(double s) noexcept {
    for (double& v : data_) v *= s;
    return *this;
}

Vector& Vector::operator/=(double s) {
    require(s != 0.0, "Vector::operator/=: division by zero");
    for (double& v : data_) v /= s;
    return *this;
}

double Vector::norm() const noexcept {
    double acc = 0.0;
    for (double v : data_) acc += v * v;
    return std::sqrt(acc);
}

double Vector::sum() const noexcept {
    double acc = 0.0;
    for (double v : data_) acc += v;
    return acc;
}

double Vector::mean() const {
    require(!empty(), "Vector::mean: empty vector");
    return sum() / static_cast<double>(size());
}

double Vector::min() const {
    require(!empty(), "Vector::min: empty vector");
    return *std::min_element(data_.begin(), data_.end());
}

double Vector::max() const {
    require(!empty(), "Vector::max: empty vector");
    return *std::max_element(data_.begin(), data_.end());
}

std::string Vector::str() const {
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < size(); ++i) {
        if (i > 0) os << ", ";
        os << data_[i];
    }
    os << ']';
    return os.str();
}

double dot(const Vector& a, const Vector& b) {
    require(a.size() == b.size(), "dot: dimension mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
    return acc;
}

double squared_distance(const Vector& a, const Vector& b) {
    require(a.size() == b.size(), "squared_distance: dimension mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

// --- Matrix ------------------------------------------------------------------

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : init) {
        require(r.size() == cols_, "Matrix: ragged initializer list");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::from_rows(std::span<const Vector> rows) {
    Matrix m;
    for (const Vector& r : rows) m.append_row(r);
    return m;
}

Matrix Matrix::diagonal(const Vector& d) {
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
    return m;
}

double Matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return (*this)(r, c);
}

double& Matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return (*this)(r, c);
}

Vector Matrix::row(std::size_t r) const {
    if (r >= rows_) throw std::out_of_range("Matrix::row");
    return Vector(row_span(r));
}

Vector Matrix::col(std::size_t c) const {
    if (c >= cols_) throw std::out_of_range("Matrix::col");
    Vector v(rows_);
    for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
    return v;
}

std::span<const double> Matrix::row_span(std::size_t r) const {
    if (r >= rows_) throw std::out_of_range("Matrix::row_span");
    return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row_span(std::size_t r) {
    if (r >= rows_) throw std::out_of_range("Matrix::row_span");
    return {data_.data() + r * cols_, cols_};
}

void Matrix::set_row(std::size_t r, const Vector& v) {
    if (r >= rows_) throw std::out_of_range("Matrix::set_row");
    require(v.size() == cols_, "Matrix::set_row: width mismatch");
    std::copy(v.begin(), v.end(), data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

void Matrix::set_col(std::size_t c, const Vector& v) {
    if (c >= cols_) throw std::out_of_range("Matrix::set_col");
    require(v.size() == rows_, "Matrix::set_col: height mismatch");
    for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void Matrix::append_row(const Vector& v) {
    if (rows_ == 0 && cols_ == 0) {
        cols_ = v.size();
    } else {
        require(v.size() == cols_, "Matrix::append_row: width mismatch");
    }
    data_.insert(data_.end(), v.begin(), v.end());
    ++rows_;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0,
                     std::size_t nr, std::size_t nc) const {
    if (r0 + nr > rows_ || c0 + nc > cols_) throw std::out_of_range("Matrix::block");
    Matrix b(nr, nc);
    for (std::size_t r = 0; r < nr; ++r)
        for (std::size_t c = 0; c < nc; ++c) b(r, c) = (*this)(r0 + r, c0 + c);
    return b;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
    require(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix::operator+=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
    require(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix::operator-=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
    for (double& v : data_) v *= s;
    return *this;
}

Matrix Matrix::matmul(const Matrix& rhs) const {
    require(cols_ == rhs.rows_, "Matrix::matmul: inner dimension mismatch");
    Matrix out(rows_, rhs.cols_);
    // i-k-j loop order keeps both inner accesses sequential in memory.
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(i, k);
            if (a == 0.0) continue;
            for (std::size_t j = 0; j < rhs.cols_; ++j) {
                out(i, j) += a * rhs(k, j);
            }
        }
    }
    return out;
}

Vector Matrix::matvec(const Vector& v) const {
    require(cols_ == v.size(), "Matrix::matvec: dimension mismatch");
    Vector out(rows_);
    const double* x = v.data();
    // Four rows per pass: four independent add chains hide the add latency
    // and each v[j] load feeds all four. Every chain still sums its row in
    // column order, so the result is bit-identical to the one-row loop.
    std::size_t i = 0;
    for (; i + 4 <= rows_; i += 4) {
        const double* a0 = data_.data() + i * cols_;
        const double* a1 = a0 + cols_;
        const double* a2 = a1 + cols_;
        const double* a3 = a2 + cols_;
        double acc0 = 0.0;
        double acc1 = 0.0;
        double acc2 = 0.0;
        double acc3 = 0.0;
        for (std::size_t j = 0; j < cols_; ++j) {
            const double xj = x[j];
            acc0 += a0[j] * xj;
            acc1 += a1[j] * xj;
            acc2 += a2[j] * xj;
            acc3 += a3[j] * xj;
        }
        out[i] = acc0;
        out[i + 1] = acc1;
        out[i + 2] = acc2;
        out[i + 3] = acc3;
    }
    for (; i < rows_; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
        out[i] = acc;
    }
    return out;
}

double Matrix::frobenius_norm() const noexcept {
    double acc = 0.0;
    for (double v : data_) acc += v * v;
    return std::sqrt(acc);
}

double Matrix::max_abs() const noexcept {
    double acc = 0.0;
    for (double v : data_) acc = std::max(acc, std::abs(v));
    return acc;
}

bool Matrix::is_symmetric(double tol) const noexcept {
    if (rows_ != cols_) return false;
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = r + 1; c < cols_; ++c)
            if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    return true;
}

std::string Matrix::str() const {
    std::ostringstream os;
    os << std::setprecision(6);
    for (std::size_t r = 0; r < rows_; ++r) {
        os << (r == 0 ? "[[" : " [");
        for (std::size_t c = 0; c < cols_; ++c) {
            if (c > 0) os << ", ";
            os << std::setw(10) << (*this)(r, c);
        }
        os << (r + 1 == rows_ ? "]]" : "]\n");
    }
    return os.str();
}

Matrix matmul(const Matrix& a, const Matrix& b) { return a.matmul(b); }

Matrix outer(const Vector& a, const Vector& b) {
    Matrix m(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = 0; j < b.size(); ++j) m(i, j) = a[i] * b[j];
    return m;
}

}  // namespace htd::linalg
