#include "math/matrix.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace arb::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

void Matrix::fill(double value) {
  for (double& x : data_) x = value;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  ARB_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
              "Matrix shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) {
  lhs += rhs;
  return lhs;
}

Matrix operator*(double scalar, Matrix m) {
  m *= scalar;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Vector Matrix::multiply(const Vector& v) const {
  ARB_REQUIRE(cols_ == v.size(), "Matrix*Vector shape mismatch");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  ARB_REQUIRE(cols_ == rhs.rows_, "Matrix*Matrix shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double lhs_rk = (*this)(r, k);
      if (lhs_rk == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out(r, c) += lhs_rk * rhs(k, c);
      }
    }
  }
  return out;
}

void Matrix::add_outer_product(const Vector& u, const Vector& v, double scale) {
  ARB_REQUIRE(u.size() == rows_ && v.size() == cols_,
              "outer product shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    const double su = scale * u[r];
    if (su == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) {
      (*this)(r, c) += su * v[c];
    }
  }
}

bool Matrix::all_finite() const {
  for (double x : data_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::string Matrix::to_string() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c != 0) os << ", ";
      os << (*this)(r, c);
    }
    os << (r + 1 == rows_ ? "]" : ";\n");
  }
  return os.str();
}

}  // namespace arb::math
