#pragma once

/// \file matrix.hpp
/// Dense row-major matrix companion to math::Vector. Like Vector, its
/// buffer is allocation-instrumented and size changes preserve capacity
/// so solver workspaces can reuse matrices allocation-free.

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "math/alloc_stats.hpp"
#include "math/vector.hpp"

namespace arb::math {

class Matrix {
 public:
  using Buffer = std::vector<double, detail::CountingAllocator<double>>;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  /// Moves steal the buffer: the source is left 0×0, no allocation.
  Matrix(Matrix&&) noexcept;
  Matrix& operator=(Matrix&&) noexcept;

  [[nodiscard]] static Matrix identity(std::size_t n);
  /// Builds diag(d).
  [[nodiscard]] static Matrix diagonal(const Vector& d);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t capacity() const { return data_.capacity(); }

  /// Capacity-preserving reshape + fill of every element: only allocates
  /// when rows·cols exceeds the buffer's current capacity.
  void assign(std::size_t rows, std::size_t cols, double fill);
  /// Grows capacity without changing shape.
  void reserve(std::size_t rows, std::size_t cols) {
    data_.reserve(rows * cols);
  }

  void fill(double value);
  void set_zero() { fill(0.0); }

  /// Bounds-checked, and inline for the same reason as Vector's.
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    ARB_REQUIRE(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    ARB_REQUIRE(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator*=(double scalar);
  friend Matrix operator+(Matrix lhs, const Matrix& rhs);
  friend Matrix operator*(double scalar, Matrix m);

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] Vector multiply(const Vector& v) const;
  [[nodiscard]] Matrix multiply(const Matrix& rhs) const;

  /// Rank-1 update: *this += scale * u v^T.
  void add_outer_product(const Vector& u, const Vector& v, double scale);

  [[nodiscard]] bool all_finite() const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Buffer data_;
};

}  // namespace arb::math
