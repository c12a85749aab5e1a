#pragma once

/// \file vector.hpp
/// Dense real vector for the small optimization problems in this library
/// (loop lengths 3–12 → problem sizes ≤ ~24). Simplicity and checkable
/// invariants over BLAS-grade performance.
///
/// Buffers are allocation-instrumented (math/alloc_stats.hpp) and every
/// mutating size change preserves capacity, so solver workspaces that
/// reuse vectors across solves reach a zero-allocation steady state.

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "math/alloc_stats.hpp"

namespace arb::math {

class Vector {
 public:
  using Buffer = std::vector<double, detail::CountingAllocator<double>>;

  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0);
  Vector(std::initializer_list<double> values);

  Vector(const Vector&) = default;
  Vector& operator=(const Vector&) = default;
  /// Moves steal the buffer: the source is left empty, no allocation.
  Vector(Vector&&) noexcept = default;
  Vector& operator=(Vector&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return data_.capacity(); }

  /// Capacity-preserving size change: never shrinks the buffer, and only
  /// allocates when n exceeds the current capacity. Existing prefix
  /// values are kept; new elements are zero.
  void resize(std::size_t n) { data_.resize(n, 0.0); }
  /// Capacity-preserving resize + fill of every element.
  void assign(std::size_t n, double fill) { data_.assign(n, fill); }
  /// Grows capacity without changing size.
  void reserve(std::size_t n) { data_.reserve(n); }

  void fill(double value);
  void set_zero() { fill(0.0); }

  /// Bounds-checked, and inline: the barrier's inner loops index through
  /// it element by element, and a call per element doubled route times.
  [[nodiscard]] double& operator[](std::size_t i) {
    ARB_REQUIRE(i < data_.size(), "Vector index out of range");
    return data_[i];
  }
  [[nodiscard]] double operator[](std::size_t i) const {
    ARB_REQUIRE(i < data_.size(), "Vector index out of range");
    return data_[i];
  }

  [[nodiscard]] const Buffer& data() const { return data_; }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double scalar);

  /// *this += scale · v, without temporaries.
  void add_scaled(const Vector& v, double scale);

  friend Vector operator+(Vector lhs, const Vector& rhs);
  friend Vector operator-(Vector lhs, const Vector& rhs);
  friend Vector operator*(double scalar, Vector v);
  friend Vector operator*(Vector v, double scalar);
  friend bool operator==(const Vector&, const Vector&) = default;

  [[nodiscard]] double dot(const Vector& rhs) const;
  /// Euclidean norm.
  [[nodiscard]] double norm() const;
  /// Max-abs norm.
  [[nodiscard]] double norm_inf() const;

  /// All components finite (no NaN/Inf).
  [[nodiscard]] bool all_finite() const;

  [[nodiscard]] std::string to_string() const;

 private:
  Buffer data_;
};

}  // namespace arb::math
