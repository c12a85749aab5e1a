#include "math/vector.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace arb::math {

Vector::Vector(std::size_t n, double fill) : data_(n, fill) {}

Vector::Vector(std::initializer_list<double> values)
    : data_(values.begin(), values.end()) {}

void Vector::fill(double value) {
  for (double& x : data_) x = value;
}

Vector& Vector::operator+=(const Vector& rhs) {
  ARB_REQUIRE(size() == rhs.size(), "Vector size mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  ARB_REQUIRE(size() == rhs.size(), "Vector size mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

void Vector::add_scaled(const Vector& v, double scale) {
  ARB_REQUIRE(size() == v.size(), "Vector size mismatch in add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * v.data_[i];
  }
}

Vector operator+(Vector lhs, const Vector& rhs) {
  lhs += rhs;
  return lhs;
}

Vector operator-(Vector lhs, const Vector& rhs) {
  lhs -= rhs;
  return lhs;
}

Vector operator*(double scalar, Vector v) {
  v *= scalar;
  return v;
}

Vector operator*(Vector v, double scalar) {
  v *= scalar;
  return v;
}

double Vector::dot(const Vector& rhs) const {
  ARB_REQUIRE(size() == rhs.size(), "Vector size mismatch in dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) acc += data_[i] * rhs.data_[i];
  return acc;
}

double Vector::norm() const {
  return std::sqrt(dot(*this));
}

double Vector::norm_inf() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

bool Vector::all_finite() const {
  for (double x : data_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::string Vector::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (i != 0) os << ", ";
    os << data_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace arb::math
