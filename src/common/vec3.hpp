// Small fixed-size 3-vector used for positions, velocities, and forces.
#pragma once

#include <cmath>
#include <ostream>

#include "common/types.hpp"

namespace lbmib {

/// A plain 3-component vector of `Real`. Aggregate; safe to memcpy.
struct Vec3 {
  Real x = 0.0;
  Real y = 0.0;
  Real z = 0.0;

  constexpr Real& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }
  constexpr const Real& operator[](int i) const {
    return i == 0 ? x : (i == 1 ? y : z);
  }

  constexpr Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  constexpr Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  constexpr Vec3& operator*=(Real s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }
};

constexpr Vec3 operator+(Vec3 a, const Vec3& b) { return a += b; }
constexpr Vec3 operator-(Vec3 a, const Vec3& b) { return a -= b; }
constexpr Vec3 operator*(Vec3 a, Real s) { return a *= s; }
constexpr Vec3 operator*(Real s, Vec3 a) { return a *= s; }
constexpr Vec3 operator/(Vec3 a, Real s) { return a *= (Real{1} / s); }
constexpr Vec3 operator-(const Vec3& a) { return {-a.x, -a.y, -a.z}; }

constexpr bool operator==(const Vec3& a, const Vec3& b) {
  return a.x == b.x && a.y == b.y && a.z == b.z;
}

constexpr Real dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
          a.x * b.y - a.y * b.x};
}

inline Real norm(const Vec3& a) { return std::sqrt(dot(a, a)); }

constexpr Real norm2(const Vec3& a) { return dot(a, a); }

/// (x, y, z) += w * v with one explicit fused multiply-add per component.
/// Every plain force-spreading path accumulates through this, so a sum
/// rounds the same whether or not the compiler inlined the accumulation
/// and contracted the multiply-add on its own (-ffp-contract).
inline void fma_accumulate(Real& x, Real& y, Real& z, Real w, const Vec3& v) {
  x = std::fma(w, v.x, x);
  y = std::fma(w, v.y, y);
  z = std::fma(w, v.z, z);
}

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

}  // namespace lbmib
