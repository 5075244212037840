// secp256k1 elliptic-curve group: y^2 = x^3 + 7 over F_p.
//
// Provides field arithmetic with the curve-specific fast reduction, affine
// point arithmetic, scalar multiplication, and 33-byte point compression.
// Every point_add / point_double pays one field inversion (Fermat, a^(p-2):
// about 510 field multiplies), so a 256-bit scalar multiply costs a few
// hundred inversions.  Used by the Schnorr signature scheme and the VRF.  Not
// constant-time.
#pragma once

#include <array>
#include <optional>

#include "crypto/uint256.hpp"

namespace jenga::crypto {

/// Field prime p = 2^256 - 2^32 - 977.
extern const U256 kFieldP;
/// Group order n.
extern const U256 kOrderN;

/// Field element arithmetic mod p with fast reduction.
U256 fp_add(const U256& a, const U256& b);
U256 fp_sub(const U256& a, const U256& b);
U256 fp_mul(const U256& a, const U256& b);
U256 fp_sqr(const U256& a);
U256 fp_inv(const U256& a);
/// Square root mod p (p ≡ 3 mod 4): a^((p+1)/4).  Returns nullopt if a is a
/// non-residue.
std::optional<U256> fp_sqrt(const U256& a);

/// Affine point; infinity encoded by the dedicated flag.
struct Point {
  U256 x;
  U256 y;
  bool infinity = true;

  bool operator==(const Point&) const = default;
};

/// The group generator G.
const Point& generator();

[[nodiscard]] bool is_on_curve(const Point& p);
[[nodiscard]] Point point_add(const Point& a, const Point& b);
[[nodiscard]] Point point_double(const Point& a);
[[nodiscard]] Point point_neg(const Point& a);
/// k * P via right-to-left double-and-add over affine points (k taken mod n).
[[nodiscard]] Point point_mul(const U256& k, const Point& p);
/// k * G.
[[nodiscard]] Point point_mul_g(const U256& k);

/// SEC1 compressed encoding: 0x02/0x03 || x (33 bytes); infinity = 33 zeros.
using CompressedPoint = std::array<std::uint8_t, 33>;
[[nodiscard]] CompressedPoint compress(const Point& p);
[[nodiscard]] std::optional<Point> decompress(const CompressedPoint& c);

}  // namespace jenga::crypto
