// Unit tests for the common substrate: hex, rng, codec, result, strong ids.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/codec.hpp"
#include "common/hex.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace jenga {
namespace {

TEST(Hex, RoundTrip) {
  std::vector<std::uint8_t> data{0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  auto back = from_hex("0001abff7f");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, AcceptsPrefixAndUppercase) {
  auto v = from_hex("0xDEADBEEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_hex(*v), "deadbeef");
}

TEST(Hex, RejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex
  EXPECT_FALSE(hash_from_hex("ab").has_value());  // wrong length for a digest
}

TEST(Hex, HashRoundTrip) {
  Hash256 h;
  for (std::size_t i = 0; i < 32; ++i) h.bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  auto parsed = hash_from_hex(to_hex(h));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBoundRespected) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.uniform(17), 17u);
}

TEST(Rng, UniformCoversRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng base(5);
  Rng f1 = base.fork("workload");
  Rng f2 = base.fork("workload");
  Rng f3 = base.fork("network");
  EXPECT_EQ(f1.next(), f2.next());
  EXPECT_NE(f1.next(), f3.next());
}

TEST(Rng, GeometricMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric_mean(10.0));
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.5);
}

TEST(Rng, GeometricMeanAtLeastOne) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.geometric_mean(1.3), 1u);
}

TEST(Codec, ScalarRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.failed());
}

TEST(Codec, BlobAndStringRoundTrip) {
  Writer w;
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  w.blob(payload);
  w.str("hello jenga");
  Reader r(w.data());
  EXPECT_EQ(r.blob(), payload);
  EXPECT_EQ(r.str(), "hello jenga");
}

TEST(Codec, HashAndIdRoundTrip) {
  Hash256 h;
  h.bytes[0] = 0xFE;
  h.bytes[31] = 0x01;
  Writer w;
  w.hash(h);
  w.id(NodeId{77});
  w.id(AccountId{123456789012345ULL});
  Reader r(w.data());
  EXPECT_EQ(r.hash(), h);
  EXPECT_EQ(r.id<NodeId>(), NodeId{77});
  EXPECT_EQ(r.id<AccountId>(), AccountId{123456789012345ULL});
}

TEST(Codec, TruncatedReadFails) {
  Writer w;
  w.u32(5);
  Reader r(w.data());
  (void)r.u64();  // asks for more than available
  EXPECT_TRUE(r.failed());
}

TEST(Codec, OversizedBlobLengthFails) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes, provides none
  Reader r(w.data());
  (void)r.blob();
  EXPECT_TRUE(r.failed());
}

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  Result<int> bad(Err<std::string>("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "boom");
  EXPECT_EQ(bad.value_or(3), 3);
}

TEST(Status, OkAndError) {
  Status<> ok;
  EXPECT_TRUE(ok.ok());
  Status<> bad(Err<std::string>("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
}

TEST(StrongId, TypeSafetyAndHash) {
  NodeId a{1}, b{1}, c{2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  std::unordered_set<NodeId> set{a, b, c};
  EXPECT_EQ(set.size(), 2u);
}

TEST(Hash256, PrefixU64BigEndian) {
  Hash256 h;
  h.bytes[0] = 0x01;
  h.bytes[7] = 0xFF;
  EXPECT_EQ(h.prefix_u64(), 0x01000000000000FFULL);
  EXPECT_FALSE(h.is_zero());
  EXPECT_TRUE(Hash256{}.is_zero());
}

}  // namespace
}  // namespace jenga
