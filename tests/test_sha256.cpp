// SHA-256 against FIPS 180-4 / NIST CAVS vectors, and the SHA-NI compression
// function against the portable one.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_blocks.hpp"

namespace jenga::crypto {
namespace {

std::string digest_hex(std::string_view msg) { return to_hex(sha256(msg)); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  std::string msg(1000000, 'a');
  EXPECT_EQ(digest_hex(msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: exercises the path with no leftover buffer.
  std::string msg(64, 'x');
  Sha256 h;
  h.update(msg);
  const auto one_shot = h.finish();
  // Same data split awkwardly across updates must agree.
  Sha256 h2;
  h2.update(msg.substr(0, 1));
  h2.update(msg.substr(1, 62));
  h2.update(msg.substr(63));
  EXPECT_EQ(one_shot, h2.finish());
}

TEST(Sha256, IncrementalMatchesOneShotManySplits) {
  std::string msg;
  for (int i = 0; i < 300; ++i) msg += static_cast<char>('a' + i % 26);
  const auto expect = sha256(msg);
  for (std::size_t split = 1; split < msg.size(); split += 17) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), expect) << "split=" << split;
  }
}

TEST(Sha256, ResetReusable) {
  Sha256 h;
  h.update("abc");
  const auto first = h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finish(), first);
}

TEST(Sha256, UpdateU64LittleEndian) {
  Sha256 a;
  a.update_u64(0x0102030405060708ULL);
  const std::uint8_t raw[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  Sha256 b;
  b.update(std::span<const std::uint8_t>(raw, 8));
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Sha256, TaggedHashesAreDomainSeparated) {
  const std::uint8_t data[3] = {1, 2, 3};
  const auto a = sha256_tagged("tag-a", std::span<const std::uint8_t>(data, 3));
  const auto b = sha256_tagged("tag-b", std::span<const std::uint8_t>(data, 3));
  EXPECT_NE(a, b);
}

// 55/56/57 bytes straddle the padding boundary (56 leaves no room for the
// 8-byte length in the same block).
TEST(Sha256, PaddingBoundaryLengths) {
  EXPECT_EQ(digest_hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(digest_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
  EXPECT_EQ(digest_hex(std::string(57, 'a')),
            "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6");
}

// ---------------------------------------------------------------------------
// Compression functions, each checked on its own.  Sha256 dispatches to SHA-NI
// wherever the CPU has it, so the portable function is only exercised through
// these tests on such hosts.
// ---------------------------------------------------------------------------

/// FIPS 180-4 message padding + compression with an explicit block function,
/// written independently of Sha256::finish().
Hash256 digest_with(detail::Sha256BlocksFn blocks, std::string_view msg) {
  std::vector<std::uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  blocks(state, padded.data(), padded.size() / 64);
  Hash256 out;
  for (std::size_t i = 0; i < 32; ++i)
    out.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

struct NistVector {
  std::string msg;
  const char* hex;
};

std::vector<NistVector> nist_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(55, 'a'), "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {std::string(56, 'a'), "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {std::string(57, 'a'), "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

class Sha256Blocks : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && detail::sha256_blocks_shani() == nullptr)
      GTEST_SKIP() << "CPU lacks SHA-NI";
  }
  /// The implementation under test (true = SHA-NI).
  static detail::Sha256BlocksFn blocks() {
    return GetParam() ? detail::sha256_blocks_shani() : detail::sha256_blocks_portable;
  }
};

TEST_P(Sha256Blocks, NistVectors) {
  for (const auto& v : nist_vectors())
    EXPECT_EQ(to_hex(digest_with(blocks(), v.msg)), v.hex) << "length " << v.msg.size();
}

TEST_P(Sha256Blocks, RandomBlocksMatchPortable) {
  Rng rng(0x5A256);
  for (int trial = 0; trial < 1000; ++trial) {
    std::uint8_t block[64];
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.uniform(256));
    std::uint32_t init[8];
    for (auto& w : init) w = static_cast<std::uint32_t>(rng.next());
    std::uint32_t expect[8], got[8];
    std::memcpy(expect, init, sizeof init);
    std::memcpy(got, init, sizeof init);
    detail::sha256_blocks_portable(expect, block, 1);
    blocks()(got, block, 1);
    for (int i = 0; i < 8; ++i) ASSERT_EQ(got[i], expect[i]) << "trial " << trial << " word " << i;
  }
}

TEST_P(Sha256Blocks, MultiBlockCallMatchesOneAtATime) {
  Rng rng(0xB10C5);
  std::vector<std::uint8_t> data(64 * 9);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
  std::uint32_t whole[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint32_t stepped[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  blocks()(whole, data.data(), 9);
  for (std::size_t i = 0; i < 9; ++i) blocks()(stepped, data.data() + 64 * i, 1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(whole[i], stepped[i]) << "word " << i;
}

INSTANTIATE_TEST_SUITE_P(Impl, Sha256Blocks, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "ShaNi" : "Portable"; });

// finish() pads with memset into one or two blocks; every length from 0 to
// 200 bytes crosses the boundaries at 55/56, 63/64 and 119/120.
TEST(Sha256, FinishMatchesReferencePaddingAtEveryLength) {
  Rng rng(0xF1215);
  std::string msg;
  for (std::size_t len = 0; len <= 200; ++len) {
    const auto expect = digest_with(detail::sha256_blocks_portable, msg);
    EXPECT_EQ(sha256(msg), expect) << "length " << len;
    // Fed a byte at a time, the buffered path must agree too.
    Sha256 h;
    for (const char c : msg) h.update(std::string_view(&c, 1));
    EXPECT_EQ(h.finish(), expect) << "bytewise, length " << len;
    msg.push_back(static_cast<char>(rng.uniform(256)));
  }
}

}  // namespace
}  // namespace jenga::crypto
