#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_blocks.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define JENGA_SHA256_X86 1
#endif

namespace jenga::crypto {
namespace detail {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef JENGA_SHA256_X86
// Intel SHA extensions.  The round instructions keep the working variables as
// two lanes, ABEF and CDGH; each SHA256RNDS2 runs two rounds, so one 4-word
// message group drives two of them.  Message words w[16..63] come from
// SHA256MSG1/MSG2 over a rolling window of four groups.
__attribute__((target("sha,sse4.1"))) void blocks_shani(std::uint32_t state[8],
                                                       const std::uint8_t* data,
                                                       std::size_t nblocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = m[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), byte_swap);
      }
      __m128i wk =
          _mm_add_epi32(cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        __m128i& next = m[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g < 13) {
        __m128i& prev = m[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

}  // namespace

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256BlocksFn sha256_blocks_shani() {
#ifdef JENGA_SHA256_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) return blocks_shani;
#endif
  return nullptr;
}

}  // namespace detail

namespace {

/// SHA-NI where the CPU has it, else portable; chosen once per process.
detail::Sha256BlocksFn compress_blocks() {
  static const detail::Sha256BlocksFn chosen = [] {
    const detail::Sha256BlocksFn fast = detail::sha256_blocks_shani();
    return fast != nullptr ? fast : detail::sha256_blocks_portable;
  }();
  return chosen;
}

}  // namespace

void Sha256::reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      compress_blocks()(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t full = (data.size() - offset) / 64; full > 0) {
    compress_blocks()(state_, data.data() + offset, full);
    offset += full * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Sha256& Sha256::update_u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return update(std::span<const std::uint8_t>(b, 8));
}

Hash256 Sha256::finish() {
  const detail::Sha256BlocksFn blocks = compress_blocks();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    // No room for the length: pad out this block and start another.
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    blocks(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_count_ >> (56 - 8 * i));
  blocks(state_, buffer_, 1);
  buffer_len_ = 0;

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Hash256 sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Hash256 sha256(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

Hash256 sha256_tagged(std::string_view tag, std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(tag);
  h.update(data);
  return h.finish();
}

}  // namespace jenga::crypto
