// SHA-256 compression functions behind crypto/sha256.hpp (private header).
//
// Two implementations of the same FIPS 180-4 compression: a portable one and
// one on the x86 SHA extensions (SHA-NI).  Sha256 picks one once per process
// from the CPU's feature bits; both are exposed here so tests can check them
// against each other and against the NIST vectors on any host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jenga::crypto::detail {

/// Compresses `nblocks` consecutive 64-byte blocks into `state`.
using Sha256BlocksFn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                                std::size_t nblocks);

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);

/// The SHA-NI implementation; null when the build target is not x86 or the
/// CPU lacks SHA-NI / SSE4.1.  Sha256 uses it whenever it is non-null.
[[nodiscard]] Sha256BlocksFn sha256_blocks_shani();

}  // namespace jenga::crypto::detail
