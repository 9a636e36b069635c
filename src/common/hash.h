// FNV-1a, 64-bit: the one content hash behind every persisted digest —
// agent-cache entry names, city trajectory digests, bench-ledger config
// fingerprints (FORMATS.md "Conventions"). Not cryptographic: it names
// and compares content, it does not authenticate it.
//
// The hash is streaming, so chaining calls through `hash` equals one
// call over the concatenated bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace edgeslice {

/// The reference 64-bit offset basis (FNV-1a of the empty input).
inline constexpr std::uint64_t kFnv1a64OffsetBasis = 14695981039346656037ull;

/// FNV-1a 64 over raw bytes, continuing from `hash`.
inline std::uint64_t fnv1a64(std::span<const std::byte> bytes,
                             std::uint64_t hash = kFnv1a64OffsetBasis) {
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 1099511628211ull;  // the reference 64-bit prime
  }
  return hash;
}

/// FNV-1a 64 over the bytes of `text`, continuing from `hash`.
inline std::uint64_t fnv1a64(std::string_view text,
                             std::uint64_t hash = kFnv1a64OffsetBasis) {
  return fnv1a64(std::as_bytes(std::span(text.data(), text.size())), hash);
}

}  // namespace edgeslice
