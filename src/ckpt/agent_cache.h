// Content-addressed cache of trained policy networks.
//
// Bench binaries sharing a training configuration reuse each other's
// trained policies. Entries are addressed by the FNV-1a digest of a
// canonical configuration fingerprint (every knob that affects the
// trained weights, one "key = value" line each) instead of a name-mangled
// filename, so adding a knob can never silently alias two different
// configurations: the fingerprint itself is stored inside the entry and
// verified byte-for-byte on load. Entries are v1 ESCK containers holding
// one Policy section (FORMATS.md Sec. 3).
#pragma once

#include <optional>
#include <string>

#include "nn/mlp.h"

namespace edgeslice::ckpt {

/// 64-bit FNV-1a (common/hash.h) of the fingerprint text, rendered as 16
/// lowercase hex digits — the content address.
std::string fingerprint_digest(const std::string& fingerprint);

/// Path of the cache entry for `fingerprint` under `dir`:
/// "<dir>/<digest>.ckpt".
std::string cache_entry_path(const std::string& dir, const std::string& fingerprint);

/// Store `policy` for `fingerprint`, creating `dir` if needed. The entry
/// is published atomically (tmp + rename). Returns false on I/O failure.
bool store_policy(const std::string& dir, const std::string& fingerprint,
                  const nn::Mlp& policy);

/// Load the entry for `fingerprint`, or std::nullopt when none exists.
/// The stored fingerprint must match byte-for-byte (a digest collision or
/// a hand-renamed file throws std::runtime_error, as does any corruption).
std::optional<nn::Mlp> load_policy(const std::string& dir,
                                   const std::string& fingerprint);

}  // namespace edgeslice::ckpt
