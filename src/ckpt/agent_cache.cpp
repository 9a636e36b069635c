#include "ckpt/agent_cache.h"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "ckpt/container.h"
#include "common/hash.h"

namespace edgeslice::ckpt {

std::string fingerprint_digest(const std::string& fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(fingerprint)));
  return std::string(hex, 16);
}

std::string cache_entry_path(const std::string& dir, const std::string& fingerprint) {
  return (std::filesystem::path(dir) / (fingerprint_digest(fingerprint) + ".ckpt"))
      .string();
}

bool store_policy(const std::string& dir, const std::string& fingerprint,
                  const nn::Mlp& policy) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ostringstream payload;
  policy.save_binary(payload);
  CheckpointWriter writer(fingerprint);
  writer.add_section(SectionKind::Policy, 0, payload.str());
  return writer.write_file(cache_entry_path(dir, fingerprint));
}

std::optional<nn::Mlp> load_policy(const std::string& dir,
                                   const std::string& fingerprint) {
  const std::string path = cache_entry_path(dir, fingerprint);
  if (!std::filesystem::exists(path)) return std::nullopt;
  const CheckpointReader reader = CheckpointReader::from_file(path);
  if (reader.fingerprint() != fingerprint) {
    throw std::runtime_error("agent cache: fingerprint mismatch in " + path +
                             " (digest collision or renamed entry)");
  }
  std::istringstream payload(reader.require(SectionKind::Policy));
  return nn::Mlp::load_binary(payload);
}

}  // namespace edgeslice::ckpt
