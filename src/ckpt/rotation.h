// Keep-last-N rotation for period-boundary checkpoints.
//
// A long run with --checkpoint-every used to rewrite one file in place;
// rotation instead writes one container per boundary —
// "<base>.p<period>" — and prunes the oldest files only AFTER the new
// one is durably published (atomic_write_file inside CheckpointWriter:
// fsync, rename, directory fsync). The invariant that matters for crash
// safety: at every instant at least one valid checkpoint exists on disk
// once the first save has completed. A
// crash mid-save leaves the previous files untouched (the tmp never
// replaces anything); a crash mid-prune leaves extra files, never fewer.
//
// latest() scans the base's directory for rotation siblings and returns
// the newest file that actually VALIDATES (magic, version, both CRC
// levels) — a corrupt newest checkpoint (torn disk, bad sector) falls
// back to the next-newest valid one instead of failing the resume.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace edgeslice::ckpt {

class CheckpointRotation {
 public:
  /// `base_path` is the stem ("run.ckpt" -> "run.ckpt.p12"); `keep` is
  /// how many newest checkpoints survive a prune (>= 1).
  CheckpointRotation(std::string base_path, std::size_t keep);

  const std::string& base_path() const { return base_path_; }
  std::size_t keep() const { return keep_; }

  /// The rotation file name for a period boundary.
  std::string path_for(std::size_t period) const;

  /// Call after the checkpoint for `period` was successfully published.
  /// Deletes rotation siblings older than the newest `keep`, never
  /// touching `period`'s own file. Returns the number of files removed.
  std::size_t prune(std::size_t period) const;

  /// Newest rotation file that validates as an ESCK container, or
  /// nullopt when none exists. Corrupt/truncated siblings are skipped
  /// (and left in place for post-mortems).
  std::optional<std::string> latest() const;

  /// Every rotation sibling on disk, sorted by period ascending
  /// (validity not checked).
  std::vector<std::pair<std::size_t, std::string>> list() const;

 private:
  std::string base_path_;
  std::size_t keep_;
};

}  // namespace edgeslice::ckpt
