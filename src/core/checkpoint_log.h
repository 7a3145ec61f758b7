// The checkpoint file a long-running session saves every period.
//
// Every save() is one atomic full rewrite of the file at `path`: the state
// is serialized once and written through save_checkpoint (temp file +
// rename).  open() reads that file once.  A crash at any point leaves
// either the previous save or the new one on disk, never a mix.
//
// Contracts (enforced by tests/core/checkpoint_test.cpp and
// tools/chaos_soak):
//   * a missing file opens cold; an unreadable, corrupt or older-version
//     file opens cold with base_damaged set, and the next save() replaces
//     it;
//   * a failed save (faults::kCheckpointWriteFail, or
//     faults::kCheckpointTornWrite, which tears the temp file before the
//     rename) leaves the previous save loadable;
//   * a leftover `path + ".tmp"` is never read.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/checkpoint.h"

namespace mmwave::core {

struct CheckpointLogStats {
  /// Successful saves.
  std::int64_t saves = 0;
  /// Always 0: every save is a full rewrite.  Kept because the end-to-end
  /// benchmark (perfbench/perf_e2e.cpp) adds it to full_bytes.
  std::int64_t delta_bytes = 0;
  /// Bytes written by successful saves.
  std::int64_t full_bytes = 0;
};

/// Outcome of open().  Damage never surfaces as an error: the caller
/// always gets the best state the file supports, possibly "nothing" (cold
/// start).
struct CheckpointLogLoad {
  /// `state` holds a usable checkpoint.
  bool loaded = false;
  /// A file existed but was unreadable, corrupt or of another format
  /// version: cold start.
  bool base_damaged = false;
  /// Always 0: there is no delta chain to replay.  Kept because the
  /// end-to-end benchmark (perfbench/perf_e2e.cpp) reads it.
  int deltas_applied = 0;
  CgCheckpoint state;
};

class CheckpointLog {
 public:
  explicit CheckpointLog(std::string path) : path_(std::move(path)) {}

  /// Reads the file at path() once.  The returned state is what a
  /// recovering process resumes from.
  [[nodiscard]] CheckpointLogLoad open() const;

  /// Persists `ckpt` as one atomic full rewrite.  kIoError on write
  /// failure, after which the file still loads to the previous save.
  [[nodiscard]] common::Status save(const CgCheckpoint& ckpt);

  const CheckpointLogStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  CheckpointLogStats stats_;
};

}  // namespace mmwave::core
