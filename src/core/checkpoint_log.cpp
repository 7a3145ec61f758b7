#include "core/checkpoint_log.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "common/log.h"

namespace mmwave::core {

CheckpointLogLoad CheckpointLog::open() const {
  CheckpointLogLoad r;
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec) && !ec) return r;  // fresh start
  auto loaded = load_checkpoint(path_);
  if (!loaded.ok()) {
    r.base_damaged = true;
    MMWAVE_LOG_WARN << "checkpoint log '" << path_ << "': unusable ("
                    << loaded.status().message() << "); cold start";
    return r;
  }
  r.loaded = true;
  r.state = std::move(loaded.value());
  return r;
}

[[nodiscard]] common::Status CheckpointLog::save(const CgCheckpoint& ckpt) {
  std::int64_t bytes = 0;
  const common::Status st = save_checkpoint(ckpt, path_, &bytes);
  if (st.ok()) {
    ++stats_.saves;
    stats_.full_bytes += bytes;
  }
  return st;
}

}  // namespace mmwave::core
