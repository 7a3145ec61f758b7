// Warm re-solve from a checkpoint of the same instance.
//
// A checkpoint seeds the solve only when its fingerprint
// (instance_fingerprint: dimensions, parameters, rate ladder, every gain,
// the demands) equals the current instance's — `solve --resume` after a
// crash, or `resolve` under the blockage its checkpoint was last
// `--update`d with.  Every pooled column then passes the independent
// check::ScheduleVerifier first: a matching fingerprint and checksum prove
// the file holds the bytes that were written, not that its columns are
// feasible.  A rejected column is dropped, never repaired.
//
// Any other checkpoint (blocked links, faded gains, new demands, other
// dimensions, an unreadable file) seeds nothing: the result is exactly
// solve_column_generation() on the current instance.  Repairing a stale
// pool against a perturbed instance lost to that cold solve on time and
// never gave a better incumbent (DESIGN.md §8.4).
//
// Seeded columns are feasible P1 columns, which cannot change the optimum,
// so a warm resolve certifies the optimum a cold solve reaches, just
// faster (tests/core/resolve_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "core/column_generation.h"
#include "mmwave/network.h"
#include "video/demand.h"

namespace mmwave::core {

struct ResolveResult {
  /// The (warm or cold) column-generation outcome on the current instance.
  CgResult cg;
  /// True when the checkpoint matched the instance and its verified columns
  /// were seeded (CgProfile::warm_pool_columns counts the ones admitted).
  bool used_checkpoint = false;
  /// Ok when the checkpoint was used; otherwise why the solve ran cold
  /// (load failure, or a checkpoint of another instance).
  common::Status checkpoint_status;
};

/// Seeds `checkpoint`'s verified columns into column generation on (`net`,
/// `demands`) when its fingerprint matches them, and solves cold
/// otherwise.  Never fails outright.
ResolveResult resolve(const net::Network& net,
                      const std::vector<video::LinkDemand>& demands,
                      const CgCheckpoint& checkpoint,
                      const CgOptions& cg_options = {});

/// load_checkpoint + resolve; a missing, corrupt or older-version file
/// degrades to the cold solve.
ResolveResult resolve_from_file(const std::string& path,
                                const net::Network& net,
                                const std::vector<video::LinkDemand>& demands,
                                const CgOptions& cg_options = {});

}  // namespace mmwave::core
