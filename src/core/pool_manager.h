// Inert residue of the retired cross-solve column pool.
//
// Every solve is cold: column generation starts from the TDMA columns of
// its own instance (He & Mao, ICDCS 2017), and nothing keeps, scores,
// shares or persists columns across solves.  The end-to-end benchmark
// (perfbench/perf_e2e.cpp) still compiles against the names below, so
// they stay, doing nothing: read only by perf_e2e.cpp.  Nothing else in
// the repository may use them.
#pragma once

#include <cstdint>

#include "core/checkpoint.h"

namespace mmwave::core {

/// Read only by perfbench/perf_e2e.cpp (fleet ServerOptions::pool); the
/// cap is ignored.
struct PoolManagerOptions {
  int cap = 0;
};

/// Read only by perfbench/perf_e2e.cpp; always 0.
struct PoolManagerMetrics {
  std::int64_t seeded_columns = 0;
};

/// Read only by perfbench/perf_e2e.cpp: import keeps nothing, export
/// returns its argument and the metrics read 0.
class PoolManager {
 public:
  void import_checkpoint(const CgCheckpoint& /*checkpoint*/) {}
  CgCheckpoint export_checkpoint(const CgCheckpoint& base) const {
    return base;
  }
  PoolManagerMetrics metrics() const { return {}; }
};

}  // namespace mmwave::core
