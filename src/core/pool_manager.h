// Cross-period, cross-instance column-pool lifecycle management.
//
// Columns are feasible P1 schedules (He & Mao, ICDCS 2017): once priced,
// a column stays warm-start capital for every nearby network state — the
// next GoP period, the same topology with two receivers blocked, a
// re-scaled demand vector.  Before this subsystem the pool grew without
// bound and each resolve could only seed from the immediately previous
// period.  PoolManager owns that capital:
//
//   * an eviction policy with a configurable size cap.  Columns are scored
//     by last-basis-entry recency plus (rc-hybrid policy) the reduced cost
//     last observed for them; the worst-scored columns are evicted first.
//     Columns in the CURRENT master basis (tau > 0 in the most recent
//     store) are never evicted, even if that holds the pool above cap —
//     the incumbent plan must stay reconstructible.
//   * a multi-instance index keyed by the existing checkpoint instance
//     fingerprint, with a feature-vector distance over (gains, ladder,
//     demands), so a resolve seeds repair from the nearest neighbours'
//     surviving columns, not just the previous period.
//
// Invariants (enforced by tests/core/pool_manager_test.cpp):
//   * eviction never removes a current-basis column, under any cap, any
//     policy, and the pool.evict_wrong_column fault;
//   * the managed pool only ever contains feasible-when-stored columns, so
//     resolve(perturbed) through a manager matches cold_solve(perturbed) to
//     1e-7 — capping the pool costs speed, never correctness;
//   * eviction order is a pure function of the operation sequence:
//     deterministic for a fixed seed and independent of --threads=N.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "core/column_generation.h"
#include "mmwave/network.h"
#include "sched/schedule.h"
#include "video/demand.h"

namespace mmwave::core {

enum class PoolPolicy {
  /// Evict the column whose last basis entry is oldest (pure recency).
  kLru,
  /// Recency + last observed reduced cost: a stale column that still priced
  /// near zero (was competitive) outlives a stale column that priced badly.
  kRcHybrid,
};

const char* to_string(PoolPolicy policy);

/// Parses "lru" | "rc-hybrid" (the --pool-policy CLI values).  Anything
/// else is a structured kInvalidInput naming the accepted spellings.
[[nodiscard]] common::Expected<PoolPolicy> parse_pool_policy(
    std::string_view text);

struct PoolManagerOptions {
  /// Maximum columns retained across ALL instances; 0 = unbounded.  The cap
  /// is best-effort downwards: current-basis columns are never evicted, so
  /// a cap below the basis size leaves the pool at the basis size.
  int cap = 0;
  PoolPolicy policy = PoolPolicy::kRcHybrid;
  /// rc-hybrid: eviction penalty = age_epochs + rc_weight * rc/(1+rc).
  /// Larger values make reduced cost dominate recency.
  double rc_weight = 4.0;
  /// seed() consults at most this many nearest instance entries.
  int max_neighbours = 3;

  // --- Adaptive cap -----------------------------------------------------
  /// Let the cap float between [min_cap, max_cap] from observed solve
  /// feedback (observe()): a high warm-start hit rate under an affordable
  /// master-LP time grows the cap (the pool is earning its keep), a low hit
  /// rate or an over-budget master shrinks it (stale columns are dead
  /// weight the master still pays to carry).  `cap` is the starting point;
  /// with adaptive off it stays the fixed cap as before.
  bool adaptive = false;
  int min_cap = 8;
  /// 0 = no upper bound on adaptive growth.
  int max_cap = 0;
  /// Grow when hit rate >= grow_hit_rate AND master time <= budget.
  double grow_hit_rate = 0.85;
  /// Shrink when hit rate < shrink_hit_rate OR master time > budget.
  double shrink_hit_rate = 0.5;
  /// Master-LP wall-clock budget per observed solve, seconds.
  double master_seconds_budget = 0.05;
};

// PoolColumnMeta (the per-column lifecycle record this manager scores and
// evicts on) lives in core/checkpoint.h: the checkpoint persists it per
// column.

/// Cheap summary of a problem instance for the fingerprint-distance metric:
/// the exact fingerprint (identity) plus a feature vector over the direct
/// gains, the SINR ladder and the demand vector (similarity).
struct InstanceSignature {
  std::uint64_t fingerprint = 0;
  int links = 0;
  int channels = 0;
  /// Per-link best-channel direct gain (log10), then the ladder thresholds,
  /// then per-link demand totals — aligned dimensions for the L2 distance.
  std::vector<double> features;
};

InstanceSignature make_signature(const net::Network& net,
                                 const std::vector<video::LinkDemand>& demands);

/// Mean squared distance between feature vectors; 0 for identical
/// fingerprints, +infinity when the dimensions differ (never comparable).
double signature_distance(const InstanceSignature& a,
                          const InstanceSignature& b);

/// Cumulative lifecycle accounting (explicit reset via reset_metrics()).
struct PoolManagerMetrics {
  std::int64_t stores = 0;          ///< store() calls (one per solved period)
  std::int64_t seed_calls = 0;      ///< seed() calls
  std::int64_t seeded_columns = 0;  ///< columns handed out by seed()
  /// Seeded columns that came from a neighbour instance (fingerprint other
  /// than the queried one) — the multi-instance sharing payoff.
  std::int64_t neighbour_seeded = 0;
  std::int64_t evicted = 0;         ///< columns removed by the cap policy
  std::int64_t cap_grown = 0;       ///< adaptive-cap growth steps applied
  std::int64_t cap_shrunk = 0;      ///< adaptive-cap shrink steps applied
};

class PoolManager {
 public:
  struct Entry {
    sched::Schedule column;
    double tau = 0.0;  ///< tau in the master solution it was stored from
    PoolColumnMeta meta;
  };

  explicit PoolManager(PoolManagerOptions options = {});

  /// Warm-start candidates for `signature`'s instance: the columns of the
  /// `max_neighbours` nearest known instances (the queried instance itself
  /// first when known), nearest neighbour first, de-duplicated by schedule
  /// key, insertion order within a neighbour.  The caller still repairs
  /// every candidate against the actual network before the master sees it.
  std::vector<sched::Schedule> seed(const InstanceSignature& signature);

  /// Ingests one finished solve on `signature`'s instance: every pool
  /// column of `result` enters (or refreshes) the pool with fresh scores,
  /// the previous basis protection moves to this result's basis, and the
  /// eviction policy trims back to the cap.
  void store(const InstanceSignature& signature, const net::Network& net,
             const CgResult& result);

  /// Loads a checkpointed pool (columns + metadata; a degraded metadata
  /// section defaults to cold scores with basis from pool_tau).
  void import_checkpoint(const CgCheckpoint& checkpoint);

  /// `base` with its pool/pool_tau/pool_meta replaced by the managed pool
  /// (e.g. to re-save a capped checkpoint).  Other fields are untouched.
  CgCheckpoint export_checkpoint(const CgCheckpoint& base) const;

  /// Applies this manager's eviction policy to a checkpoint in place,
  /// without touching the manager: the `solve --pool-cap` save path.
  void trim_checkpoint(CgCheckpoint* checkpoint) const;

  /// Feeds one finished solve's warm-start hit rate and master-LP seconds
  /// into the adaptive-cap controller (no-op unless options().adaptive).
  /// The new cap takes effect immediately: a shrink evicts down right away.
  /// Non-finite inputs are ignored (a degraded solve must not move the cap).
  void observe(double warm_hit_rate, double master_seconds);

  /// The cap currently in force: the adaptive cap when adaptive, the fixed
  /// options().cap otherwise (0 = unbounded).
  int effective_cap() const {
    return options_.adaptive ? adaptive_cap_ : options_.cap;
  }

  int size() const { return static_cast<int>(entries_.size()); }
  const std::vector<Entry>& entries() const { return entries_; }
  const PoolManagerOptions& options() const { return options_; }
  const PoolManagerMetrics& metrics() const { return metrics_; }
  void reset_metrics() { metrics_ = {}; }

 private:
  /// Eviction penalty (higher = evicted sooner) for `meta` at `now`.
  double penalty(const PoolColumnMeta& meta, std::int64_t now) const;
  /// Trims `entries` to the cap under this manager's policy at epoch `now`,
  /// returning how many columns were evicted.  Static-shaped so
  /// trim_checkpoint can reuse it on foreign pools.
  std::int64_t evict(std::vector<Entry>& entries, std::int64_t now) const;

  PoolManagerOptions options_;
  /// Current adaptive cap (observe() moves it within [min_cap, max_cap]).
  int adaptive_cap_ = 0;
  std::vector<Entry> entries_;  ///< insertion order (deterministic ties)
  /// Known instance signatures, most recent store epoch per fingerprint.
  struct KnownInstance {
    InstanceSignature signature;
    std::int64_t last_epoch = 0;
  };
  std::vector<KnownInstance> instances_;
  std::int64_t epoch_ = 0;
  PoolManagerMetrics metrics_;
};

}  // namespace mmwave::core
