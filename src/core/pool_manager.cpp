#include "core/pool_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/log.h"

namespace mmwave::core {

const char* to_string(PoolPolicy policy) {
  switch (policy) {
    case PoolPolicy::kLru:
      return "lru";
    case PoolPolicy::kRcHybrid:
      return "rc-hybrid";
  }
  return "?";
}

[[nodiscard]] common::Expected<PoolPolicy> parse_pool_policy(
    std::string_view text) {
  if (text == "lru") return PoolPolicy::kLru;
  if (text == "rc-hybrid") return PoolPolicy::kRcHybrid;
  return common::Status::Error(
      common::ErrorCode::kInvalidInput,
      "pool policy: expected lru|rc-hybrid, got '" + std::string(text) + "'");
}

InstanceSignature make_signature(
    const net::Network& net, const std::vector<video::LinkDemand>& demands) {
  InstanceSignature sig;
  sig.fingerprint = instance_fingerprint(net, demands);
  sig.links = net.num_links();
  sig.channels = net.num_channels();
  sig.features.reserve(static_cast<std::size_t>(net.num_links()) * 2 +
                       net.num_rate_levels());
  // Per-link best-channel direct gain in log10: blockage is a multiplicative
  // attenuation, so nearby blockage states differ by a few dB here and far
  // states by tens — exactly the geometry the distance metric should see.
  for (int l = 0; l < net.num_links(); ++l) {
    double best = 0.0;
    for (int k = 0; k < net.num_channels(); ++k)
      best = std::max(best, net.direct_gain(l, k));
    sig.features.push_back(best > 0.0 ? std::log10(best) : -300.0);
  }
  for (int q = 0; q < net.num_rate_levels(); ++q)
    sig.features.push_back(net.rate_level(q).sinr_threshold);
  // Demands in log-ish scale so one heavy GoP does not drown the gains.
  for (const video::LinkDemand& d : demands)
    sig.features.push_back(std::log1p(std::max(0.0, d.total())));
  return sig;
}

double signature_distance(const InstanceSignature& a,
                          const InstanceSignature& b) {
  if (a.links != b.links || a.channels != b.channels ||
      a.features.size() != b.features.size()) {
    return std::numeric_limits<double>::infinity();
  }
  if (a.fingerprint == b.fingerprint) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    const double d = a.features[i] - b.features[i];
    sum += d * d;
  }
  return a.features.empty() ? 0.0
                            : sum / static_cast<double>(a.features.size());
}

PoolManager::PoolManager(PoolManagerOptions options)
    : options_(std::move(options)) {
  if (options_.adaptive) {
    options_.min_cap = std::max(1, options_.min_cap);
    if (options_.max_cap > 0)
      options_.max_cap = std::max(options_.max_cap, options_.min_cap);
    adaptive_cap_ = options_.cap > 0 ? options_.cap : options_.min_cap;
    adaptive_cap_ = std::max(adaptive_cap_, options_.min_cap);
    if (options_.max_cap > 0)
      adaptive_cap_ = std::min(adaptive_cap_, options_.max_cap);
  }
}

void PoolManager::observe(double warm_hit_rate, double master_seconds) {
  if (!options_.adaptive) return;
  if (!std::isfinite(warm_hit_rate) || !std::isfinite(master_seconds)) return;
  // Multiplicative-ish steps (a quarter of the current cap) so the cap
  // converges in a handful of periods from any starting point, while a
  // single noisy observation can never move it far.
  const int step = std::max(1, adaptive_cap_ / 4);
  int next = adaptive_cap_;
  const bool over_budget = master_seconds > options_.master_seconds_budget;
  if (warm_hit_rate < options_.shrink_hit_rate || over_budget) {
    next -= step;
  } else if (warm_hit_rate >= options_.grow_hit_rate && !over_budget) {
    next += step;
  }
  next = std::max(next, options_.min_cap);
  if (options_.max_cap > 0) next = std::min(next, options_.max_cap);
  if (next == adaptive_cap_) return;
  if (next > adaptive_cap_) {
    ++metrics_.cap_grown;
  } else {
    ++metrics_.cap_shrunk;
  }
  adaptive_cap_ = next;
  // A shrink takes effect now, not at the next store().
  metrics_.evicted += evict(entries_, epoch_);
}

double PoolManager::penalty(const PoolColumnMeta& meta,
                            std::int64_t now) const {
  const double age =
      static_cast<double>(std::max<std::int64_t>(0, now - meta.last_used_epoch));
  if (options_.policy == PoolPolicy::kLru) return age;
  // rc-hybrid: reduced cost >= 0 at an optimum; squash it into [0, 1) so a
  // badly-priced column costs at most `rc_weight` epochs of seniority.
  const double rc = std::max(0.0, meta.last_reduced_cost);
  return age + options_.rc_weight * (rc / (1.0 + rc));
}

std::int64_t PoolManager::evict(std::vector<Entry>& entries,
                                std::int64_t now) const {
  const int cap = effective_cap();
  if (cap <= 0) return 0;
  std::int64_t evicted = 0;
  while (static_cast<int>(entries.size()) > cap) {
    // Deterministic victim selection: scan in insertion order, keep the
    // strictly-worst penalty (ties resolve to the oldest entry).  Basis
    // columns are never candidates, even if that pins the pool above cap.
    int victim = -1;
    double worst = -1.0;
    int best = -1;
    double best_penalty = std::numeric_limits<double>::infinity();
    for (int i = 0; i < static_cast<int>(entries.size()); ++i) {
      if (entries[i].meta.in_basis) continue;
      const double p = penalty(entries[i].meta, now);
      if (p > worst) {
        worst = p;
        victim = i;
      }
      if (p < best_penalty) {
        best_penalty = p;
        best = i;
      }
    }
    if (victim < 0) break;  // only basis columns remain
    // Scripted mis-eviction: the policy picks the most valuable non-basis
    // column instead of the least.  The basis stays protected regardless.
    if (common::fault_fires(common::faults::kPoolEvictWrongColumn)) {
      victim = best;
    }
    entries.erase(entries.begin() + victim);
    ++evicted;
  }
  return evicted;
}

std::vector<sched::Schedule> PoolManager::seed(
    const InstanceSignature& signature) {
  ++metrics_.seed_calls;
  if (entries_.empty() || instances_.empty()) return {};

  // Rank known instances by distance; the exact fingerprint (distance 0)
  // naturally sorts first.  Ties (e.g. two identical past states) resolve
  // by most recent store, then insertion order — all deterministic.
  struct Ranked {
    double distance;
    std::int64_t last_epoch;
    int index;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(instances_.size());
  for (int i = 0; i < static_cast<int>(instances_.size()); ++i) {
    const double d = signature_distance(signature, instances_[i].signature);
    if (!std::isfinite(d)) continue;  // incompatible dimensions
    ranked.push_back({d, instances_[i].last_epoch, i});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    if (a.last_epoch != b.last_epoch) return a.last_epoch > b.last_epoch;
    return a.index < b.index;
  });
  const int neighbours =
      std::min<int>(std::max(1, options_.max_neighbours),
                    static_cast<int>(ranked.size()));

  std::vector<sched::Schedule> out;
  std::unordered_set<std::string> seen;
  for (int n = 0; n < neighbours; ++n) {
    const std::uint64_t fp =
        instances_[ranked[n].index].signature.fingerprint;
    const bool is_neighbour = fp != signature.fingerprint;
    for (const Entry& e : entries_) {
      if (e.meta.fingerprint != fp) continue;
      if (!seen.insert(e.column.key()).second) continue;
      out.push_back(e.column);
      ++metrics_.seeded_columns;
      if (is_neighbour) ++metrics_.neighbour_seeded;
    }
  }
  return out;
}

void PoolManager::store(const InstanceSignature& signature,
                        const net::Network& net, const CgResult& result) {
  ++epoch_;
  ++metrics_.stores;

  // This result's basis is now THE current basis: the previous protection
  // lapses before the new pool merges in.
  for (Entry& e : entries_) e.meta.in_basis = false;

  const std::vector<PoolColumnMeta> scored =
      score_pool(net, result, signature.fingerprint, epoch_);
  std::unordered_map<std::string, int> by_key;
  by_key.reserve(entries_.size());
  for (int i = 0; i < static_cast<int>(entries_.size()); ++i)
    by_key.emplace(entries_[i].column.key(), i);

  for (std::size_t s = 0; s < result.pool.size(); ++s) {
    const double tau =
        s < result.pool_tau.size() ? result.pool_tau[s] : 0.0;
    const auto it = by_key.find(result.pool[s].key());
    if (it != by_key.end()) {
      // Known column: refresh its lifecycle record (a column re-proving
      // itself on a new instance migrates to that instance's fingerprint).
      Entry& e = entries_[it->second];
      e.tau = tau;
      e.meta = scored[s];
    } else {
      Entry e;
      e.column = result.pool[s];
      e.tau = tau;
      e.meta = scored[s];
      by_key.emplace(e.column.key(), static_cast<int>(entries_.size()));
      entries_.push_back(std::move(e));
    }
  }

  // Refresh the instance index.
  bool known = false;
  for (KnownInstance& inst : instances_) {
    if (inst.signature.fingerprint == signature.fingerprint) {
      inst.signature = signature;  // demands may differ at equal fingerprint
      inst.last_epoch = epoch_;
      known = true;
      break;
    }
  }
  if (!known) instances_.push_back({signature, epoch_});

  metrics_.evicted += evict(entries_, epoch_);

  // Drop index entries for instances whose columns were all evicted (the
  // signature alone is no seed capital and would distort neighbour ranks).
  std::unordered_set<std::uint64_t> live;
  live.reserve(entries_.size());
  for (const Entry& e : entries_) live.insert(e.meta.fingerprint);
  instances_.erase(
      std::remove_if(instances_.begin(), instances_.end(),
                     [&](const KnownInstance& inst) {
                       return live.count(inst.signature.fingerprint) == 0;
                     }),
      instances_.end());
}

void PoolManager::import_checkpoint(const CgCheckpoint& checkpoint) {
  const bool have_meta =
      checkpoint.pool_meta.size() == checkpoint.pool.size();
  std::unordered_map<std::string, int> by_key;
  by_key.reserve(entries_.size());
  for (int i = 0; i < static_cast<int>(entries_.size()); ++i)
    by_key.emplace(entries_[i].column.key(), i);
  for (std::size_t s = 0; s < checkpoint.pool.size(); ++s) {
    Entry e;
    e.column = checkpoint.pool[s];
    e.tau = s < checkpoint.pool_tau.size() ? checkpoint.pool_tau[s] : 0.0;
    if (have_meta) {
      e.meta = checkpoint.pool_meta[s];
    } else {
      // Cold metadata (degraded metadata section): identity from the
      // checkpoint header, basis from tau, age/rc unknown.
      e.meta.fingerprint = checkpoint.fingerprint;
      e.meta.last_used_epoch = 0;
      e.meta.last_reduced_cost = 0.0;
      e.meta.in_basis = e.tau > 0.0;
    }
    const auto it = by_key.find(e.column.key());
    if (it != by_key.end()) {
      entries_[it->second] = std::move(e);
    } else {
      by_key.emplace(e.column.key(), static_cast<int>(entries_.size()));
      entries_.push_back(std::move(e));
    }
  }
  // Cross-instance state: advance the epoch clock so restored recency
  // values stay meaningful, then merge the persisted neighbour index (by
  // fingerprint: refresh known instances, append unknown ones in saved
  // order so seeding stays deterministic).
  if (checkpoint.pool_epoch > epoch_) epoch_ = checkpoint.pool_epoch;
  for (const PoolIndexEntry& e : checkpoint.pool_index) {
    bool merged = false;
    for (KnownInstance& inst : instances_) {
      if (inst.signature.fingerprint != e.fingerprint) continue;
      if (e.last_epoch > inst.last_epoch) inst.last_epoch = e.last_epoch;
      if (inst.signature.features.empty() && !e.features.empty()) {
        inst.signature.links = e.links;
        inst.signature.channels = e.channels;
        inst.signature.features = e.features;
      }
      merged = true;
      break;
    }
    if (merged) continue;
    InstanceSignature sig;
    sig.fingerprint = e.fingerprint;
    sig.links = e.links;
    sig.channels = e.channels;
    sig.features = e.features;
    instances_.push_back({std::move(sig), e.last_epoch});
  }
  bool known = false;
  for (const KnownInstance& inst : instances_)
    known = known || inst.signature.fingerprint == checkpoint.fingerprint;
  if (!known && !checkpoint.pool.empty()) {
    InstanceSignature sig;  // featureless: identity only, until a store()
    sig.fingerprint = checkpoint.fingerprint;
    sig.links = checkpoint.links;
    sig.channels = checkpoint.channels;
    instances_.push_back({std::move(sig), epoch_});
  }
  metrics_.evicted += evict(entries_, epoch_);
}

CgCheckpoint PoolManager::export_checkpoint(const CgCheckpoint& base) const {
  CgCheckpoint out = base;
  out.pool.clear();
  out.pool_tau.clear();
  out.pool_meta.clear();
  out.pool_meta_degraded = false;
  out.pool.reserve(entries_.size());
  for (const Entry& e : entries_) {
    out.pool.push_back(e.column);
    out.pool_tau.push_back(e.tau);
    out.pool_meta.push_back(e.meta);
  }
  // Persist the manager's cross-instance state so a restarted
  // process recovers neighbour seeding and recency scoring, not just one
  // instance's columns.
  out.pool_epoch = epoch_;
  out.pool_index.clear();
  out.pool_index.reserve(instances_.size());
  for (const KnownInstance& inst : instances_) {
    PoolIndexEntry e;
    e.fingerprint = inst.signature.fingerprint;
    e.links = inst.signature.links;
    e.channels = inst.signature.channels;
    e.last_epoch = inst.last_epoch;
    e.features = inst.signature.features;
    out.pool_index.push_back(std::move(e));
  }
  out.pool_index_degraded = false;
  return out;
}

void PoolManager::trim_checkpoint(CgCheckpoint* checkpoint) const {
  if (effective_cap() <= 0) return;
  std::vector<Entry> entries;
  entries.reserve(checkpoint->pool.size());
  const bool have_meta =
      checkpoint->pool_meta.size() == checkpoint->pool.size();
  for (std::size_t s = 0; s < checkpoint->pool.size(); ++s) {
    Entry e;
    e.column = checkpoint->pool[s];
    e.tau = s < checkpoint->pool_tau.size() ? checkpoint->pool_tau[s] : 0.0;
    if (have_meta) {
      e.meta = checkpoint->pool_meta[s];
    } else {
      e.meta.fingerprint = checkpoint->fingerprint;
      e.meta.in_basis = e.tau > 0.0;
    }
    entries.push_back(std::move(e));
  }
  const std::int64_t evicted = evict(entries, epoch_);
  if (evicted > 0) {
    MMWAVE_LOG_INFO << "pool: checkpoint trimmed by " << evicted
                    << " column(s) to cap " << effective_cap() << " ("
                    << to_string(options_.policy) << ")";
  }
  checkpoint->pool.clear();
  checkpoint->pool_tau.clear();
  checkpoint->pool_meta.clear();
  for (const Entry& e : entries) {
    checkpoint->pool.push_back(e.column);
    checkpoint->pool_tau.push_back(e.tau);
    checkpoint->pool_meta.push_back(e.meta);
  }
}

}  // namespace mmwave::core
