// Single-channel SINR-feasibility and minimum-power assignment.
//
// For a set of links sharing one channel with per-link SINR targets gamma_i,
// the constraints
//     H_i P_i >= gamma_i (rho_i + sum_{j != i} H_{ji} P_j),   0 <= P <= Pmax
// form the classic power-control feasibility system P >= D (nu + F P).
// When the spectral radius of D F is < 1 the componentwise-minimal solution
// is P* = (I - D F)^{-1} D nu (Foschini–Miljanic); the set is feasible under
// the cap iff P* exists and P* <= Pmax.
//
// PowerSolver is the allocation-free kernel that answers this question for
// the pricing hot paths (the MILP skeleton's conflict discovery and the
// greedy heuristic's admission tests); min_power_assignment is a one-shot
// wrapper over it for everyone else.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mmwave/network.h"

namespace mmwave::net {

/// Minimum-power and fixed-power feasibility on one channel, with scratch
/// sized once at construction: a call allocates nothing.  Gains are read
/// through the Network on every call.  Not thread-safe: each thread (each
/// pricing call or skeleton build) owns its own solver.
class PowerSolver {
 public:
  /// Scratch for link sets of up to `capacity` links.
  PowerSolver(const Network& net, std::size_t capacity);

  const Network& network() const { return net_; }

  /// Minimum powers for `links` sharing channel `k`, where `links[i]` must
  /// meet SINR threshold `gammas[i]`: solves (I - DF) P = D nu by LU with
  /// partial pivoting (a pivot below 1e-12 means singular), accepts P in
  /// [-1e-12, Pmax (1 + 1e-9)], clips it to [0, Pmax] and re-checks every
  /// SINR against gamma (1 - 1e-7).  On true, powers() holds the clipped
  /// powers, aligned with `links`.
  bool min_power(int k, std::span<const int> links,
                 std::span<const double> gammas);

  /// Power adaptation switched off: every link transmits at Pmax and must
  /// still meet gamma (1 - 1e-9).  On true, powers() is Pmax throughout.
  bool fixed_power(int k, std::span<const int> links,
                   std::span<const double> gammas);

  /// Powers of the last call; meaningful only if it returned true.
  std::span<const double> powers() const { return {p_.data(), n_}; }

 private:
  /// True iff every listed link meets gamma (1 - slack) under powers p_.
  bool meets_sinr(int k, std::span<const int> links,
                  std::span<const double> gammas, double slack) const;

  const Network& net_;
  std::size_t capacity_;
  std::vector<double> a_;  // (I - DF), then its LU; row stride capacity_
  std::vector<double> x_;  // D nu
  std::vector<std::size_t> piv_;  // LU row permutation
  std::vector<double> p_;  // powers of the last call
  std::size_t n_ = 0;      // link count of the last call
};

struct PowerControlResult {
  bool feasible = false;
  /// Minimal powers (watts), aligned with the input link array.
  std::vector<double> powers;
};

/// Minimum-power assignment for `links` sharing channel `k`, where link
/// `links[i]` must meet SINR threshold `gammas[i]` (PowerSolver::min_power
/// with scratch of its own); O(n^3) in the active-set size.
PowerControlResult min_power_assignment(const Network& net, int k,
                                        const std::vector<int>& links,
                                        const std::vector<double>& gammas);

/// The same feasibility question answered by Foschini–Miljanic fixed-point
/// iteration with the Pmax cap (P <- min(Pmax, D(nu + F P))).  Converges to
/// the same P* when feasible; used for cross-validation and as a robust
/// fallback.  `max_iters` bounds the iteration.
PowerControlResult iterative_power_control(const Network& net, int k,
                                           const std::vector<int>& links,
                                           const std::vector<double>& gammas,
                                           int max_iters = 500,
                                           double tol = 1e-10);

/// Achieved SINR at `links[i]` when the given powers are used on channel k
/// (only the listed links transmit).
std::vector<double> achieved_sinr(const Network& net, int k,
                                  const std::vector<int>& links,
                                  const std::vector<double>& powers);

}  // namespace mmwave::net
