// Degenerate LPs for the simplex tests: a cone whose apex is the starting
// vertex, so a solve begins with a long run of degenerate pivots and can
// reach the switch to Bland's rule.
#pragma once

#include <utility>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"

namespace mmwave::lp {

/// max c'x over the cone A x <= 0 within the unit box: the origin is a
/// vertex at which every row is tight, so the simplex starts with a long
/// run of degenerate pivots.
inline LpModel cone_lp(common::Rng& rng, int rows, int cols, double density) {
  LpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  for (int j = 0; j < cols; ++j)
    m.add_variable(0.0, 1.0, rng.uniform(0.5, 1.5));
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < cols; ++j) {
      if (rng.bernoulli(density))
        terms.emplace_back(j, static_cast<double>(rng.uniform_int(-3, 3)));
    }
    m.add_constraint(std::move(terms), Sense::Le, 0.0);
  }
  return m;
}

}  // namespace mmwave::lp
