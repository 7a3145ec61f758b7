// Linear-program model container shared by the LP and MILP solvers.
//
// A model is built column-by-column (add_variable) and row-by-row
// (add_constraint); the solver consumes it read-only, so one model can be
// solved repeatedly under different variable bounds (which is exactly what
// branch & bound does).  The constraint matrix is stored by rows only:
// each solve makes its own column-wise copy (lp/simplex.cpp).  A row term
// may name a variable added later, but every column a row names must exist
// when the model is solved; the solver rejects the model otherwise.
#pragma once

#include <cassert>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace mmwave::lp {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { Le, Ge, Eq };
enum class ObjSense { Minimize, Maximize };

/// One (column index, coefficient) entry of a sparse constraint row — or,
/// in the simplex's column-wise copy, one (row index, coefficient) entry.
using Term = std::pair<int, double>;

struct Variable {
  double lb = 0.0;
  double ub = kInfinity;
  double cost = 0.0;
  std::string name;
};

struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::Le;
  double rhs = 0.0;
  std::string name;
};

class LpModel {
 public:
  /// Adds a variable and returns its column index.
  int add_variable(double lb, double ub, double cost,
                   std::string name = {}) {
    assert(lb <= ub);
    variables_.push_back({lb, ub, cost, std::move(name)});
    return static_cast<int>(variables_.size()) - 1;
  }

  /// Adds a constraint and returns its row index.  Duplicate column indices
  /// within `terms` are summed by the solver.
  int add_constraint(std::vector<Term> terms, Sense sense, double rhs,
                     std::string name = {}) {
    constraints_.push_back({std::move(terms), sense, rhs, std::move(name)});
    return static_cast<int>(constraints_.size()) - 1;
  }

  /// Appends one term to an existing constraint row.  This is the
  /// incremental-growth hook: the column-generation master appends a
  /// variable and extends the rows it covers in place instead of rebuilding
  /// the whole model each iteration.
  void add_term(int row, int col, double coef) {
    assert(row >= 0 && row < num_constraints());
    assert(col >= 0 && col < num_variables());
    constraints_[row].terms.emplace_back(col, coef);
  }

  void set_objective_sense(ObjSense sense) { obj_sense_ = sense; }
  ObjSense objective_sense() const { return obj_sense_; }

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  const Variable& variable(int j) const { return variables_[j]; }
  Variable& variable(int j) { return variables_[j]; }
  const Constraint& constraint(int i) const { return constraints_[i]; }

  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  ObjSense obj_sense_ = ObjSense::Minimize;
};

}  // namespace mmwave::lp
