// Dense copy of a ColumnSource for the test oracles.
//
// The oracles under tests/support (CoSaMP, LASSO by coordinate descent,
// forward stagewise) cross-check the library's path solvers. They stay the
// textbook algorithms over an explicit matrix, so each copies G once at the
// top of fit_path instead of being ported to correlate/column access.
#pragma once

#include <vector>

#include "core/column_source.hpp"

namespace rsm {

/// G as an explicit rows() x num_columns() matrix.
[[nodiscard]] inline Matrix materialize(const ColumnSource& source) {
  Matrix g(source.rows(), source.num_columns());
  std::vector<Real> column(static_cast<std::size_t>(source.rows()));
  for (Index j = 0; j < source.num_columns(); ++j) {
    source.column(j, column);
    g.set_col(j, column);
  }
  return g;
}

}  // namespace rsm
