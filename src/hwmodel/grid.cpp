#include "hwmodel/grid.h"

#include <stdexcept>

namespace ecad::hw {

std::string GridConfig::to_string() const {
  return std::to_string(rows) + 'x' + std::to_string(cols) + 'x' + std::to_string(vec_width) +
         " im" + std::to_string(interleave_m) + " in" + std::to_string(interleave_n);
}

void GridConfig::validate() const {
  if (rows == 0 || cols == 0 || vec_width == 0 || interleave_m == 0 || interleave_n == 0) {
    throw std::invalid_argument("GridConfig: all fields must be > 0");
  }
}

std::vector<GridConfig> enumerate_grids(const GridBounds& bounds, const FpgaDevice& device) {
  std::vector<GridConfig> grids;
  for (std::size_t rows : bounds.row_choices) {
    for (std::size_t cols : bounds.col_choices) {
      for (std::size_t vec : bounds.vec_choices) {
        for (std::size_t im : bounds.interleave_choices) {
          for (std::size_t in : bounds.interleave_choices) {
            GridConfig grid{rows, cols, vec, im, in};
            if (grid.fits(device)) grids.push_back(grid);
          }
        }
      }
    }
  }
  return grids;
}

}  // namespace ecad::hw
