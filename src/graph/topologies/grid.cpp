#include "graph/topologies/grid.hpp"

namespace dtm {

Grid::Grid(std::size_t rows_in, std::size_t cols_in)
    : rows(rows_in), cols(cols_in) {
  DTM_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  // Row of (r, c) in ascending id order: up, left, right, down.
  graph = Graph::from_rows(
      checked_node_count(rows, cols), rows > 1 || cols > 1 ? 1 : 0,
      [rows = rows, cols = cols](NodeId v) {
        const std::size_t r = Grid::row_of(cols, v), c = Grid::col_of(cols, v);
        return std::size_t{r > 0} + (c > 0) + (c + 1 < cols) +
               (r + 1 < rows);
      },
      [rows = rows, cols = cols](NodeId v, RowWriter& out) {
        const std::size_t r = Grid::row_of(cols, v), c = Grid::col_of(cols, v);
        if (r > 0) out.add(Grid::node_at(cols, r - 1, c), 1);
        if (c > 0) out.add(Grid::node_at(cols, r, c - 1), 1);
        if (c + 1 < cols) out.add(Grid::node_at(cols, r, c + 1), 1);
        if (r + 1 < rows) out.add(Grid::node_at(cols, r + 1, c), 1);
      },
      FamilyKey{TopologyKind::kGrid, {rows, cols}});
}

}  // namespace dtm
