#include "graph/topologies/grid.hpp"

namespace dtm {

Grid::Grid(std::size_t rows_in, std::size_t cols_in)
    : rows(rows_in), cols(cols_in) {
  DTM_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  // Row of (r, c) in ascending id order: up, left, right, down.
  graph = Graph::from_rows(
      checked_node_count(rows, cols),
      [&](NodeId v) {
        const std::size_t r = row_of(v), c = col_of(v);
        return std::size_t{r > 0} + (c > 0) + (c + 1 < cols) +
               (r + 1 < rows);
      },
      [&](NodeId v, RowWriter& out) {
        const std::size_t r = row_of(v), c = col_of(v);
        if (r > 0) out.add(node_at(r - 1, c), 1);
        if (c > 0) out.add(node_at(r, c - 1), 1);
        if (c + 1 < cols) out.add(node_at(r, c + 1), 1);
        if (r + 1 < rows) out.add(node_at(r + 1, c), 1);
      });
}

}  // namespace dtm
