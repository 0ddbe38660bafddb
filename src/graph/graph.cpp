#include "graph/graph.hpp"

#include <algorithm>

namespace dtm {

GraphBuilder::GraphBuilder(std::size_t num_nodes) : num_nodes_(num_nodes) {
  DTM_REQUIRE(num_nodes > 0, "graph must have at least one node");
  DTM_REQUIRE(num_nodes < kInvalidNode, "too many nodes");
}

void GraphBuilder::add_edge(NodeId u, NodeId v, Weight weight) {
  DTM_REQUIRE(u < num_nodes_ && v < num_nodes_,
              "edge endpoint out of range: {" << u << ',' << v << "} with "
                                              << num_nodes_ << " nodes");
  DTM_REQUIRE(u != v, "self-loops are not allowed (node " << u << ")");
  DTM_REQUIRE(weight > 0, "edge weight must be positive, got " << weight);
  edges_.push_back({u, v, weight});
}

Graph GraphBuilder::build() const {
  Graph g = Graph::with_node_count(num_nodes_);
  for (const Edge& e : edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i <= num_nodes_; ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.arcs_.resize(edges_.size() * 2);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges_) {
    g.arcs_[cursor[e.u]++] = {e.v, e.weight};
    g.arcs_[cursor[e.v]++] = {e.u, e.weight};
    g.unit_weights_ = g.unit_weights_ && e.weight == 1;
    g.max_weight_ = std::max(g.max_weight_, e.weight);
  }
  for (NodeId u = 0; u < num_nodes_; ++u) {
    auto begin = g.arcs_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u]);
    auto end = g.arcs_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u + 1]);
    std::sort(begin, end, [](const Arc& a, const Arc& b) {
      return a.to != b.to ? a.to < b.to : a.weight < b.weight;
    });
  }
  return g;
}

std::size_t checked_node_count(std::size_t a, std::size_t b) {
  DTM_REQUIRE(b == 0 || a <= (kInvalidNode - 1) / b,
              "too many nodes: " << a << " x " << b);
  return a * b;
}

Graph Graph::with_node_count(std::size_t num_nodes) {
  DTM_REQUIRE(num_nodes > 0, "graph must have at least one node");
  DTM_REQUIRE(num_nodes < kInvalidNode, "too many nodes");
  Graph g;
  g.offsets_.assign(num_nodes + 1, 0);
  return g;
}

void Graph::check_row(NodeId u) {
  const Arc* begin = arcs_.data() + offsets_[u];
  const Arc* end = arcs_.data() + arcs_.size();
  DTM_REQUIRE(arcs_.size() == offsets_[u + 1],
              "node " << u << " wrote " << (end - begin) << " arcs, degree "
                      << offsets_[u + 1] - offsets_[u]);
  const std::size_t n = num_nodes();
  for (const Arc* a = begin; a != end; ++a) {
    DTM_REQUIRE(a->to < n, "edge endpoint out of range: {"
                               << u << ',' << a->to << "} with " << n
                               << " nodes");
    DTM_REQUIRE(a->to != u, "self-loops are not allowed (node " << u << ")");
    DTM_REQUIRE(a->weight > 0,
                "edge weight must be positive, got " << a->weight);
    DTM_REQUIRE(a == begin || a[-1].to < a->to ||
                    (a[-1].to == a->to && a[-1].weight <= a->weight),
                "row of node " << u << " is not sorted by (to, weight)");
    unit_weights_ = unit_weights_ && a->weight == 1;
    max_weight_ = std::max(max_weight_, a->weight);
  }
}

bool Graph::connected() const {
  const std::size_t n = num_nodes();
  if (n == 0) return true;
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack = {0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (const Arc& a : neighbors(u)) {
      if (!seen[a.to]) {
        seen[a.to] = 1;
        ++visited;
        stack.push_back(a.to);
      }
    }
  }
  return visited == n;
}

}  // namespace dtm
