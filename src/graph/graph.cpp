#include "graph/graph.hpp"

#include <algorithm>

#include "util/metrics.hpp"

namespace dtm {

namespace {

// Offset and row arrays written by from_rows graphs (one each per shared
// block).
MetricCounter& offsets_written() {
  static MetricCounter& c = metrics::counter("graph.offsets_written");
  return c;
}
MetricCounter& materialized() {
  static MetricCounter& c = metrics::counter("graph.materialized");
  return c;
}

}  // namespace

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
  std::vector<std::size_t>& offsets = g.block_->offsets;
  offsets.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i <= num_nodes_; ++i) {
    offsets[i] += offsets[i - 1];
  }
  std::vector<Arc>& arcs = g.block_->arcs;
  arcs.resize(edges_.size() * 2);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges_) {
    arcs[cursor[e.u]++] = {e.v, e.weight};
    arcs[cursor[e.v]++] = {e.u, e.weight};
    g.max_weight_ = std::max(g.max_weight_, e.weight);
  }
  for (NodeId u = 0; u < num_nodes_; ++u) {
    auto begin = arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    auto end = arcs.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    std::sort(begin, end, [](const Arc& a, const Arc& b) {
      return a.to != b.to ? a.to < b.to : a.weight < b.weight;
    });
  }
  g.block_->offsets_ready.store(true, std::memory_order_release);
  g.block_->arcs_ready.store(true, std::memory_order_release);
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
  g.num_nodes_ = num_nodes;
  g.block_ = std::make_shared<ArcBlock>();
  return g;
}

Graph Graph::from_rows(std::size_t num_nodes, Weight max_weight,
                       std::function<std::size_t(NodeId)> degree,
                       std::function<void(NodeId, RowWriter&)> fill,
                       std::optional<FamilyKey> key) {
  Graph g = with_node_count(num_nodes);
  DTM_REQUIRE(max_weight >= 0,
              "declared max weight must not be negative, got " << max_weight);
  g.max_weight_ = max_weight;
  g.block_->degree = std::move(degree);
  g.block_->fill = std::move(fill);
  g.block_->key = key;
  return g;
}

void Graph::write_offsets() const {
  ArcBlock& b = *block_;
  const std::lock_guard<std::mutex> lock(b.mu);
  if (b.offsets_ready.load(std::memory_order_relaxed)) return;
  // Overwrites whatever a degree function that threw left behind.
  b.offsets.resize(num_nodes_ + 1);
  b.offsets[0] = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    b.offsets[u + 1] = b.offsets[u] + b.degree(u);
  }
  const std::size_t total = b.offsets[num_nodes_];
  DTM_REQUIRE(total % 2 == 0, "rows hold an odd number of arcs: " << total);
  if (total > 0) {
    DTM_REQUIRE(max_weight_ > 0,
                "declared max weight must be positive, got " << max_weight_);
  } else {
    DTM_REQUIRE(max_weight_ == 0,
                "edgeless rows declare max weight " << max_weight_);
  }
  b.degree = nullptr;
  offsets_written().add();
  b.offsets_ready.store(true, std::memory_order_release);
}

void Graph::materialize() const {
  const std::size_t* offsets = offset_data();
  ArcBlock& b = *block_;
  const std::lock_guard<std::mutex> lock(b.mu);
  if (b.arcs_ready.load(std::memory_order_relaxed)) return;
  // A row source that threw left a partial array; start over.
  b.arcs.clear();
  b.arcs.reserve(offsets[num_nodes_]);
  Weight heaviest = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    RowWriter out(u, &b.arcs, offsets[u + 1]);
    b.fill(u, out);
    heaviest = std::max(heaviest, check_row(u, offsets, b.arcs));
  }
  DTM_REQUIRE(heaviest == max_weight_,
              "rows weigh up to " << heaviest << ", declared " << max_weight_);
  b.fill = nullptr;
  materialized().add();
  b.arcs_ready.store(true, std::memory_order_release);
}

Weight Graph::check_row(NodeId u, const std::size_t* offsets,
                        const std::vector<Arc>& arcs) const {
  const Arc* begin = arcs.data() + offsets[u];
  const Arc* end = arcs.data() + arcs.size();
  DTM_REQUIRE(arcs.size() == offsets[u + 1],
              "node " << u << " wrote " << (end - begin) << " arcs, degree "
                      << offsets[u + 1] - offsets[u]);
  const std::size_t n = num_nodes_;
  Weight heaviest = 0;
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
    heaviest = std::max(heaviest, a->weight);
  }
  return heaviest;
}

bool operator==(const Graph& a, const Graph& b) {
  if (a.block_ == b.block_) return true;  // copies, or both default
  if (!a.block_ || !b.block_) return false;
  if (a.block_->key && a.block_->key == b.block_->key) return true;
  if (a.num_nodes_ != b.num_nodes_ || a.max_weight_ != b.max_weight_) {
    return false;
  }
  const std::size_t* off = a.offset_data();
  if (!std::equal(off, off + a.num_nodes_ + 1, b.offset_data())) return false;
  const Arc* x = a.arc_data();
  return std::equal(x, x + off[a.num_nodes_], b.arc_data());
}

bool Graph::connected() const {
  const std::size_t n = num_nodes();
  if (n == 0) return true;
  std::vector<char> seen(n, 0);
  const Adjacency adj = adjacency();
  std::vector<NodeId> stack = {0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (const Arc& a : adj.neighbors(u)) {
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
