#include "core/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dtm {

namespace {

/// Applies the placement policy given the already-added transactions.
void place_objects(InstanceBuilder& b, const Graph& g,
                   const std::vector<std::vector<NodeId>>& requester_nodes,
                   ObjectPlacement placement, Rng& rng) {
  const auto w = static_cast<ObjectId>(requester_nodes.size());
  for (ObjectId o = 0; o < w; ++o) {
    switch (placement) {
      case ObjectPlacement::kAtRequester:
        if (!requester_nodes[o].empty()) {
          b.set_object_home(o,
                            requester_nodes[o][rng.index(requester_nodes[o].size())]);
        } else {
          b.set_object_home(o, static_cast<NodeId>(rng.index(g.num_nodes())));
        }
        break;
      case ObjectPlacement::kRandomNode:
        b.set_object_home(o, static_cast<NodeId>(rng.index(g.num_nodes())));
        break;
      case ObjectPlacement::kNodeZero:
        b.set_object_home(o, 0);
        break;
    }
  }
}

}  // namespace

Instance generate_uniform(const Graph& g, const UniformOptions& opt, Rng& rng) {
  DTM_REQUIRE(opt.objects_per_txn <= opt.num_objects,
              "k=" << opt.objects_per_txn << " exceeds w=" << opt.num_objects);
  DTM_REQUIRE(opt.txn_density > 0.0 && opt.txn_density <= 1.0,
              "txn_density must be in (0,1]");
  InstanceBuilder b(g, opt.num_objects);
  b.reserve(g.num_nodes(), g.num_nodes() * opt.objects_per_txn);
  std::vector<std::vector<NodeId>> requester_nodes(opt.num_objects);
  std::vector<ObjectId> objs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (opt.txn_density < 1.0 && !rng.chance(opt.txn_density)) continue;
    objs.clear();
    for (std::size_t idx :
         rng.sample_indices(opt.num_objects, opt.objects_per_txn)) {
      objs.push_back(static_cast<ObjectId>(idx));
      requester_nodes[idx].push_back(v);
    }
    b.add_transaction(v, objs);
  }
  place_objects(b, g, requester_nodes, opt.placement, rng);
  return b.build();
}

Instance generate_cluster_local(const ClusterGraph& cg,
                                std::size_t num_objects,
                                std::size_t objects_per_txn, Rng& rng) {
  // Partition objects round-robin: object o belongs to cluster o % alpha.
  std::vector<std::vector<ObjectId>> pool(cg.alpha);
  for (ObjectId o = 0; o < num_objects; ++o) pool[o % cg.alpha].push_back(o);
  for (std::size_t c = 0; c < cg.alpha; ++c) {
    DTM_REQUIRE(pool[c].size() >= objects_per_txn,
                "cluster " << c << " pool has " << pool[c].size()
                           << " objects, need k=" << objects_per_txn
                           << " (increase w or decrease k/alpha)");
  }
  InstanceBuilder b(cg.graph, num_objects);
  b.reserve(cg.graph.num_nodes(), cg.graph.num_nodes() * objects_per_txn);
  std::vector<std::vector<NodeId>> requester_nodes(num_objects);
  std::vector<ObjectId> objs;
  for (std::size_t c = 0; c < cg.alpha; ++c) {
    for (std::size_t i = 0; i < cg.beta; ++i) {
      const NodeId v = cg.node_at(c, i);
      objs.clear();
      for (std::size_t idx : rng.sample_indices(pool[c].size(), objects_per_txn)) {
        objs.push_back(pool[c][idx]);
        requester_nodes[pool[c][idx]].push_back(v);
      }
      b.add_transaction(v, objs);
    }
  }
  place_objects(b, cg.graph, requester_nodes, ObjectPlacement::kAtRequester,
                rng);
  return b.build();
}

Instance generate_cluster_spread(const ClusterGraph& cg,
                                 std::size_t num_objects,
                                 std::size_t objects_per_txn,
                                 std::size_t sigma, Rng& rng) {
  DTM_REQUIRE(sigma >= 1 && sigma <= cg.alpha,
              "sigma must be in [1, alpha], got " << sigma);
  DTM_REQUIRE(objects_per_txn <= num_objects, "k exceeds w");
  // offered[c] = objects whose cluster set contains c.
  std::vector<std::vector<ObjectId>> offered(cg.alpha);
  for (ObjectId o = 0; o < num_objects; ++o) {
    for (std::size_t c : rng.sample_indices(cg.alpha, sigma)) {
      offered[c].push_back(o);
    }
  }
  // Top up clusters that ended with fewer than k offered objects.
  for (std::size_t c = 0; c < cg.alpha; ++c) {
    while (offered[c].size() < objects_per_txn) {
      const auto o = static_cast<ObjectId>(rng.index(num_objects));
      if (std::find(offered[c].begin(), offered[c].end(), o) ==
          offered[c].end()) {
        offered[c].push_back(o);
      }
    }
    std::sort(offered[c].begin(), offered[c].end());
  }
  InstanceBuilder b(cg.graph, num_objects);
  b.reserve(cg.graph.num_nodes(), cg.graph.num_nodes() * objects_per_txn);
  std::vector<std::vector<NodeId>> requester_nodes(num_objects);
  std::vector<ObjectId> objs;
  for (std::size_t c = 0; c < cg.alpha; ++c) {
    for (std::size_t i = 0; i < cg.beta; ++i) {
      const NodeId v = cg.node_at(c, i);
      objs.clear();
      for (std::size_t idx : rng.sample_indices(offered[c].size(), objects_per_txn)) {
        objs.push_back(offered[c][idx]);
        requester_nodes[offered[c][idx]].push_back(v);
      }
      b.add_transaction(v, objs);
    }
  }
  place_objects(b, cg.graph, requester_nodes, ObjectPlacement::kAtRequester,
                rng);
  return b.build();
}

std::size_t max_cluster_spread(const ClusterGraph& cg, const Instance& inst) {
  std::size_t best = 0;
  std::vector<char> seen(cg.alpha);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    std::fill(seen.begin(), seen.end(), 0);
    std::size_t count = 0;
    for (TxnId t : inst.requesters(o)) {
      const std::size_t c = cg.cluster_of(inst.home(t));
      if (!seen[c]) {
        seen[c] = 1;
        ++count;
      }
    }
    best = std::max(best, count);
  }
  return best;
}

Instance generate_star_ray_local(const Star& star, std::size_t num_objects,
                                 std::size_t objects_per_txn, Rng& rng) {
  std::vector<std::vector<ObjectId>> pool(star.alpha);
  for (ObjectId o = 0; o < num_objects; ++o) pool[o % star.alpha].push_back(o);
  for (std::size_t r = 0; r < star.alpha; ++r) {
    DTM_REQUIRE(pool[r].size() >= objects_per_txn,
                "ray " << r << " pool has " << pool[r].size()
                       << " objects, need k=" << objects_per_txn);
  }
  InstanceBuilder b(star.graph, num_objects);
  b.reserve(star.graph.num_nodes(), star.graph.num_nodes() * objects_per_txn);
  std::vector<std::vector<NodeId>> requester_nodes(num_objects);
  std::vector<ObjectId> objs;
  for (std::size_t r = 0; r < star.alpha; ++r) {
    for (std::size_t p = 1; p <= star.beta; ++p) {
      const NodeId v = star.node_at(r, p);
      objs.clear();
      for (std::size_t idx : rng.sample_indices(pool[r].size(), objects_per_txn)) {
        objs.push_back(pool[r][idx]);
        requester_nodes[pool[r][idx]].push_back(v);
      }
      b.add_transaction(v, objs);
    }
  }
  place_objects(b, star.graph, requester_nodes, ObjectPlacement::kAtRequester,
                rng);
  return b.build();
}

Instance generate_hotspot(const Graph& g, std::size_t num_objects,
                          std::size_t objects_per_txn, Rng& rng) {
  DTM_REQUIRE(num_objects >= 1, "hotspot needs at least one object");
  DTM_REQUIRE(objects_per_txn >= 1 && objects_per_txn <= num_objects,
              "k out of [1, w]");
  InstanceBuilder b(g, num_objects);
  b.reserve(g.num_nodes(), g.num_nodes() * objects_per_txn);
  std::vector<std::vector<NodeId>> requester_nodes(num_objects);
  std::vector<ObjectId> objs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    objs.assign(1, 0);
    requester_nodes[0].push_back(v);
    if (objects_per_txn > 1) {
      for (std::size_t idx :
           rng.sample_indices(num_objects - 1, objects_per_txn - 1)) {
        objs.push_back(static_cast<ObjectId>(idx + 1));
        requester_nodes[idx + 1].push_back(v);
      }
    }
    b.add_transaction(v, objs);
  }
  place_objects(b, g, requester_nodes, ObjectPlacement::kAtRequester, rng);
  return b.build();
}

// --- streaming arrivals ------------------------------------------------

namespace {

void check_stream_options(const ArrivalStreamOptions& opt) {
  DTM_REQUIRE(opt.num_objects >= 1, "stream needs at least one object");
  DTM_REQUIRE(opt.objects_per_txn >= 1 &&
                  opt.objects_per_txn <= opt.num_objects,
              "stream k out of [1, w]");
  DTM_REQUIRE(opt.rate > 0, "stream rate must be positive");
  DTM_REQUIRE(opt.groups >= 1, "stream needs at least one object group");
  DTM_REQUIRE(opt.groups == 1 ||
                  opt.num_objects / opt.groups >= opt.objects_per_txn,
              "group-local draws need floor(w/groups) >= k (w="
                  << opt.num_objects << ", groups=" << opt.groups
                  << ", k=" << opt.objects_per_txn << ")");
}

std::vector<ObjectId> uniform_objects(std::size_t w, std::size_t k,
                                      Rng& rng) {
  std::vector<ObjectId> objs;
  objs.reserve(k);
  for (std::size_t idx : rng.sample_indices(w, k)) {
    objs.push_back(static_cast<ObjectId>(idx));
  }
  return objs;
}

/// Group-local draw (ArrivalStreamOptions::groups): pick one group, then k
/// objects from its pool {o : o mod groups == group}. groups == 1 keeps
/// the RNG consumption of the plain uniform draw (one sample_indices call
/// over the full universe), so default streams are unchanged bit for bit.
std::vector<ObjectId> stream_objects(const ArrivalStreamOptions& opt,
                                     Rng& rng) {
  if (opt.groups <= 1) {
    return uniform_objects(opt.num_objects, opt.objects_per_txn, rng);
  }
  const std::size_t group = rng.index(opt.groups);
  // Pool size: objects o < w with o mod groups == group.
  const std::size_t pool =
      opt.num_objects / opt.groups +
      (group < opt.num_objects % opt.groups ? 1 : 0);
  std::vector<ObjectId> objs;
  objs.reserve(opt.objects_per_txn);
  for (std::size_t idx : rng.sample_indices(pool, opt.objects_per_txn)) {
    objs.push_back(static_cast<ObjectId>(group + idx * opt.groups));
  }
  return objs;
}

std::vector<ObjectId> hot_objects(std::size_t w, std::size_t k, Rng& rng) {
  std::vector<ObjectId> objs = {0};
  if (k > 1) {
    for (std::size_t idx : rng.sample_indices(w - 1, k - 1)) {
      objs.push_back(static_cast<ObjectId>(idx + 1));
    }
  }
  return objs;
}

}  // namespace

PoissonArrivalSource::PoissonArrivalSource(const Graph& g,
                                           const ArrivalStreamOptions& opt,
                                           std::uint64_t seed)
    : ArrivalSource(opt.num_objects), g_(&g), opt_(opt), rng_(seed) {
  check_stream_options(opt_);
}

bool PoissonArrivalSource::next(ArrivingTxn& out) {
  if (produced_ >= opt_.num_txns) return false;
  // Exponential gap with mean 1/rate; 1-real() keeps the log argument
  // in (0, 1].
  clock_ += -std::log(1.0 - rng_.real()) / opt_.rate;
  out.arrival = static_cast<Time>(clock_);
  out.home = static_cast<NodeId>(rng_.index(g_->num_nodes()));
  out.objects = stream_objects(opt_, rng_);
  ++produced_;
  return true;
}

BurstyArrivalSource::BurstyArrivalSource(const Graph& g,
                                         const ArrivalStreamOptions& opt,
                                         std::uint64_t seed)
    : ArrivalSource(opt.num_objects), g_(&g), opt_(opt), rng_(seed) {
  check_stream_options(opt_);
  DTM_REQUIRE(opt_.burst_size >= 1, "bursts need at least one arrival");
  gap_ = std::max<Time>(
      1, static_cast<Time>(static_cast<double>(opt_.burst_size) / opt_.rate));
}

bool BurstyArrivalSource::next(ArrivingTxn& out) {
  if (produced_ >= opt_.num_txns) return false;
  out.arrival = static_cast<Time>(produced_ / opt_.burst_size) * gap_;
  out.home = static_cast<NodeId>(rng_.index(g_->num_nodes()));
  out.objects = stream_objects(opt_, rng_);
  ++produced_;
  return true;
}

HotObjectArrivalSource::HotObjectArrivalSource(
    const Graph& g, const ArrivalStreamOptions& opt, std::uint64_t seed)
    : ArrivalSource(opt.num_objects), g_(&g), opt_(opt), rng_(seed) {
  check_stream_options(opt_);
}

bool HotObjectArrivalSource::next(ArrivingTxn& out) {
  if (produced_ >= opt_.num_txns) return false;
  out.arrival =
      static_cast<Time>(static_cast<double>(produced_) / opt_.rate);
  out.home = produced_ % 2 == 0
                 ? NodeId{0}
                 : static_cast<NodeId>(g_->num_nodes() - 1);
  out.objects = hot_objects(opt_.num_objects, opt_.objects_per_txn, rng_);
  ++produced_;
  return true;
}

ArrivalModel parse_arrival_model(const std::string& s) {
  if (s == "poisson") return ArrivalModel::kPoisson;
  if (s == "bursty") return ArrivalModel::kBursty;
  if (s == "hot") return ArrivalModel::kHotObject;
  DTM_REQUIRE(false, "unknown arrival model '"
                         << s << "' (expected poisson|bursty|hot)");
}

std::unique_ptr<ArrivalSource> make_arrival_source(
    ArrivalModel model, const Graph& g, const ArrivalStreamOptions& opt,
    std::uint64_t seed) {
  switch (model) {
    case ArrivalModel::kPoisson:
      return std::make_unique<PoissonArrivalSource>(g, opt, seed);
    case ArrivalModel::kBursty:
      return std::make_unique<BurstyArrivalSource>(g, opt, seed);
    case ArrivalModel::kHotObject:
      return std::make_unique<HotObjectArrivalSource>(g, opt, seed);
  }
  DTM_REQUIRE(false, "unreachable arrival model");
}

}  // namespace dtm
