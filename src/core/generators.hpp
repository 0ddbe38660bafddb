// Instance generators for the paper's workloads.
//
// §3/§4/§6/§7 say "each transaction uses an arbitrary subset of k objects";
// the uniform generator realizes that with random k-subsets (which is also
// exactly the §5 Grid model). Specialized generators produce the structured
// cases the analyses distinguish: single-cluster object locality (Cluster
// Approach 1), bounded cluster spread σ, and hot-object contention.
#pragma once

#include <memory>
#include <string>

#include "core/instance.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/star.hpp"
#include "util/rng.hpp"

namespace dtm {

/// Where each object starts.
enum class ObjectPlacement {
  /// At the home node of a uniformly chosen requester (the assumption of
  /// §4 Line and §5 Grid); objects nobody requests start at a random node.
  kAtRequester,
  /// Uniformly random node (the §3 Clique "arbitrary node" case).
  kRandomNode,
  /// Node 0 (deterministic; useful in unit tests).
  kNodeZero,
};

struct UniformOptions {
  std::size_t num_objects = 8;      // w
  std::size_t objects_per_txn = 2;  // k, must be <= w
  /// Fraction of nodes hosting a transaction (paper: m <= n, one per node).
  double txn_density = 1.0;
  ObjectPlacement placement = ObjectPlacement::kAtRequester;
};

/// One transaction on each selected node; each picks a uniform random
/// k-subset of the w objects.
Instance generate_uniform(const Graph& g, const UniformOptions& opt, Rng& rng);

/// Cluster workload where every object is requested only inside one cluster
/// (objects are partitioned round-robin across clusters; each transaction
/// picks k objects from its own cluster's pool). Requires the pool size
/// ceil/floor(w/alpha) >= k. This is the favorable case of Theorem 4 where
/// Approach 1 achieves O(k).
Instance generate_cluster_local(const ClusterGraph& cg, std::size_t num_objects,
                                std::size_t objects_per_txn, Rng& rng);

/// Cluster workload with bounded spread: each object is offered to (about)
/// `sigma` random clusters; transactions draw k objects offered to their
/// cluster. When a cluster ends up with fewer than k offered objects, extra
/// objects are pulled in (so the realized max spread can slightly exceed
/// `sigma`; measure it with max_cluster_spread()).
Instance generate_cluster_spread(const ClusterGraph& cg,
                                 std::size_t num_objects,
                                 std::size_t objects_per_txn,
                                 std::size_t sigma, Rng& rng);

/// Realized σ: max over objects of the number of distinct clusters hosting
/// its requesters.
std::size_t max_cluster_spread(const ClusterGraph& cg, const Instance& inst);

/// Star workload where every object is requested only on one ray (objects
/// are partitioned round-robin across rays; each ray transaction picks k
/// from its ray's pool; the center node gets no transaction). With ray
/// locality every period's segments are independent, so the §7 scheduler
/// runs all rays in parallel. Requires pool size >= k.
Instance generate_star_ray_local(const Star& star, std::size_t num_objects,
                                 std::size_t objects_per_txn, Rng& rng);

/// Contention workload: every transaction requests object 0 (the hot spot)
/// plus k-1 uniform picks from the rest. Used by ablations and tests (it
/// maximizes ℓ and forces full serialization on the hot object).
Instance generate_hotspot(const Graph& g, std::size_t num_objects,
                          std::size_t objects_per_txn, Rng& rng);

// --- streaming arrivals (sim/runtime.hpp's input side) -----------------
//
// The batch generators above fix the whole transaction set up front. A
// streaming run instead *pulls* transactions one at a time from an
// ArrivalSource: each pull yields (arrival step, home, object set) in
// non-decreasing arrival order, and the consumer never sees past the
// transactions it has pulled — the online constraint is structural here
// exactly as in sched/online.hpp's feed.

/// One transaction arriving into a streaming run.
struct ArrivingTxn {
  Time arrival = 0;
  NodeId home = kInvalidNode;
  std::vector<ObjectId> objects;  // sorted, duplicate-free
};

/// Pull-based transaction stream over a fixed object universe. next()
/// yields transactions in non-decreasing arrival order until exhaustion.
/// Implementations are deterministic functions of their seed.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  virtual std::string name() const = 0;
  /// Size of the object universe the stream draws from (w).
  std::size_t num_objects() const { return num_objects_; }
  /// Fills `out` with the next transaction; false once exhausted.
  virtual bool next(ArrivingTxn& out) = 0;

 protected:
  explicit ArrivalSource(std::size_t num_objects)
      : num_objects_(num_objects) {}

 private:
  std::size_t num_objects_;
};

/// Knobs shared by the built-in sources. `rate` is the mean number of
/// arrivals per step (the λ of the Poisson source; the other sources honor
/// it as their long-run average).
struct ArrivalStreamOptions {
  std::size_t num_txns = 1024;      // stream length
  std::size_t num_objects = 64;     // w
  std::size_t objects_per_txn = 2;  // k, must be <= w
  double rate = 1.0;                // mean arrivals per step, > 0
  /// Bursty source only: arrivals per burst (the gap between bursts is
  /// derived as burst_size / rate, so the average rate stays `rate`).
  std::size_t burst_size = 32;
  /// Group-local object draws (Poisson/bursty): each transaction picks one
  /// of `groups` uniform groups and draws its k objects from that group's
  /// pool {o : o mod groups == group}. With groups equal to the runtime's
  /// shard count and shard_aligned_homes placement (graph/partition.hpp),
  /// group-local transactions conflict inside one shard (the runtime's
  /// shard accounting reports no cross-shard work). 1 = uniform draws
  /// over all objects (bit-identical to PR 8). The hot source stays
  /// adversarial and ignores this knob. Requires floor(w/groups) >= k.
  std::size_t groups = 1;
};

/// Poisson process: exponential interarrival gaps with mean 1/rate,
/// accumulated in real time and floored to steps. Homes uniform, objects
/// uniform k-subsets (the streaming analog of generate_uniform).
class PoissonArrivalSource final : public ArrivalSource {
 public:
  PoissonArrivalSource(const Graph& g, const ArrivalStreamOptions& opt,
                       std::uint64_t seed);
  std::string name() const override { return "poisson"; }
  bool next(ArrivingTxn& out) override;

 private:
  const Graph* g_;
  ArrivalStreamOptions opt_;
  Rng rng_;
  std::size_t produced_ = 0;
  double clock_ = 0;  // real-valued arrival clock, floored per txn
};

/// Bursts of `burst_size` simultaneous arrivals spaced so the long-run
/// rate matches `rate`. Homes uniform, objects uniform k-subsets — the
/// streaming analog of generate_bursty_arrivals.
class BurstyArrivalSource final : public ArrivalSource {
 public:
  BurstyArrivalSource(const Graph& g, const ArrivalStreamOptions& opt,
                      std::uint64_t seed);
  std::string name() const override { return "bursty"; }
  bool next(ArrivingTxn& out) override;

 private:
  const Graph* g_;
  ArrivalStreamOptions opt_;
  Rng rng_;
  std::size_t produced_ = 0;
  Time gap_ = 1;  // steps between burst starts
};

/// Adversarial hot-object stream: every transaction requests object 0 plus
/// k-1 uniform picks, and homes ping-pong between node 0 and node n-1 so
/// consecutive requesters sit as far apart as the node numbering allows —
/// the hot object's visit chain pays a full traversal per transaction
/// (worst case for any scheduler; maximizes ℓ like generate_hotspot and
/// adds maximal transit churn on top). Arrivals are evenly spaced at
/// `rate` per step.
class HotObjectArrivalSource final : public ArrivalSource {
 public:
  HotObjectArrivalSource(const Graph& g, const ArrivalStreamOptions& opt,
                         std::uint64_t seed);
  std::string name() const override { return "hot"; }
  bool next(ArrivingTxn& out) override;

 private:
  const Graph* g_;
  ArrivalStreamOptions opt_;
  Rng rng_;
  std::size_t produced_ = 0;
};

enum class ArrivalModel { kPoisson, kBursty, kHotObject };

/// "poisson" | "bursty" | "hot" (CLI surface); throws on anything else.
ArrivalModel parse_arrival_model(const std::string& s);

std::unique_ptr<ArrivalSource> make_arrival_source(
    ArrivalModel model, const Graph& g, const ArrivalStreamOptions& opt,
    std::uint64_t seed);

}  // namespace dtm
