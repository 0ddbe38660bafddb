// Read/write workloads — the replicated / multi-versioned model variants
// of §1.2 ("our results for the data-flow model also apply to restricted
// versions of other models where objects may be replicated or versioned").
//
// Each transaction's accesses are split into reads and writes:
//  * the object's MASTER copy moves between writers exactly as in the
//    single-copy model (a writer chain per object);
//  * a reader is served by a COPY shipped from some earlier writer (or
//    from the object's initial location when it precedes every writer) —
//    reads of the same version run in parallel.
//
// Two consistency policies:
//  * kSingleVersion — a copy must be revoked before the next writer
//    commits: t(next writer) >= t(reader) + dist(reader, next writer)
//    (the revocation travels). Readers delay writers, like lease-based
//    replication [15].
//  * kMultiVersion — readers never block writers (they keep old
//    versions), as in multi-versioning TMs [24].
#pragma once

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "graph/metric.hpp"
#include "util/rng.hpp"

namespace dtm {

/// write_set[t] ⊆ inst.objects(t), sorted: the objects t modifies;
/// its remaining objects are read-only accesses.
using WriteSets = std::vector<std::vector<ObjectId>>;

enum class RwPolicy { kSingleVersion, kMultiVersion };

/// Marks each access a write independently with probability
/// `write_fraction`; guarantees write_set[t] is a sorted subset of t's
/// object list.
WriteSets generate_write_sets(const Instance& inst, double write_fraction,
                              Rng& rng);

/// A read/write schedule: commit times, per-object writer chains, and a
/// version source per read access.
struct RwSchedule {
  std::vector<Time> commit_time;
  /// writer_order[o]: o's writers in master-copy order.
  std::vector<std::vector<TxnId>> writer_order;
  /// reader_source[o]: pairs (reader, source writer) — kInvalidTxn as the
  /// source means the object's initial version at its home node.
  std::vector<std::vector<std::pair<TxnId, TxnId>>> reader_source;

  Time makespan() const;
};

/// Validates the constraints described above for the given policy; returns
/// the first violation's description, empty when feasible.
std::string check_rw(const Instance& inst, const WriteSets& writes,
                     const Metric& metric, const RwSchedule& schedule,
                     RwPolicy policy);

/// True iff t writes o under `writes` (binary search).
bool is_write(const WriteSets& writes, TxnId t, ObjectId o);

}  // namespace dtm
