// Core identifier types of the DTM model (§2.1).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace dtm {

/// Index of a shared object o_i in O = {o_1, ..., o_w}.
using ObjectId = std::uint32_t;
/// Index of a transaction T_i.
using TxnId = std::uint32_t;
/// Discrete synchronous time step. Transactions commit at times >= 1;
/// objects sit at their initial nodes at time 0.
using Time = Weight;

constexpr ObjectId kInvalidObject = static_cast<ObjectId>(-1);
constexpr TxnId kInvalidTxn = static_cast<TxnId>(-1);

/// Steps an object needs between two consecutive commits whose homes are
/// `distance` apart. An object has one copy and serves one commit per
/// step, so two requesters on the same node are still a step apart.
constexpr Weight hop_steps(Weight distance) {
  return distance > 1 ? distance : 1;
}

}  // namespace dtm
