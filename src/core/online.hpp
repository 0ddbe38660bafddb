// Online variant of the scheduling problem (the paper's first open
// question: "extend the results to the online setting, where the set of
// transactions ... are not known ahead of time").
//
// The batch Instance is augmented with a release (arrival) time per
// transaction; a feasible online schedule additionally satisfies
// commit_time[t] >= max(arrival[t], 1), and an online *algorithm* may only
// use information about transactions released so far when fixing their
// commit times (enforced by construction in sched/online.hpp, not
// checkable after the fact).
#pragma once

#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/validate.hpp"
#include "util/rng.hpp"

namespace dtm {

/// arrival[t] is the release step of transaction t (>= 0).
using ArrivalTimes = std::vector<Time>;

/// Arrival recorded for a transaction that was never released into a feed
/// (sched/online.hpp). No feasible schedule can commit such a transaction:
/// validate_online's release constraint commit >= max(arrival, 1) is
/// unsatisfiable at this value.
constexpr Time kNeverReleased = kInfiniteWeight;

/// Uniform random arrivals over [0, horizon].
ArrivalTimes generate_arrivals(std::size_t num_transactions, Time horizon,
                               Rng& rng);

/// Bursty arrivals: transactions arrive in `bursts` equal groups at evenly
/// spaced steps over [0, horizon] (group membership is random).
ArrivalTimes generate_bursty_arrivals(std::size_t num_transactions,
                                      Time horizon, std::size_t bursts,
                                      Rng& rng);

/// Offline feasibility (validate()) plus the release-time constraints.
ValidationResult validate_online(const Instance& inst, const Metric& metric,
                                 std::span<const Time> arrival,
                                 const Schedule& schedule);

}  // namespace dtm
