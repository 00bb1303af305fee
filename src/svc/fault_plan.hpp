/// \file fault_plan.hpp
/// Deterministic chaos for svc::FormationService (DESIGN.md §4h).
///
/// The paper forms VOs out of providers that fail; PR 7's service layer
/// only survived a friendly world where no shard dies and no solve
/// throws. A FaultPlan makes the service's own failure modes explicit
/// and *reproducible* — the des/fault and sim/churn idiom lifted to the
/// request plane: every injected fault is keyed by the request (ticket)
/// index it strikes, so a same-seed replay injects exactly the same
/// faults against exactly the same requests regardless of thread
/// interleaving.
///
/// Three fault classes:
///  - SolverFault: the mechanism run of one ticket throws on its first
///    `attempts` attempts. `kPoison` means *every* attempt throws — a
///    queue-poison request that can never succeed and must burn its
///    retry budget to a terminal Failed without harming its neighbours.
///  - TickFault/Abort: the shard tick that first reaches the ticket dies
///    there. Tickets earlier in its batch have run; the ticket and the
///    rest of the batch go back to the queue, and a supervisor restart
///    brings the killed shard back (svc.restarts).
///  - TickFault/Stall: a straggler — the tick that first reaches the
///    ticket sleeps `stall_seconds` before running it and the rest of
///    its batch (exercises bounded RequestHandle::wait timeouts and
///    deadline expiry).
///
/// A ticket's tick fault fires once, whatever batch it rides in, so the
/// stall, abort and restart counts follow from the plan alone.
///
/// An empty plan is the hard equivalence point: with no faults
/// configured the service is bit-identical to the un-chaosed PR 7
/// behaviour (tests/svc/service_test.cpp pins it, RNG probe included).
#pragma once

#include <cstdint>
#include <vector>

namespace svo::svc {

/// Injected mechanism failure for one ticket: its first `attempts`
/// solve attempts throw before any solver work happens.
struct SolverFault {
  /// Every attempt throws — queue poison, the request can never succeed.
  static constexpr std::uint32_t kPoison = UINT32_MAX;

  std::uint64_t ticket = 0;
  std::uint32_t attempts = 1;
};

/// What happens to the shard tick that first reaches the marked ticket.
enum class TickFaultKind {
  Abort,  ///< the tick dies at the ticket; the shard is killed + restarted
  Stall,  ///< straggler: the ticket and the rest of its batch run late
};

/// Human-readable name ("abort", "stall").
[[nodiscard]] const char* to_string(TickFaultKind kind) noexcept;

/// One injected tick fault, keyed by the ticket whose first dispatch
/// triggers it. Fires exactly once (a re-queued ticket is not
/// re-struck), so chaotic runs always terminate.
struct TickFault {
  std::uint64_t ticket = 0;
  TickFaultKind kind = TickFaultKind::Stall;
  /// Straggler delay (Stall only; ignored for Abort).
  double stall_seconds = 0.0;
};

/// Fault model of one service run. Empty = "no faults" — the regime in
/// which the service is bit-identical to its un-chaosed behaviour.
struct FaultPlan {
  std::vector<SolverFault> solver_faults;
  std::vector<TickFault> tick_faults;

  /// True when any fault is configured.
  [[nodiscard]] bool enabled() const noexcept {
    return !solver_faults.empty() || !tick_faults.empty();
  }

  /// Throws InvalidArgument on: zero solver-fault attempts, duplicate
  /// ticket within either list, or a negative / non-finite stall.
  void validate() const;
};

/// Knobs for random_fault_plan (all-zero rates = empty plan).
struct ChaosProfile {
  /// Fraction of tickets whose solve fails `fault_attempts` times.
  double solver_fault_rate = 0.0;
  /// Injected failure depth for a struck ticket (how many attempts
  /// throw before the request can succeed).
  std::uint32_t fault_attempts = 1;
  /// Fraction of tickets poisoned outright (every attempt throws).
  double poison_rate = 0.0;
  /// Fraction of tickets whose first drain aborts (kills) its shard.
  double abort_rate = 0.0;
  /// Fraction of tickets whose first drain stalls its shard.
  double stall_rate = 0.0;
  /// Straggler delay applied by stall faults.
  double stall_seconds = 0.0005;

  /// Throws InvalidArgument on out-of-range rates, zero attempts, or a
  /// negative / non-finite stall.
  void validate() const;
};

/// Derive a deterministic plan over ticket ids [0, requests): each
/// ticket independently draws its fate from a stream seeded by `seed`
/// (one fate draw per ticket, so plans with different rates but one
/// seed stay aligned). A ticket suffers at most one solver fault and at
/// most one tick fault. Deterministic in (seed, requests, profile).
[[nodiscard]] FaultPlan random_fault_plan(std::uint64_t seed,
                                          std::uint64_t requests,
                                          const ChaosProfile& profile);

}  // namespace svo::svc
