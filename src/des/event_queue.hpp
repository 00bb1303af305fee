/// \file event_queue.hpp
/// Minimal discrete-event simulator. The paper's mechanism "is executed
/// by a trusted party that also facilitates the communication among
/// VOs/GSPs" (Section III-A) but never models that communication; the
/// des/ layer lets the repository quantify it (messages, bytes, wall
/// time under link latency) via sim/protocol.
///
/// Events are closures ordered by (time, insertion sequence); ties in
/// time execute in scheduling order, so runs are fully deterministic.
#pragma once

#include <cstdint>
#include <limits>
#include <functional>
#include <queue>
#include <vector>

#include "util/error.hpp"

namespace svo::des {

/// Closure executed at its scheduled time.
using EventFn = std::function<void()>;

/// Single-threaded discrete-event loop.
class Simulator {
 public:
  /// Current simulation time (seconds; starts at 0).
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedule `fn` after `delay` seconds (>= 0) from now.
  void schedule(double delay, EventFn fn);

  /// Schedule `fn` at absolute time `time` (>= now()).
  void schedule_at(double time, EventFn fn);

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Run events until the queue is empty or simulated time would exceed
  /// `until`. Returns the number of events executed. Events scheduled
  /// during the run participate. Safe to call repeatedly.
  std::size_t run(double until = std::numeric_limits<double>::infinity());

  /// Execute exactly one event if available; returns whether one ran.
  bool step();

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among ties
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace svo::des
