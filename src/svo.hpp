/// \file svo.hpp
/// Umbrella header: the library's public API in one include. Prefer the
/// per-module headers in translation units that care about compile time;
/// this is the convenient entry point for applications and examples.
///
///   #include "svo.hpp"
///   svo::core::TvofMechanism tvof(solver);
#pragma once

// Substrate layers, bottom-up.
#include "util/csv.hpp"          // IWYU pragma: export
#include "util/error.hpp"        // IWYU pragma: export
#include "util/rng.hpp"          // IWYU pragma: export
#include "util/stats.hpp"        // IWYU pragma: export
#include "util/thread_pool.hpp"  // IWYU pragma: export
#include "util/histogram.hpp"    // IWYU pragma: export
#include "util/timer.hpp"        // IWYU pragma: export
#include "util/env.hpp"          // IWYU pragma: export

#include "obs/json.hpp"     // IWYU pragma: export
#include "obs/metrics.hpp"  // IWYU pragma: export
#include "obs/trace.hpp"    // IWYU pragma: export

#include "linalg/matrix.hpp"        // IWYU pragma: export
#include "linalg/power_method.hpp"  // IWYU pragma: export

#include "graph/centrality.hpp"  // IWYU pragma: export
#include "graph/digraph.hpp"     // IWYU pragma: export
#include "graph/generators.hpp"  // IWYU pragma: export

#include "lp/problem.hpp"  // IWYU pragma: export
#include "lp/simplex.hpp"  // IWYU pragma: export

#include "des/event_queue.hpp"  // IWYU pragma: export
#include "des/network.hpp"      // IWYU pragma: export

#include "ip/assignment.hpp"    // IWYU pragma: export
#include "ip/annealing.hpp"     // IWYU pragma: export
#include "ip/bnb.hpp"           // IWYU pragma: export
#include "ip/dag.hpp"           // IWYU pragma: export
#include "ip/greedy.hpp"        // IWYU pragma: export
#include "ip/local_search.hpp"  // IWYU pragma: export
#include "ip/lp_bnb.hpp"        // IWYU pragma: export

#include "trace/atlas_synth.hpp"  // IWYU pragma: export
#include "trace/lublin.hpp"       // IWYU pragma: export
#include "trace/programs.hpp"     // IWYU pragma: export
#include "trace/swf.hpp"          // IWYU pragma: export

#include "workload/braun.hpp"         // IWYU pragma: export
#include "workload/instance_gen.hpp"  // IWYU pragma: export
#include "workload/params.hpp"        // IWYU pragma: export

#include "trust/decay.hpp"        // IWYU pragma: export
#include "trust/propagation.hpp"  // IWYU pragma: export
#include "trust/reputation.hpp"   // IWYU pragma: export
#include "trust/trust_graph.hpp"  // IWYU pragma: export

#include "game/coalition.hpp"       // IWYU pragma: export
#include "game/core_solution.hpp"   // IWYU pragma: export
#include "game/pareto.hpp"          // IWYU pragma: export
#include "game/payoff.hpp"          // IWYU pragma: export
#include "game/sampling.hpp"        // IWYU pragma: export
#include "game/stability.hpp"       // IWYU pragma: export
#include "game/structure.hpp"       // IWYU pragma: export
#include "game/value_function.hpp"  // IWYU pragma: export

#include "core/centrality_vof.hpp"    // IWYU pragma: export
#include "core/distributed_tvof.hpp"  // IWYU pragma: export
#include "core/mechanism.hpp"         // IWYU pragma: export
#include "core/merge_split.hpp"       // IWYU pragma: export
#include "core/rvof.hpp"              // IWYU pragma: export
#include "core/tvof.hpp"              // IWYU pragma: export

#include "sim/config.hpp"         // IWYU pragma: export
#include "sim/execution.hpp"      // IWYU pragma: export
#include "sim/learning.hpp"       // IWYU pragma: export
#include "sim/multi_program.hpp"  // IWYU pragma: export
#include "sim/runner.hpp"         // IWYU pragma: export
#include "sim/scenario.hpp"       // IWYU pragma: export
