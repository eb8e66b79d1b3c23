// BDD reachability fixpoint over the partitioned transition relation:
// forward image iteration with frontier-vs-accumulated sets, per-iteration
// telemetry, in-fixpoint garbage collection, and — under the ambient
// ResourceGovernor's budget — graceful degradation to an overapproximation
// (existentially smoothing the fattest state bits) instead of failing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "verif/transition.hpp"

namespace polis::verif {

struct ReachOptions {
  /// Run BddManager::garbage_collect between iterations once the unique
  /// table holds more than this many nodes. 0 = never collect. The default
  /// is deliberately generous (8 Mi nodes ≈ 128 MiB of arena): every
  /// collection also clears the computed cache, and long fixpoints live on
  /// inter-iteration cache reuse — on full dash, collecting at 4 Mi nodes
  /// instead of 8 Mi makes the run 4.5× slower. Memory-bounded runs should
  /// cap via the governor's byte budget, not a tight GC threshold.
  std::size_t gc_threshold = std::size_t{8} << 20;
  /// Degrade instead of failing when the ambient ResourceGovernor trips
  /// mid-fixpoint: a node/byte/allocation budget hit falls back to widening
  /// (overapproximation); a deadline or cancellation stops the iteration
  /// with `converged == false` (underapproximation — verdicts become
  /// kUnknown). When false, governor errors propagate and fail the run.
  bool degrade_on_budget = false;
};

struct ReachStats {
  int iterations = 0;
  std::size_t peak_live_nodes = 0;  // max live BDD nodes over the fixpoint
  std::size_t reached_nodes = 0;    // node count of the final reached set
  double reached_states = 0;        // sat_count over the present variables
  std::uint64_t gc_runs = 0;        // in-fixpoint garbage collections
  int widenings = 0;                // budget-triggered overapproximations
  int budget_recoveries = 0;        // governor trips recovered by widening
  bool exact = true;
  /// True iff the fixpoint ran until the frontier emptied. A widened run is
  /// converged-but-inexact: `reached` OVERapproximates, so an empty bad
  /// intersection still proves safety. A non-converged run (deadline,
  /// cancellation, nothing left to widen) leaves an UNDERapproximation —
  /// nothing can be proved from it, only found (verdicts degrade to
  /// kUnknown).
  bool converged = true;
};

struct ReachResult {
  bdd::Bdd reached;
  /// layers[k] = states first reached after exactly k steps (layers[0] is
  /// the initial state). Empty after widening or an unconverged stop.
  std::vector<bdd::Bdd> layers;
  ReachStats stats;
};

ReachResult reachable_states(const TransitionSystem& tr,
                             const ReachOptions& options = {});

}  // namespace polis::verif
