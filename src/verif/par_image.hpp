// Sharded image computation for the reachability fixpoint: the disjunctive
// transition-relation clusters are distributed across pool workers, each
// owning a private BddManager with translated copies of its clusters, so a
// fixpoint step computes per-cluster images concurrently and merges the
// partial frontiers back on the main manager.
//
// Concurrency model: share-nothing managers, serialized handoff. During a
// step the main thread blocks in `wait_idle` and performs no BDD work, so
// every worker may read the main arena concurrently (`copy_across` of the
// frontier is a pure read of the source); between steps only the main
// thread touches the worker managers (merge, garbage collection,
// teardown). The thread pool's queue mutex provides the happens-before
// edges in both directions.
//
// Determinism: BDD canonicity makes the merged image independent of merge
// structure — equal functions have equal handles per manager, so the union
// of the partial images, minus the reached set, is the same canonical BDD
// the serial `image` computes, in the same manager, whatever the thread
// count. The merge
// still runs in ascending shard order so node allocation (and therefore
// arena layout, GC timing and obs counters) is reproducible run to run.
//
// Budgets: workers install the caller's ambient ResourceGovernor, so node
// and byte budgets stay global across all worker managers. A worker trip
// surfaces at the step barrier (after `wait_idle`) and rethrows on the
// main thread in ascending shard order, where the fixpoint's widen /
// kUnknown ladder handles it exactly as in the serial path. Worker
// managers are created and destroyed on the caller's thread under its
// governor scope, so every charge is refunded on teardown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/thread_pool.hpp"
#include "verif/transition.hpp"

namespace polis::verif {

class ParallelImage {
 public:
  /// Shards `tr`'s clusters across `min(num_threads, clusters)` workers
  /// (LPT on relation node counts, so one fat cluster does not serialize
  /// the step) and copies each worker's clusters into its private manager.
  /// `num_threads` must be >= 1; pass the effective thread count, not 0.
  ParallelImage(const TransitionSystem& tr, int num_threads);
  ~ParallelImage();

  ParallelImage(const ParallelImage&) = delete;
  ParallelImage& operator=(const ParallelImage&) = delete;

  /// Forward image of `from` (a BDD on the main manager) under the whole
  /// partitioned relation, returned on the main manager. Minus any `reached`
  /// set it equals `verif::image(tr, from, reached)` as a function — and
  /// therefore as a handle.
  bdd::Bdd image(const bdd::Bdd& from);

  /// Collects any worker manager whose unique table exceeds `threshold`
  /// nodes. Main-thread only, between steps. Returns collections run.
  std::uint64_t collect_garbage(std::size_t threshold);

  int shards() const { return static_cast<int>(workers_.size()); }

  struct WorkerStats {
    std::size_t clusters = 0;          // clusters assigned by the schedule
    std::size_t relation_nodes = 0;    // schedule weight (sum of relations)
    std::size_t peak_nodes = 0;        // high-water arena of the worker
    std::uint64_t copy_cache_hits = 0; // frontier translations reused
  };
  std::vector<WorkerStats> worker_stats() const;

 private:
  struct ShardCluster {
    bdd::Bdd relation;                 // on the worker manager
    std::vector<int> quantify_present;
    int rename_map = -1;               // registered on the worker manager
  };
  struct Worker {
    std::unique_ptr<bdd::BddManager> mgr;
    std::vector<ShardCluster> clusters;
    bdd::CopyCache to_worker;    // main frontier -> worker manager
    bdd::CopyCache from_worker;  // worker partial image -> main manager
    bdd::Bdd partial;            // this step's partial image (worker side)
    std::size_t relation_nodes = 0;
    std::size_t peak_nodes = 0;
  };

  const TransitionSystem* tr_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace polis::verif
