#include "verif/par_image.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/governor.hpp"

namespace polis::verif {

ParallelImage::ParallelImage(const TransitionSystem& tr, int num_threads)
    : tr_(&tr) {
  POLIS_CHECK(tr.enc != nullptr);
  POLIS_CHECK_MSG(num_threads >= 1, "ParallelImage needs >= 1 thread");
  bdd::BddManager& main = tr.enc->manager();
  const size_t n_clusters = tr.clusters.size();
  const size_t n_shards =
      std::min(static_cast<size_t>(num_threads), std::max<size_t>(n_clusters, 1));

  OBS_SPAN(span, "reach.shard_setup", "verif");

  // LPT schedule: heaviest cluster first onto the least-loaded shard, with
  // relation node count as the weight. Ties break on the lower shard index
  // and clusters keep ascending original order within a shard, so the
  // assignment — and everything downstream of it — is deterministic.
  std::vector<size_t> by_weight(n_clusters);
  std::iota(by_weight.begin(), by_weight.end(), size_t{0});
  std::vector<size_t> weight(n_clusters);
  for (size_t i = 0; i < n_clusters; ++i)
    weight[i] = main.node_count(tr.clusters[i].relation);
  std::stable_sort(by_weight.begin(), by_weight.end(),
                   [&](size_t a, size_t b) { return weight[a] > weight[b]; });
  std::vector<std::vector<size_t>> assignment(n_shards);
  std::vector<size_t> load(n_shards, 0);
  for (const size_t ci : by_weight) {
    const size_t s = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assignment[s].push_back(ci);
    load[s] += weight[ci];
  }
  for (auto& shard : assignment) std::sort(shard.begin(), shard.end());

  // One private manager per shard, mirroring the main manager's variables
  // and order (copy_across requires the orders to be identical). Cluster
  // relations are migrated once, at setup; the per-step traffic is only
  // the frontier in and the partial image out.
  const std::vector<int> order = main.current_order();
  for (size_t s = 0; s < n_shards; ++s) {
    auto w = std::make_unique<Worker>();
    w->mgr = std::make_unique<bdd::BddManager>(main.num_vars());
    for (int v = 0; v < main.num_vars(); ++v)
      w->mgr->set_var_name(v, main.var_name(v));
    if (w->mgr->current_order() != order) w->mgr->set_order(order);
    bdd::CopyCache setup_cache;
    for (const size_t ci : assignment[s]) {
      const Cluster& c = tr.clusters[ci];
      ShardCluster sc;
      sc.relation = w->mgr->copy_across(c.relation, setup_cache);
      sc.quantify_present = c.quantify_present;
      sc.rename_map = register_next_to_present(*w->mgr, c.modified);
      w->clusters.push_back(std::move(sc));
      w->relation_nodes += weight[ci];
    }
    w->partial = w->mgr->zero();
    w->peak_nodes = w->mgr->arena_size();
    workers_.push_back(std::move(w));
  }
  pool_ = std::make_unique<ThreadPool>(n_shards);
  if (span.armed()) {
    span.arg("shards", n_shards);
    span.arg("clusters", n_clusters);
  }
}

ParallelImage::~ParallelImage() {
  // Workers are idle (every `image` call ends in wait_idle); the managers
  // are destroyed here on the caller's thread, under its governor scope,
  // refunding every outstanding node/byte charge.
  pool_.reset();
  workers_.clear();
}

bdd::Bdd ParallelImage::image(const bdd::Bdd& from) {
  bdd::BddManager& main = tr_->enc->manager();
  ResourceGovernor* const gov = ResourceGovernor::current();
  std::vector<std::exception_ptr> errors(workers_.size());

  for (size_t s = 0; s < workers_.size(); ++s) {
    pool_->submit([this, s, &from, &errors, gov] {
      obs::TraceRecorder::global().name_this_thread(
          "verify worker #" + std::to_string(s));
      ResourceGovernor::Scope scope(gov);
      try {
        OBS_SPAN(shard_span, "reach.shard", "verif");
        Worker& w = *workers_[s];
        // Pure concurrent read of the main arena: the main thread is
        // parked in wait_idle and mutates nothing until the barrier.
        const bdd::Bdd local_from = w.mgr->copy_across(from, w.to_worker);
        bdd::Bdd img = w.mgr->zero();
        for (const ShardCluster& c : w.clusters) {
          bdd::Bdd ci =
              w.mgr->and_exists(local_from, c.relation, c.quantify_present);
          img = img | w.mgr->rename(ci, c.rename_map);
        }
        w.partial = std::move(img);
        w.peak_nodes = std::max(w.peak_nodes, w.mgr->arena_size());
        if (shard_span.armed()) {
          shard_span.arg("shard", s);
          shard_span.arg("partial_nodes", w.mgr->node_count(w.partial));
        }
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  pool_->wait_idle();

  for (size_t s = 0; s < workers_.size(); ++s) {
    if (!errors[s]) continue;
    // Release every completed partial before unwinding so a recovery GC
    // (widening) sees no stale roots pinning last step's images.
    for (auto& w : workers_) w->partial = w->mgr->zero();
    // Ascending shard order: with several trips in one step the surfaced
    // error is the lowest shard's, independent of finish order.
    std::rethrow_exception(errors[s]);
  }

  // Deterministic merge on the main manager, ascending shard order. The
  // result is the canonical union — the serial image before it subtracts
  // the reached set — and the fixed order keeps allocation patterns
  // reproducible.
  bdd::Bdd img = main.zero();
  for (auto& w : workers_) {
    img = img | main.copy_across(w->partial, w->from_worker);
    w->partial = w->mgr->zero();  // drop the worker-side root
  }
  return img;
}

std::uint64_t ParallelImage::collect_garbage(std::size_t threshold) {
  std::uint64_t runs = 0;
  for (auto& w : workers_) {
    if (threshold > 0 && w->mgr->table_node_count() > threshold) {
      // Bumps the worker's structure epoch, so the main-side from_worker
      // translation cache self-invalidates on its next use.
      w->mgr->garbage_collect();
      ++runs;
    }
  }
  return runs;
}

std::vector<ParallelImage::WorkerStats> ParallelImage::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerStats s;
    s.clusters = w->clusters.size();
    s.relation_nodes = w->relation_nodes;
    s.peak_nodes = std::max(w->peak_nodes, w->mgr->arena_size());
    s.copy_cache_hits = w->mgr->stats().copy_cache_hits;
    out.push_back(s);
  }
  return out;
}

}  // namespace polis::verif
