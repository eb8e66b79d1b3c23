// Kernel-level stress tests for the CUDD-style BddManager internals:
// randomized operation interleavings checked against truth tables and the
// rebuild sifting oracle, handle churn through compaction and reordering,
// complement-edge canonical-form invariants, the computed-cache contracts
// (key normalization under complementation, resize policy across GC
// boundaries, stats counters), the fused image op and visit-epoch wraparound.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/reorder.hpp"
#include "util/rng.hpp"

namespace polis::bdd {
namespace {

using Table = std::vector<bool>;

Table table_of(BddManager& mgr, const Bdd& f, int n) {
  Table t(static_cast<size_t>(1) << n);
  for (size_t m = 0; m < t.size(); ++m) {
    t[m] = mgr.eval(f, [m](int v) { return (m >> v) & 1; });
  }
  return t;
}

// Interleaves every kernel operation — ITE, complement, cofactor,
// quantification, composition, restrict, GC, in-place sifting (against the
// rebuild oracle) and order resets — over a rolling pool of functions whose
// truth tables are maintained independently. Any canonicity bug, stale cache
// entry, or botched swap/compaction shows up as a truth-table mismatch.
TEST(BddKernel, RandomizedStressVsTruthTables) {
  const int n = 8;
  const size_t kTable = static_cast<size_t>(1) << n;
  BddManager mgr(n);
  Rng rng(1234);

  std::vector<std::pair<Bdd, Table>> pool;
  for (int v = 0; v < n; ++v) {
    Table t(kTable);
    for (size_t m = 0; m < kTable; ++m) t[m] = (m >> v) & 1;
    pool.emplace_back(mgr.var(v), std::move(t));
  }

  auto pick = [&] {
    return static_cast<size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1));
  };
  auto verify_pool = [&] {
    for (const auto& [f, t] : pool) EXPECT_EQ(table_of(mgr, f, n), t);
  };

  for (int it = 0; it < 400; ++it) {
    const int dice = static_cast<int>(rng.uniform(0, 99));
    if (dice < 30) {
      const auto [f, tf] = pool[pick()];
      const auto [g, tg] = pool[pick()];
      const auto [h, th] = pool[pick()];
      const Bdd r = mgr.ite(f, g, h);
      Table want(kTable);
      for (size_t m = 0; m < kTable; ++m) want[m] = tf[m] ? tg[m] : th[m];
      EXPECT_EQ(table_of(mgr, r, n), want);
      pool.emplace_back(r, std::move(want));
    } else if (dice < 42) {
      const auto [f, tf] = pool[pick()];
      const Bdd r = !f;
      Table want(kTable);
      for (size_t m = 0; m < kTable; ++m) want[m] = !tf[m];
      EXPECT_EQ(table_of(mgr, r, n), want);
      pool.emplace_back(r, std::move(want));
    } else if (dice < 52) {
      const auto [f, tf] = pool[pick()];
      const int v = static_cast<int>(rng.uniform(0, n - 1));
      const bool val = rng.flip();
      const Bdd r = mgr.cofactor(f, v, val);
      Table want(kTable);
      for (size_t m = 0; m < kTable; ++m) {
        const size_t fixed =
            (m & ~(static_cast<size_t>(1) << v)) |
            (static_cast<size_t>(val) << v);
        want[m] = tf[fixed];
      }
      EXPECT_EQ(table_of(mgr, r, n), want);
      pool.emplace_back(r, std::move(want));
    } else if (dice < 66) {
      // smooth (∃) or forall (∀) over a small random variable subset.
      const auto [f, tf] = pool[pick()];
      const bool exist = dice < 60;
      std::vector<int> vars;
      for (int v = 0; v < n; ++v)
        if (rng.flip(0.25)) vars.push_back(v);
      if (vars.empty()) vars.push_back(static_cast<int>(rng.uniform(0, n - 1)));
      const Bdd r = exist ? mgr.smooth(f, vars) : mgr.forall(f, vars);
      Table want(kTable);
      for (size_t m = 0; m < kTable; ++m) {
        bool acc = !exist;
        for (size_t combo = 0; combo < (static_cast<size_t>(1) << vars.size());
             ++combo) {
          size_t point = m;
          for (size_t i = 0; i < vars.size(); ++i) {
            point &= ~(static_cast<size_t>(1) << vars[i]);
            point |= ((combo >> i) & 1) << vars[i];
          }
          acc = exist ? (acc || tf[point]) : (acc && tf[point]);
        }
        want[m] = acc;
      }
      EXPECT_EQ(table_of(mgr, r, n), want);
      pool.emplace_back(r, std::move(want));
    } else if (dice < 74) {
      const auto [f, tf] = pool[pick()];
      const auto [g, tg] = pool[pick()];
      const int v = static_cast<int>(rng.uniform(0, n - 1));
      const Bdd r = mgr.compose(f, v, g);
      Table want(kTable);
      for (size_t m = 0; m < kTable; ++m) {
        const size_t point =
            (m & ~(static_cast<size_t>(1) << v)) |
            (static_cast<size_t>(tg[m]) << v);
        want[m] = tf[point];
      }
      EXPECT_EQ(table_of(mgr, r, n), want);
      pool.emplace_back(r, std::move(want));
    } else if (dice < 80) {
      // restrict only promises agreement on the care set; table it
      // afterwards so it can live in the pool.
      const auto [f, tf] = pool[pick()];
      const auto [care, tcare] = pool[pick()];
      const Bdd r = mgr.restrict(f, care);
      Table got = table_of(mgr, r, n);
      for (size_t m = 0; m < kTable; ++m) {
        if (tcare[m]) {
          EXPECT_EQ(got[m], tf[m]) << "minterm " << m;
        }
      }
      pool.emplace_back(r, std::move(got));
    } else if (dice < 86) {
      mgr.prune_dead_nodes();
    } else if (dice < 90) {
      mgr.garbage_collect();
    } else if (dice < 95) {
      SiftOptions options;
      options.verify_with_oracle = true;  // every swap vs sift_by_rebuild
      sift(mgr, options);
    } else {
      mgr.set_order(rng.permutation(n));
    }

    // Churn handles: drop random non-variable entries once the pool is full,
    // creating garbage mid-stream.
    while (pool.size() > 24) {
      const size_t victim = static_cast<size_t>(
          rng.uniform(n, static_cast<std::int64_t>(pool.size()) - 1));
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (it % 64 == 63) verify_pool();
  }

  mgr.garbage_collect();
  verify_pool();
  const KernelStats s = mgr.stats();
  EXPECT_GT(s.cache_lookups, 0u);
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_GE(s.peak_nodes, mgr.live_node_count());
}

// Thousands of live handles surviving prune, compaction, sifting and order
// resets: every handle must keep denoting its function, and copies must stay
// identical to their originals.
TEST(BddKernel, HandleChurnThroughCompactionAndReorder) {
  const int n = 12;
  BddManager mgr(n);
  Rng rng(77);

  // Each handle is a product of 4 literals; remember the literals so the
  // function can be spot-checked without a full truth table.
  struct Product {
    Bdd f;
    std::vector<std::pair<int, bool>> literals;  // (var, positive)
  };
  std::vector<Product> handles;
  handles.reserve(3000);
  for (int i = 0; i < 3000; ++i) {
    Product p;
    p.f = mgr.one();
    for (int l = 0; l < 4; ++l) {
      const int v = static_cast<int>(rng.uniform(0, n - 1));
      const bool positive = rng.flip();
      p.literals.emplace_back(v, positive);
      p.f = p.f & (positive ? mgr.var(v) : !mgr.var(v));
    }
    handles.push_back(std::move(p));
  }

  auto verify = [&] {
    for (const Product& p : handles) {
      // On the satisfying assignment the product is true...
      std::vector<int> want(static_cast<size_t>(n), -1);
      bool consistent = true;
      for (const auto& [v, positive] : p.literals) {
        const int bit = positive ? 1 : 0;
        if (want[static_cast<size_t>(v)] == (1 - bit)) consistent = false;
        want[static_cast<size_t>(v)] = bit;
      }
      const bool sat = mgr.eval(p.f, [&](int v) {
        return want[static_cast<size_t>(v)] == 1;
      });
      EXPECT_EQ(sat, consistent);
      // ...and false when the first literal is flipped.
      if (consistent) {
        const int flip_var = p.literals[0].first;
        EXPECT_FALSE(mgr.eval(p.f, [&](int v) {
          const int bit = want[static_cast<size_t>(v)];
          return v == flip_var ? bit != 1 : bit == 1;
        }));
      }
    }
  };

  const Bdd pinned = handles[0].f;  // a copy that must track its original

  verify();
  // Drop a random half → garbage; prune in place.
  for (size_t i = handles.size(); i-- > 0;) {
    if (rng.flip()) handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(i));
  }
  mgr.prune_dead_nodes();
  verify();

  const size_t live = mgr.live_node_count();
  mgr.garbage_collect();  // compaction must not change the live set
  EXPECT_EQ(mgr.live_node_count(), live);
  // live_node_count counts subfunctions (phase pairs); each live physical
  // node contributes one or two of them, and after a compaction the table
  // holds exactly the live physical nodes.
  EXPECT_GE(mgr.live_node_count(), mgr.table_node_count());
  EXPECT_LE(mgr.live_node_count(), 2 * mgr.table_node_count());
  EXPECT_EQ(mgr.arena_size(), mgr.table_node_count() + 1);  // + terminal
  EXPECT_TRUE(mgr.check_canonical_form());
  verify();

  sift(mgr);
  verify();

  std::vector<int> order = mgr.current_order();
  std::reverse(order.begin(), order.end());
  mgr.set_order(order);
  verify();

  // Second churn round through compaction.
  for (size_t i = handles.size(); i-- > 1;) {
    if (rng.flip()) handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(i));
  }
  mgr.garbage_collect();
  verify();
  EXPECT_EQ(pinned, handles[0].f);
}

// Under complement edges NOT is a pointer flip: no recursion, no cache
// traffic, no new nodes, and the involution is handle-identical.
TEST(BddKernel, ComplementIsFreePointerFlip) {
  BddManager mgr(6);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (mgr.var(2) ^ mgr.var(3)) |
                (mgr.var(4) & !mgr.var(5));

  mgr.reset_stats();
  const Bdd g = !f;
  const KernelStats after = mgr.stats();
  EXPECT_EQ(after.cache_lookups, 0u);
  EXPECT_EQ(after.cache_inserts, 0u);
  EXPECT_EQ(after.unique_lookups, 0u);
  EXPECT_EQ(after.nodes_created, 0u);

  // The complement is the same node through a tagged edge...
  EXPECT_EQ(g.raw_index(), f.raw_index() ^ 1u);
  EXPECT_NE(g.is_complemented(), f.is_complemented());
  // ...and negating twice restores the original handle bit-for-bit.
  EXPECT_EQ(!g, f);
  EXPECT_EQ((!g).raw_index(), f.raw_index());

  // It is still a genuine complement as a function.
  EXPECT_TRUE((f & g).is_zero());
  EXPECT_TRUE((f | g).is_one());
}

// The canonical-form invariant: no stored then-edge is ever complemented,
// at rest and through every mutation path (apply, sifting, pruning,
// compaction, order replacement).
TEST(BddKernel, ComplementEdgeCanonicalFormInvariants) {
  const int n = 8;
  BddManager mgr(n);
  Rng rng(99);

  std::vector<Bdd> pool;
  for (int v = 0; v < n; ++v) pool.push_back(mgr.var(v));
  auto pick = [&] {
    return pool[static_cast<size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  // Via the public API: a regular handle's stored children are what high()
  // and low() return, so the canonical form says high() of a regular handle
  // is never complemented.
  auto check_regular_then_edges = [&](const Bdd& root) {
    std::vector<Bdd> stack{root};
    while (!stack.empty()) {
      Bdd f = stack.back();
      stack.pop_back();
      if (f.is_constant()) continue;
      const Bdd reg = f.is_complemented() ? !f : f;
      EXPECT_FALSE(reg.high().is_complemented())
          << "complemented then-edge stored at node " << reg.raw_index();
      stack.push_back(reg.high());
      stack.push_back(reg.low());
    }
  };

  for (int it = 0; it < 200; ++it) {
    const int dice = static_cast<int>(rng.uniform(0, 9));
    Bdd r;
    switch (dice) {
      case 0: r = pick() & pick(); break;
      case 1: r = pick() | pick(); break;
      case 2: r = pick() ^ pick(); break;
      case 3: r = !pick(); break;
      case 4: r = mgr.ite(pick(), pick(), pick()); break;
      case 5: r = mgr.smooth(pick(), {static_cast<int>(rng.uniform(0, n - 1))});
              break;
      case 6: r = mgr.restrict(pick(), pick()); break;
      case 7: mgr.prune_dead_nodes(); r = pick(); break;
      case 8: mgr.garbage_collect(); r = pick(); break;
      default: sift(mgr); r = pick(); break;
    }
    // bnot(bnot(f)) is handle-identical for every pool member.
    EXPECT_EQ(!!r, r);
    pool.push_back(r);
    while (pool.size() > 24) {
      pool.erase(pool.begin() +
                 static_cast<std::ptrdiff_t>(rng.uniform(
                     n, static_cast<std::int64_t>(pool.size()) - 1)));
    }
    if (it % 16 == 15) {
      EXPECT_TRUE(mgr.check_canonical_form());
      for (const Bdd& f : pool) check_regular_then_edges(f);
    }
  }
  mgr.garbage_collect();
  EXPECT_TRUE(mgr.check_canonical_form());
  for (const Bdd& f : pool) check_regular_then_edges(f);
}

// Cache-key normalization under complementation must agree with plain
// (un-complemented) evaluation: the algebraic identities that share one
// cache entry across a complementation orbit have to hold handle-for-handle.
TEST(BddKernel, CacheKeyNormalizationAgreesWithEvaluation) {
  const int n = 6;
  BddManager mgr(n);
  Rng rng(4242);

  std::vector<Bdd> pool;
  for (int v = 0; v < n; ++v) pool.push_back(mgr.var(v));
  auto pick = [&] {
    return pool[static_cast<size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  for (int it = 0; it < 150; ++it) {
    const Bdd f = pick();
    const Bdd g = pick();
    const Bdd h = pick();
    // De Morgan / complement identities, all handle-identical because
    // canonicity makes equal functions equal handles.
    EXPECT_EQ(!(f & g), (!f) | (!g));
    EXPECT_EQ(!(f | g), (!f) & (!g));
    // XOR's orbit: one cache entry serves all four phase combinations.
    EXPECT_EQ(f ^ g, !f ^ !g);
    EXPECT_EQ(!(f ^ g), !f ^ g);
    EXPECT_EQ(!(f ^ g), f ^ !g);
    // ITE normalization identities.
    EXPECT_EQ(mgr.ite(f, g, h), mgr.ite(!f, h, g));
    EXPECT_EQ(mgr.ite(f, g, h), !mgr.ite(f, !g, !h));
    // And against brute-force evaluation on a few random points.
    for (int p = 0; p < 8; ++p) {
      const std::uint64_t m = static_cast<std::uint64_t>(
          rng.uniform(0, (std::int64_t{1} << n) - 1));
      auto assign = [m](int v) { return (m >> v) & 1; };
      EXPECT_EQ(mgr.eval(!f, assign), !mgr.eval(f, assign));
      EXPECT_EQ(mgr.eval(f ^ g, assign),
                mgr.eval(f, assign) != mgr.eval(g, assign));
      EXPECT_EQ(mgr.eval(f & g, assign),
                mgr.eval(f, assign) && mgr.eval(g, assign));
    }
    pool.push_back(mgr.ite(f, g, h));
    pool.push_back(f ^ g);
    while (pool.size() > 20) {
      pool.erase(pool.begin() +
                 static_cast<std::ptrdiff_t>(rng.uniform(
                     n, static_cast<std::int64_t>(pool.size()) - 1)));
    }
  }
}

// Regression for the adaptive-resize window: a garbage collection clears
// the computed cache, and the hits earned against the discarded entries
// must not justify doubling the now-empty cache.
TEST(BddKernel, CacheResizeWindowRestartsAcrossGcBoundary) {
  const int n = 14;
  BddManager mgr(n);
  Rng rng(31);
  std::vector<Bdd> funcs;
  for (int v = 0; v < n; ++v) funcs.push_back(mgr.var(v));

  // Warm the cache with a workload that earns a healthy hit rate.
  for (int i = 0; i < 3000; ++i) {
    Bdd f = funcs[static_cast<size_t>(rng.uniform(0, n - 1))] &
            funcs[static_cast<size_t>(rng.uniform(0, n - 1))];
    f = f ^ funcs[static_cast<size_t>(rng.uniform(0, n - 1))];
    funcs.push_back(std::move(f));
    if (funcs.size() > 48) funcs.resize(static_cast<size_t>(n));
  }
  ASSERT_GT(mgr.stats().cache_hits, 0u);

  funcs.resize(static_cast<size_t>(n));
  const std::uint64_t resizes_before = mgr.stats().cache_resizes;
  const size_t capacity_before = mgr.stats().cache_capacity;
  mgr.garbage_collect();  // clears the cache → must restart the window
  EXPECT_EQ(mgr.stats().cache_resizes, resizes_before);
  EXPECT_EQ(mgr.stats().cache_capacity, capacity_before);

  // A handful of post-GC operations cannot legitimately double the cache:
  // the fresh window has seen almost no lookups, whatever the pre-GC
  // counters accumulated.
  for (int v = 0; v + 1 < n; ++v) {
    const Bdd f = funcs[static_cast<size_t>(v)] &
                  funcs[static_cast<size_t>(v + 1)];
    ASSERT_FALSE(f.is_null());
  }
  EXPECT_EQ(mgr.stats().cache_resizes, resizes_before);
  EXPECT_EQ(mgr.stats().cache_capacity, capacity_before);

  // The policy still works after the boundary: sustained pressure with a
  // real hit rate may grow the cache again, and the capacity invariants
  // hold either way.
  for (int i = 0; i < 20000; ++i) {
    Bdd f = funcs[static_cast<size_t>(rng.uniform(0, n - 1))] &
            funcs[static_cast<size_t>(rng.uniform(0, n - 1))];
    f = f | funcs[static_cast<size_t>(rng.uniform(0, n - 1))];
    f = f ^ funcs[static_cast<size_t>(rng.uniform(0, n - 1))];
    funcs.push_back(std::move(f));
    if (funcs.size() > 64) funcs.resize(static_cast<size_t>(n));
  }
  const KernelStats s = mgr.stats();
  EXPECT_GE(s.cache_resizes, resizes_before);
  EXPECT_EQ(s.cache_capacity & (s.cache_capacity - 1), 0u);
}

TEST(BddKernel, CacheStatsAndFreeListRecycling) {
  const int n = 16;
  BddManager mgr(n);
  Rng rng(5);
  std::vector<Bdd> funcs;
  for (int v = 0; v < n; ++v) funcs.push_back(mgr.var(v));
  for (int i = 0; i < 4000; ++i) {
    Bdd f = funcs[static_cast<size_t>(rng.uniform(0, n - 1))] &
            funcs[static_cast<size_t>(rng.uniform(0, n - 1))];
    f = f | funcs[static_cast<size_t>(rng.uniform(0, n - 1))];
    funcs.push_back(std::move(f));
    if (funcs.size() > 64) funcs.resize(static_cast<size_t>(n));
  }

  const KernelStats s = mgr.stats();
  EXPECT_GT(s.cache_lookups, 0u);
  EXPECT_GT(s.cache_hit_rate(), 0.0);
  EXPECT_LE(s.cache_hit_rate(), 1.0);
  // Direct-mapped cache stays a power of two through resizes.
  EXPECT_NE(s.cache_capacity, 0u);
  EXPECT_EQ(s.cache_capacity & (s.cache_capacity - 1), 0u);
  EXPECT_GE(s.peak_nodes, mgr.live_node_count());

  // Dropping the intermediates and pruning feeds the free list; subsequent
  // allocation must recycle slots instead of growing the arena.
  funcs.resize(static_cast<size_t>(n));
  mgr.prune_dead_nodes();
  const size_t arena = mgr.arena_size();
  for (int i = 0; i < 200; ++i) {
    Bdd f = funcs[static_cast<size_t>(rng.uniform(0, n - 1))] &
            funcs[static_cast<size_t>(rng.uniform(0, n - 1))];
    funcs.push_back(std::move(f));
  }
  EXPECT_GT(mgr.stats().nodes_recycled, 0u);
  EXPECT_LE(mgr.arena_size(), arena);
}

// rename() is simultaneous substitution: swapping a variable pair in one
// call must match the truth-table permutation (the sequential compose chain
// would get pairwise swaps wrong). It is the unfused reference the fused
// image op is checked against below.
TEST(BddKernel, RenameIsSimultaneousSubstitution) {
  const int n = 6;
  BddManager mgr(n);
  Rng rng(99);
  const int map = mgr.register_rename({{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  for (int i = 0; i < 40; ++i) {
    Bdd f = mgr.var(static_cast<int>(rng.uniform(0, n - 1)));
    for (int j = 0; j < 6; ++j) {
      const Bdd g = mgr.var(static_cast<int>(rng.uniform(0, n - 1)));
      f = (j & 1) ? (f ^ g) : mgr.ite(f, g, !g);
    }
    const Bdd r = mgr.rename(f, map);
    const Table tf = table_of(mgr, f, n);
    Table want(tf.size());
    for (size_t m = 0; m < tf.size(); ++m) {
      // Point m evaluated on r = f evaluated with x0<->x1, x2<->x3 swapped.
      size_t p = m & ~size_t{0xF};
      p |= ((m >> 1) & 1) << 0 | ((m >> 0) & 1) << 1;
      p |= ((m >> 3) & 1) << 2 | ((m >> 2) & 1) << 3;
      want[m] = tf[p];
    }
    EXPECT_EQ(table_of(mgr, r, n), want);
  }
  EXPECT_GT(mgr.stats().rename_calls, 0u);
}

// The fused image op must be handle-identical to rename(and_exists(...)) on
// random DAGs over interleaved (present, next) pairs — including quantifier
// sets that leave a present twin in the support, where the relabel is not
// order-preserving and falls back to ITE — and on every terminal case.
TEST(BddKernel, AndExistsRenameEqualsRenameOfAndExists) {
  const int pairs = 5;
  BddManager mgr(2 * pairs);  // var 2i = present i, var 2i + 1 = next i
  std::vector<std::pair<int, int>> next_to_present;
  for (int i = 0; i < pairs; ++i) next_to_present.emplace_back(2 * i + 1, 2 * i);
  const int map = mgr.register_rename(next_to_present);
  Rng rng(2024);
  const auto random_fn = [&](bool with_next) {
    const auto pick = [&] {
      const int i = static_cast<int>(rng.uniform(0, pairs - 1));
      return mgr.var(with_next && rng.flip() ? 2 * i + 1 : 2 * i);
    };
    Bdd f = pick();
    for (int j = 0; j < 5; ++j) {
      switch (rng.uniform(0, 3)) {
        case 0: f = f & pick(); break;
        case 1: f = f | pick(); break;
        case 2: f = f ^ pick(); break;
        default: f = mgr.ite(pick(), f, !f); break;
      }
    }
    return f;
  };
  const auto expect_fused = [&](const Bdd& f, const Bdd& g,
                                const std::vector<int>& vars) {
    EXPECT_EQ(mgr.and_exists_rename(f, g, vars, map),
              mgr.rename(mgr.and_exists(f, g, vars), map));
  };
  for (int trial = 0; trial < 200; ++trial) {
    const Bdd from = random_fn(/*with_next=*/false);
    const Bdd relation = random_fn(/*with_next=*/true);
    std::vector<int> vars;
    for (int i = 0; i < pairs; ++i)
      if (rng.flip(0.6)) vars.push_back(2 * i);
    expect_fused(from, relation, vars);
    expect_fused(relation, from, vars);
    expect_fused(from, relation, {});
  }
  const Bdd f = random_fn(true);
  const std::vector<int> all = {0, 2, 4, 6, 8};
  for (const std::vector<int>& vars : {std::vector<int>{}, all}) {
    expect_fused(mgr.one(), mgr.one(), vars);
    expect_fused(mgr.zero(), f, vars);
    expect_fused(f, mgr.zero(), vars);
    expect_fused(mgr.one(), f, vars);
    expect_fused(f, mgr.one(), vars);
    expect_fused(f, f, vars);
    expect_fused(f, !f, vars);
  }
  EXPECT_TRUE(mgr.check_canonical_form());
}

// The fused op keys its cache on (f, g, cube) alone, so a manager accepts
// one map for it: a second, different map is a CheckError, while
// re-registering an identical map returns the same id and stays accepted.
TEST(BddKernel, AndExistsRenameAcceptsOneMapPerManager) {
  BddManager mgr(4);
  const int first = mgr.register_rename({{1, 0}, {3, 2}});
  const int other = mgr.register_rename({{3, 2}});
  EXPECT_EQ(mgr.register_rename({{1, 0}, {3, 2}}), first);
  EXPECT_NE(other, first);
  const Bdd from = mgr.var(0) & !mgr.var(2);
  const Bdd relation = mgr.var(0) & mgr.var(1) & !mgr.var(3);
  const Bdd img = mgr.and_exists_rename(from, relation, {0}, first);
  EXPECT_EQ(img, mgr.var(0) & !mgr.var(2));
  EXPECT_THROW(mgr.and_exists_rename(from, relation, {0}, other), CheckError);
  EXPECT_EQ(mgr.and_exists_rename(from, relation, {0}, first), img);
}

// Visit marks are 32-bit epochs. When the counter wraps, the buffer is
// zeroed, so marks left by the previous cycle never alias a fresh epoch —
// node counts, liveness and collection stay exact across the wrap.
TEST(BddKernel, VisitEpochWraparoundKeepsTraversalsExact) {
  const int n = 8;
  BddManager mgr(n);
  Bdd f = mgr.var(0);
  for (int v = 1; v < n; ++v) f = (v & 1) ? (f ^ mgr.var(v)) : (f | mgr.var(v));
  const Bdd g = f & mgr.var(3);
  // Epochs 1, 2 and 3: every live subfunction, then g's, then f's. The
  // handles of g that f does not reach (g's root among them) keep mark 2.
  const size_t live = mgr.live_node_count();
  const size_t g_nodes = mgr.node_count(g);
  const size_t f_nodes = mgr.node_count(f);
  { Bdd garbage = f ^ mgr.var(1) ^ mgr.var(6); }

  // The next traversal wraps the counter, and the one after it counts g at
  // epoch 2 again: a surviving mark would make it count nothing.
  mgr.set_visit_epoch(0xffffffffu);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(mgr.node_count(f), f_nodes) << "round " << round;
    EXPECT_EQ(mgr.node_count(g), g_nodes) << "round " << round;
    EXPECT_EQ(mgr.live_node_count(), live) << "round " << round;
  }
  mgr.garbage_collect();
  EXPECT_EQ(mgr.live_node_count(), live);
  EXPECT_EQ(mgr.node_count(f), f_nodes);
  EXPECT_EQ(mgr.node_count(g), g_nodes);
  EXPECT_EQ(f, [&] {
    Bdd h = mgr.var(0);
    for (int v = 1; v < n; ++v)
      h = (v & 1) ? (h ^ mgr.var(v)) : (h | mgr.var(v));
    return h;
  }());
  EXPECT_TRUE(mgr.check_canonical_form());
  EXPECT_THROW(mgr.set_visit_epoch(0), CheckError);
}

}  // namespace
}  // namespace polis::bdd
