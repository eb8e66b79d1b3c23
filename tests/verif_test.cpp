// The symbolic verification engine (src/verif): the and_exists relational
// product against its smooth(f & g) definition, GC safety during the
// fixpoint, symbolic-vs-explicit cross-checks on every small example
// network, the degradation ladder under governor trips, assertion checking
// with counterexample replay, and the reached-set care filter shrinking an
// s-graph beyond the local analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/synthesis.hpp"
#include "core/systems.hpp"
#include "frontend/parser.hpp"
#include "sgraph/build.hpp"
#include "util/governor.hpp"
#include "util/rng.hpp"
#include "verif/care.hpp"
#include "verif/check.hpp"
#include "verif/encode.hpp"
#include "verif/enumerate.hpp"
#include "verif/reach.hpp"
#include "verif/transition.hpp"
#include "verif/verif.hpp"

namespace {

using namespace polis;
using bdd::Bdd;
using bdd::BddManager;

// --- and_exists -------------------------------------------------------------

TEST(AndExists, TerminalsAndIdentities) {
  BddManager mgr(4);
  const Bdd a = mgr.var(0), b = mgr.var(1);
  EXPECT_EQ(mgr.and_exists(mgr.zero(), a, {0}), mgr.zero());
  EXPECT_EQ(mgr.and_exists(a, mgr.zero(), {1}), mgr.zero());
  EXPECT_EQ(mgr.and_exists(mgr.one(), mgr.one(), {0, 1}), mgr.one());
  // ∃a. a&b = b; ∃b. a&b = a; ∃{}. f&g = f&g.
  EXPECT_EQ(mgr.and_exists(a, b, {0}), b);
  EXPECT_EQ(mgr.and_exists(a, b, {1}), a);
  EXPECT_EQ(mgr.and_exists(a, b, {}), a & b);
  // One operand constant one: plain smoothing.
  EXPECT_EQ(mgr.and_exists(mgr.one(), a & b, {0}), b);
  // f == g collapses to smoothing of f.
  EXPECT_EQ(mgr.and_exists(a ^ b, a ^ b, {0}), mgr.one());
}

TEST(AndExists, MatchesSmoothOfConjunctionOnRandomFunctions) {
  constexpr int kVars = 10;
  BddManager mgr(kVars);
  Rng rng(20260806);
  auto random_fn = [&]() {
    Bdd f = rng.flip() ? mgr.var(static_cast<int>(rng.uniform(0, kVars - 1)))
                       : mgr.nvar(static_cast<int>(rng.uniform(0, kVars - 1)));
    for (int i = 0; i < 14; ++i) {
      const Bdd v = mgr.var(static_cast<int>(rng.uniform(0, kVars - 1)));
      switch (rng.uniform(0, 3)) {
        case 0: f = f & v; break;
        case 1: f = f | v; break;
        case 2: f = f ^ v; break;
        default: f = mgr.ite(v, f, !f); break;
      }
    }
    return f;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const Bdd f = random_fn();
    const Bdd g = random_fn();
    std::vector<int> vars;
    for (int v = 0; v < kVars; ++v)
      if (rng.flip(0.4)) vars.push_back(v);
    EXPECT_EQ(mgr.and_exists(f, g, vars), mgr.smooth(f & g, vars))
        << "trial " << trial;
  }
  const auto& stats = mgr.stats();
  EXPECT_GT(stats.and_exists_calls, 0u);
  EXPECT_GT(stats.and_exists_recursions, stats.and_exists_calls);
  EXPECT_GT(stats.and_exists_cache_hits, 0u);
}

// --- helpers ----------------------------------------------------------------

/// Sorted explicit mirror of a symbolic set (membership via eval).
bool contains(verif::NetworkEncoding& enc, const Bdd& set,
              const verif::GlobalState& s) {
  return enc.manager().eval(
      set, [&](int var) { return enc.state_bit(s, var); });
}

// --- symbolic vs explicit cross-check ---------------------------------------

void expect_symbolic_matches_explicit(const cfsm::Network& net) {
  const auto explicit_states = verif::enumerate_reachable_states(net);
  ASSERT_TRUE(explicit_states.has_value()) << net.name();

  BddManager mgr;
  verif::NetworkEncoding enc(net, mgr);
  verif::TransitionSystem tr = verif::build_transition_system(enc);
  const verif::ReachResult reach = verif::reachable_states(tr);

  EXPECT_TRUE(reach.stats.exact);
  EXPECT_DOUBLE_EQ(reach.stats.reached_states,
                   static_cast<double>(explicit_states->size()))
      << net.name();
  for (const verif::GlobalState& s : *explicit_states)
    EXPECT_TRUE(contains(enc, reach.reached, s)) << net.name();
  // The layers partition the reached set and sum to the same count.
  double layered = 0;
  for (const Bdd& layer : reach.layers)
    layered += mgr.sat_count(layer, enc.num_present_vars());
  EXPECT_DOUBLE_EQ(layered, reach.stats.reached_states);
}

std::shared_ptr<cfsm::Network> blinker_network() {
  const frontend::ParsedFile file =
      frontend::parse("module blink {\n"
                      "  input tick;\n"
                      "  output led : int[2];\n"
                      "  state on : int[2] = 0;\n"
                      "  when present(tick) && on == 0 -> { on := 1; emit led(1); }\n"
                      "  when present(tick) && on == 1 -> { on := 0; emit led(0); }\n"
                      "}\n"
                      "network blinker { instance b : blink; }\n");
  return file.networks.at("blinker");
}

TEST(Reachability, MatchesExplicitEnumerationOnBlinker) {
  expect_symbolic_matches_explicit(*blinker_network());
}

TEST(Reachability, MatchesExplicitEnumerationOnMeter) {
  expect_symbolic_matches_explicit(*systems::meter_network());
}

TEST(Reachability, MatchesExplicitEnumerationOnDashCore) {
  expect_symbolic_matches_explicit(*systems::dash_core_network());
}

// --- GC safety during the fixpoint ------------------------------------------

TEST(Reachability, GcChurnLeavesReachedSetIdentical) {
  const auto net = systems::meter_network();
  const auto explicit_states = verif::enumerate_reachable_states(*net);
  ASSERT_TRUE(explicit_states.has_value());

  // Baseline: no collection at all.
  BddManager calm_mgr;
  verif::NetworkEncoding calm_enc(*net, calm_mgr);
  verif::TransitionSystem calm_tr = verif::build_transition_system(calm_enc);
  verif::ReachOptions calm_opts;
  calm_opts.gc_threshold = 0;
  const verif::ReachResult calm = verif::reachable_states(calm_tr, calm_opts);
  EXPECT_EQ(calm.stats.gc_runs, 0u);

  // Churn: an artificially tiny threshold forces a collection after every
  // iteration while frontier/reached/layer handles are live.
  BddManager churn_mgr;
  verif::NetworkEncoding churn_enc(*net, churn_mgr);
  verif::TransitionSystem churn_tr = verif::build_transition_system(churn_enc);
  verif::ReachOptions churn_opts;
  churn_opts.gc_threshold = 1;
  const verif::ReachResult churn =
      verif::reachable_states(churn_tr, churn_opts);
  EXPECT_GT(churn.stats.gc_runs, 0u);

  // Same fixpoint, bit for bit: same iteration count, same state count, and
  // the same membership answer on every explicitly-reached state.
  EXPECT_EQ(churn.stats.iterations, calm.stats.iterations);
  EXPECT_DOUBLE_EQ(churn.stats.reached_states, calm.stats.reached_states);
  EXPECT_EQ(churn.layers.size(), calm.layers.size());
  for (const verif::GlobalState& s : *explicit_states) {
    EXPECT_TRUE(contains(calm_enc, calm.reached, s));
    EXPECT_TRUE(contains(churn_enc, churn.reached, s));
  }
  for (size_t i = 0; i < churn.layers.size(); ++i)
    EXPECT_DOUBLE_EQ(
        churn_mgr.sat_count(churn.layers[i], churn_enc.num_present_vars()),
        calm_mgr.sat_count(calm.layers[i], calm_enc.num_present_vars()))
        << "layer " << i;
}

// Refactor oracle: the sat count of every BFS onion layer of the generated
// one- and two-channel dashboards, checked in from a known-good build
// (tests/golden/README). A fixpoint change that moves one state to another
// layer, or adds or drops a layer, fails here.
TEST(Reachability, LayerSatCountsMatchGoldens) {
  for (const int channels : {1, 2}) {
    const std::string name = "dash_gen" + std::to_string(channels);
    std::ifstream in(std::string(POLIS_GOLDEN_DIR) + "/" + name +
                     ".layers.txt");
    ASSERT_TRUE(in) << name;
    std::vector<double> golden;
    for (double count = 0; in >> count;) golden.push_back(count);

    const auto net = systems::generated_dash_network(channels);
    BddManager mgr;
    verif::NetworkEncoding enc(*net, mgr);
    verif::TransitionSystem tr = verif::build_transition_system(enc);
    const verif::ReachResult reach = verif::reachable_states(tr);
    ASSERT_EQ(reach.layers.size(), golden.size()) << name;
    for (size_t k = 0; k < golden.size(); ++k)
      EXPECT_EQ(mgr.sat_count(reach.layers[k], enc.num_present_vars()),
                golden[k])
          << name << " layer " << k;
  }
}

// --- the serial image step ---------------------------------------------------

// At every BFS layer the step (subtract per cluster, pairwise union) is the
// same handle as the left-fold union of every cluster's image minus the
// reached set — canonicity makes the schedule invisible. Each cluster's
// fused image is also the same handle as the unfused rename(and_exists).
TEST(ImageStep, EqualsLeftFoldMinusReachedAtEveryLayer) {
  const std::vector<std::shared_ptr<cfsm::Network>> nets = {
      blinker_network(), systems::meter_network(),
      systems::dash_core_network(), systems::microwave_network(),
      systems::generated_dash_network(2)};
  for (const auto& net : nets) {
    BddManager mgr;
    verif::NetworkEncoding enc(*net, mgr);
    verif::TransitionSystem tr = verif::build_transition_system(enc);
    const verif::ReachResult reach = verif::reachable_states(tr);
    ASSERT_FALSE(reach.layers.empty()) << net->name();
    Bdd reached = mgr.zero();
    for (size_t k = 0; k < reach.layers.size(); ++k) {
      const Bdd& layer = reach.layers[k];
      reached = reached | layer;
      Bdd fold = mgr.zero();
      for (const verif::Cluster& c : tr.clusters) {
        const Bdd img = verif::image_one(tr, c, layer);
        EXPECT_EQ(img, mgr.rename(mgr.and_exists(layer, c.relation,
                                                 c.quantify_present),
                                  tr.next_to_present))
            << net->name() << " layer " << k << " cluster " << c.subject;
        fold = fold | img;
      }
      const Bdd step = verif::image(tr, layer, reached);
      EXPECT_EQ(step, fold & !reached) << net->name() << " layer " << k;
      EXPECT_EQ(step, k + 1 < reach.layers.size() ? reach.layers[k + 1]
                                                  : mgr.zero())
          << net->name() << " layer " << k;
    }
    EXPECT_EQ(reached, reach.reached) << net->name();
  }
}

TEST(ImageStep, NoClustersGiveTheEmptyImage) {
  const auto net = systems::meter_network();
  BddManager mgr;
  verif::NetworkEncoding enc(*net, mgr);
  verif::TransitionSystem empty;
  empty.enc = &enc;
  const Bdd init = enc.initial_set();
  EXPECT_EQ(verif::image(empty, init, mgr.zero()), mgr.zero());
  EXPECT_EQ(verif::image(empty, init, init), mgr.zero());
}

// Both fixpoint branches call the one step: a degrade-mode run whose
// governor never trips walks exactly the default run's layers.
TEST(ImageStep, DegradeBranchWalksTheDefaultLayers) {
  const auto net = systems::dash_core_network();
  BddManager mgr;
  verif::NetworkEncoding enc(*net, mgr);
  verif::TransitionSystem tr = verif::build_transition_system(enc);
  const verif::ReachResult plain = verif::reachable_states(tr);
  verif::ReachOptions degrade;
  degrade.degrade_on_budget = true;
  const verif::ReachResult degraded = verif::reachable_states(tr, degrade);
  EXPECT_EQ(degraded.stats.budget_recoveries, 0);
  EXPECT_TRUE(degraded.stats.exact);
  EXPECT_TRUE(degraded.stats.converged);
  EXPECT_EQ(degraded.stats.iterations, plain.stats.iterations);
  ASSERT_EQ(degraded.layers.size(), plain.layers.size());
  for (size_t k = 0; k < plain.layers.size(); ++k)
    EXPECT_EQ(degraded.layers[k], plain.layers[k]) << "layer " << k;
  EXPECT_EQ(degraded.reached, plain.reached);
}

// Work-counter guard: the fused subtract-then-pairwise step creates ~588K
// nodes and makes ~1.94M cache lookups on the two-channel generated dash;
// the separate rename pass it replaced took ~706K and ~2.39M, the left fold
// before that ~1.24M nodes. The cache never reaches its cap here, so both
// counters are deterministic and a return of either trips this.
TEST(ImageStep, TwoChannelDashStaysUnderNodeCreationBudget) {
  const auto net = systems::generated_dash_network(2);
  BddManager mgr;
  verif::NetworkEncoding enc(*net, mgr);
  verif::TransitionSystem tr = verif::build_transition_system(enc);
  const bdd::KernelStats before = mgr.stats();
  const verif::ReachResult reach = verif::reachable_states(tr);
  const bdd::KernelStats after = mgr.stats();
  EXPECT_TRUE(reach.stats.exact);
  EXPECT_LE(after.nodes_created - before.nodes_created, 650000u);
  EXPECT_LE(after.cache_lookups - before.cache_lookups, 2100000u);
}

// --- frontend assert clause -------------------------------------------------

TEST(AssertClause, ParsesIntoMachineAssertions) {
  const auto m = frontend::parse_module(
      "module counter {\n"
      "  input tick;\n"
      "  state n : int[4] = 0;\n"
      "  assert n <= 3;\n"
      "  assert !(n == 2) || present(tick);\n"
      "  when present(tick) -> { n := n + 1; }\n"
      "}\n");
  ASSERT_EQ(m->assertions().size(), 2u);
  EXPECT_EQ(m->assertions()[0].line, 4);
  EXPECT_EQ(m->assertions()[1].line, 5);
}

TEST(AssertClause, UnknownVariableReportsTheAssertLine) {
  try {
    frontend::parse_module(
        "module counter {\n"
        "  input tick;\n"
        "  state n : int[4] = 0;\n"
        "  assert m <= 3;\n"
        "  when present(tick) -> { n := n + 1; }\n"
        "}\n");
    FAIL() << "expected ParseError";
  } catch (const frontend::ParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("'m'"), std::string::npos);
  }
}

TEST(AssertClause, MalformedAssertReportsItsLine) {
  try {
    frontend::parse_module(
        "module counter {\n"
        "  input tick;\n"
        "  state n : int[4] = 0;\n"
        "  assert n <=;\n"
        "  when present(tick) -> { n := n + 1; }\n"
        "}\n");
    FAIL() << "expected ParseError";
  } catch (const frontend::ParseError& e) {
    EXPECT_EQ(e.line(), 4);
  }
}

// --- property checking, counterexamples, replay ------------------------------

const char* kAlarmSource =
    "module alarmist {\n"
    "  input key_on;\n"
    "  input belt_on;\n"
    "  input tick;\n"
    "  output alarm;\n"
    "  state st : int[3] = 0;\n"
    "  state cnt : int[4] = 0;\n"
    "  assert st != 2;\n"  // deliberately violated: the alarm state
    "  when present(key_on)                      -> { st := 1; cnt := 0; }\n"
    "  when st == 1 && present(belt_on)          -> { st := 0; }\n"
    "  when st == 1 && present(tick) && cnt < 3  -> { cnt := cnt + 1; }\n"
    "  when st == 1 && present(tick) && cnt >= 3 -> { st := 2; emit alarm; }\n"
    "}\n"
    "network alarmnet { instance blt : alarmist; }\n";

TEST(Check, ViolatedAssertYieldsReplayableCounterexample) {
  const frontend::ParsedFile file = frontend::parse(kAlarmSource);
  const cfsm::Network& net = *file.networks.at("alarmnet");

  BddManager mgr;
  verif::NetworkEncoding enc(net, mgr);
  verif::TransitionSystem tr = verif::build_transition_system(enc);
  const verif::ReachResult reach = verif::reachable_states(tr);
  ASSERT_TRUE(reach.stats.exact);

  const auto results = verif::check_assertions(tr, reach);
  ASSERT_EQ(results.size(), 1u);
  const verif::CheckResult& r = results[0];
  EXPECT_EQ(r.verdict, verif::Verdict::kViolated);
  EXPECT_GT(r.violating_states, 0);
  ASSERT_TRUE(r.cex.has_value());

  // The trace ends in the violating state...
  const verif::GlobalState& final_state = r.cex->steps.back().after;
  EXPECT_EQ(final_state.state.at("blt").at("st"), 2);
  EXPECT_EQ(verif::eval_on_state(net, "blt", *r.property.expr, final_state), 0);
  // ...is BFS-minimal for this machine (key_on, fire, then 4x (tick, fire))
  EXPECT_EQ(r.cex->steps.size(), 10u);
  // ...and replays both through the exact interpreter and through the RTOS
  // simulator down to the violating state.
  EXPECT_TRUE(verif::replay_counterexample(net, *r.cex, r.property));
  EXPECT_TRUE(verif::replay_on_rtos(net, *r.cex, r.property));
}

TEST(Check, BeltInvariantProvedOnItsOwnNetwork) {
  // The shipped belt assertion (st == 2 implies a full count) holds.
  const frontend::ParsedFile file = systems::dashboard();
  cfsm::Network net("beltnet");
  net.add_instance("blt", file.modules.at("belt"));

  const verif::VerifyResult v = verif::verify_network(net);
  ASSERT_EQ(v.assertions.size(), 1u);
  EXPECT_EQ(v.assertions[0].verdict, verif::Verdict::kProved);
  EXPECT_TRUE(v.all_proved());
}

TEST(Check, LostEventRiskIsReported) {
  // Back-to-back deliveries on 'sensor' overwrite an undetected event, so
  // the built-in property must flag the environment cluster.
  const verif::VerifyResult v = verif::verify_network(*systems::meter_network());
  EXPECT_TRUE(v.lost_events.possible);
  bool sensor_flagged = false;
  for (const auto& [subject, states] : v.lost_events.offenders)
    if (subject == "sensor") sensor_flagged = states > 0;
  EXPECT_TRUE(sensor_flagged);
}

// --- governor trips mid-fixpoint ----------------------------------------------

// A node budget that trips while the fixpoint is in flight recovers through
// widening: the run completes converged-but-inexact (the reached set
// overapproximates) and counts the recovery. Every node and byte the
// manager charged to the ambient governor is refunded when it dies.
TEST(Degrade, GovernorTripMidFixpointWidensAndRefunds) {
  GovernorLimits limits;
  // Building the microwave transition relation charges ~1.087 M arena
  // slots and the fixpoint peaks at ~1.170 M (both deterministic), so the
  // trip lands mid-fixpoint, not during setup.
  limits.max_nodes = 1'130'000;
  ResourceGovernor gov(limits);
  ResourceGovernor::Scope scope(&gov);
  ASSERT_EQ(gov.charged_nodes(), 0u);
  ASSERT_EQ(gov.charged_bytes(), 0u);
  {
    const auto net = systems::microwave_network();
    BddManager mgr;
    verif::NetworkEncoding enc(*net, mgr);
    verif::TransitionSystem tr = verif::build_transition_system(enc);
    verif::ReachOptions opt;
    opt.degrade_on_budget = true;
    const verif::ReachResult reach = verif::reachable_states(tr, opt);

    EXPECT_TRUE(reach.stats.converged);
    EXPECT_FALSE(reach.stats.exact);
    EXPECT_GT(reach.stats.budget_recoveries, 0);
    EXPECT_GT(reach.stats.widenings, 0);
    EXPECT_GT(gov.charged_nodes(), 0u);
    // The widened set must still contain every truly reachable state
    // (checked cheaply: it contains the initial set).
    const Bdd init = enc.initial_set();
    EXPECT_EQ(init & reach.reached, init);
  }
  EXPECT_EQ(gov.charged_nodes(), 0u);
  EXPECT_EQ(gov.charged_bytes(), 0u);
}

// Cancellation takes the other arm of the ladder: the fixpoint stops
// non-converged (an underapproximation), so the assert verdict degrades to
// kUnknown, never to a bogus kProved, and the lost-event report is unsound.
TEST(Degrade, CancellationDegradesVerdictsToUnknown) {
  const frontend::ParsedFile file = frontend::parse(kAlarmSource);
  const cfsm::Network& net = *file.networks.at("alarmnet");

  CancellationToken token;
  ResourceGovernor gov{GovernorLimits{}, token};
  BddManager mgr;
  verif::NetworkEncoding enc(net, mgr);
  verif::TransitionSystem tr = verif::build_transition_system(enc);
  token.request_cancel();  // trip the first in-fixpoint poll

  verif::ReachOptions opt;
  opt.degrade_on_budget = true;
  verif::ReachResult reach;
  {
    ResourceGovernor::Scope scope(&gov);
    reach = verif::reachable_states(tr, opt);
  }
  EXPECT_FALSE(reach.stats.converged);

  const auto results = verif::check_assertions(tr, reach);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, verif::Verdict::kUnknown);
  const verif::LostEventReport lost = verif::check_no_lost_events(tr, reach);
  EXPECT_FALSE(lost.sound);
}

// --- global care feedback ----------------------------------------------------

TEST(Care, MeterAssertionNeedsTheWholeNetwork) {
  // Locally, the display can see level >= 4 (the net carries int[8]); only
  // network-level reachability proves the overload state dead.
  const auto net = systems::meter_network();
  const verif::VerifyResult v = verif::verify_network(*net);
  ASSERT_EQ(v.assertions.size(), 1u);
  EXPECT_EQ(v.assertions[0].verdict, verif::Verdict::kProved);
  ASSERT_TRUE(v.care_filters.count("display"));

  // The filter rejects the locally-plausible overload combinations: a
  // present level >= 4, or overload already latched.
  const cfsm::CareFilter& filter = v.care_filters.at("display");
  cfsm::Snapshot high;
  high.present["level"] = true;
  high.value["level"] = 5;
  EXPECT_FALSE(filter(high, {{"bars", 0}, {"overload", 0}}));
  EXPECT_FALSE(filter({}, {{"bars", 0}, {"overload", 1}}));
  cfsm::Snapshot low;
  low.present["level"] = true;
  low.value["level"] = 2;
  EXPECT_TRUE(filter(low, {{"bars", 0}, {"overload", 0}}));
}

TEST(Care, GlobalCareSetShrinksTheDisplaySgraph) {
  const auto net = systems::meter_network();
  const verif::VerifyResult v = verif::verify_network(*net);
  ASSERT_TRUE(v.care_filters.count("display"));

  SynthesisOptions local;
  local.build.use_care_set = true;
  SynthesisOptions global = local;
  global.build.care_filter = v.care_filters.at("display");

  const auto display = net->instance("d").machine;
  const SynthesisResult with_local = synthesize(display, local);
  const SynthesisResult with_global = synthesize(display, global);

  // The overload branch is dead under the global care set: strictly fewer
  // s-graph nodes and a strictly smaller estimated code size.
  EXPECT_LT(with_global.graph->num_reachable(),
            with_local.graph->num_reachable());
  EXPECT_LT(with_global.estimate.size_bytes, with_local.estimate.size_bytes);

  // Theorem-1 sanity on the cared combinations: the restricted s-graph still
  // computes the exact reaction everywhere the filter cares.
  const cfsm::CareFilter& filter = v.care_filters.at("display");
  const bool complete = cfsm::enumerate_concrete_space(
      *display, 1u << 12,
      [&](const cfsm::Snapshot& snap,
          const std::map<std::string, std::int64_t>& st) {
        if (!filter(snap, st)) return;
        const cfsm::Reaction expect = display->react(snap, st);
        const cfsm::Reaction got =
            sgraph::run_reaction(*with_global.graph, *display, snap, st);
        EXPECT_EQ(expect.fired, got.fired);
        EXPECT_EQ(expect.emissions, got.emissions);
        EXPECT_EQ(expect.next_state, got.next_state);
      });
  EXPECT_TRUE(complete);
}

TEST(Care, NetworkSynthesisRoutesFiltersByMachineName) {
  const auto net = systems::meter_network();
  const verif::VerifyResult v = verif::verify_network(*net);

  SynthesisOptions base;
  base.build.use_care_set = true;
  base.num_threads = 1;
  SynthesisOptions with_filters = base;
  with_filters.care_filter_by_machine = v.care_filters;

  const NetworkSynthesis plain = synthesize_network(*net, base);
  const NetworkSynthesis fed = synthesize_network(*net, with_filters);
  EXPECT_LT(fed.per_instance.at("d").graph->num_reachable(),
            plain.per_instance.at("d").graph->num_reachable());
  // The quantizer has no unreachable local combinations: unchanged.
  EXPECT_EQ(fed.per_instance.at("q").graph->num_reachable(),
            plain.per_instance.at("q").graph->num_reachable());
}

}  // namespace
