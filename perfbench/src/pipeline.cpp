#include "pipeline.hpp"

#include <algorithm>
#include <utility>

#include "bdd/reorder.hpp"
#include "codegen/c_codegen.hpp"
#include "ledger.hpp"
#include "rtos/tasks.hpp"
#include "rtos/trace.hpp"
#include "sgraph/build.hpp"
#include "verif/care.hpp"
#include "verif/encode.hpp"
#include "verif/transition.hpp"

namespace perfbench {

namespace bdd = polis::bdd;
namespace rtos = polis::rtos;
namespace sgraph = polis::sgraph;
namespace verif = polis::verif;
namespace vm = polis::vm;

void BddTotals::add(const bdd::KernelStats& s) {
  cache_lookups += s.cache_lookups;
  cache_hits += s.cache_hits;
  cache_resizes += s.cache_resizes;
  gc_runs += s.gc_runs;
  nodes_reclaimed += s.nodes_reclaimed;
  and_exists_recursions += s.and_exists_recursions;
  nodes_created += s.nodes_created;
  unique_lookups += s.unique_lookups;
  unique_hits += s.unique_hits;
  peak_nodes = std::max(peak_nodes, s.peak_nodes);
  cache_capacity = std::max(cache_capacity, s.cache_capacity);
}

polis::frontend::ParsedFile parse(const std::string& source) {
  Span span(Layer::kParse);
  return polis::frontend::parse(source);
}

Synthesized synthesize(const SynthCall& call, BddTotals& bdd_totals) {
  const auto t0 = Clock::now();
  Synthesized out;
  out.machine = call.machine;
  const cfsm::Cfsm& m = *out.machine;

  bdd::BddManager mgr;
  std::optional<cfsm::ReactiveFunction> rf;
  {
    Span span(Layer::kChi);
    rf.emplace(m, mgr);
  }
  sgraph::BuildOptions build;
  build.use_care_set = call.use_care_set;
  build.care_filter = call.filter;
  bdd::SiftTelemetry sift;
  build.sift_telemetry = &sift;
  {
    Span span(Layer::kSgraph);
    out.graph = std::make_shared<const sgraph::Sgraph>(sgraph::build_sgraph(
        *rf, sgraph::OrderingScheme::kSiftOutputsAfterSupport, build));
  }
  {
    Span span(Layer::kVmCompile);
    out.compiled = std::make_shared<const vm::CompiledReaction>(
        vm::compile(*out.graph, vm::SymbolInfo::from(m)));
  }
  {
    Span span(Layer::kCodegen);
    out.c_code = polis::codegen::generate_c(*out.graph, m);
    out.vm_bytes = out.compiled->program.size_bytes(vm::hc11_like());
  }
  {
    Span span(Layer::kEstimate);
    out.estimate = polis::estim::estimate(*out.graph, *call.model,
                                          polis::estim::context_for(m));
  }
  out.seconds = seconds_since(t0);
  out.sift_swaps = sift.swaps;
  if (Ledger::get().armed()) out.chi_nodes = mgr.node_count(rf->chi());
  bdd_totals.add(mgr.stats());
  return out;
}

std::optional<vm::MeasuredTiming> measure(const Synthesized& s,
                                          std::uint64_t limit) {
  Span span(Layer::kVmMeasure);
  return vm::measure_timing(*s.compiled, vm::hc11_like(), *s.machine, limit);
}

Verified verify(const cfsm::Network& network, BddTotals& bdd_totals) {
  bdd::BddManager mgr;
  std::optional<verif::NetworkEncoding> enc;
  {
    Span span(Layer::kEncode);
    enc.emplace(network, mgr);
  }
  verif::TransitionSystem tr;
  {
    Span span(Layer::kTransition);
    tr = verif::build_transition_system(*enc);
  }
  verif::ReachResult reach;
  {
    Span span(Layer::kReach);
    reach = verif::reachable_states(tr);
  }
  Verified out;
  out.reach = reach.stats;
  {
    Span span(Layer::kCheck);
    out.assertions = verif::check_assertions(tr, reach);
    out.lost = verif::check_no_lost_events(tr, reach);
  }
  if (reach.stats.exact) {
    Span span(Layer::kCare);
    out.care = verif::care_filters_by_machine(*enc, reach.reached);
  }
  const bdd::KernelStats kernel = mgr.stats();
  out.image_calls = kernel.and_exists_calls;
  bdd_totals.add(kernel);
  return out;
}

namespace {

enum class Source { kJitteredPeriodic, kPoisson, kPeriodic };

struct InputTraffic {
  Source source;
  long long gap;  // mean inter-arrival time, cycles
  bool bounces;   // a burst of 3 events 10 cycles apart every 16 gaps
};

/// The dashboard scenario of bench/bench_rtos.cpp: wheel pulses every 600
/// cycles, engine pulses every 900, the window timer every 3000 and the
/// ignition every 15000. Here the pulse sensors jitter by up to 25% of
/// their period and bounce, the ignition is a Poisson source, and the belt
/// is fastened about every other ignition, so the alarm path both fires
/// and is cancelled.
const std::map<std::string, InputTraffic> kDashboardTraffic = {
    {"wheel_raw", {Source::kJitteredPeriodic, 600, true}},
    {"engine_raw", {Source::kJitteredPeriodic, 900, true}},
    {"timer", {Source::kPeriodic, 3000, false}},
    {"key_on", {Source::kPoisson, 15'000, false}},
    {"belt_on", {Source::kPoisson, 30'000, false}},
};

}  // namespace

std::vector<rtos::ExternalEvent> stimulus(const cfsm::Network& network,
                                          long long base_gap,
                                          long long horizon,
                                          polis::Rng& rng) {
  const std::map<std::string, cfsm::Net> nets = network.nets();
  std::vector<std::vector<rtos::ExternalEvent>> traces;
  int i = 0;
  for (const std::string& in : network.external_inputs()) {
    const int domain = nets.at(in).domain;
    InputTraffic t{static_cast<Source>(i % 3), base_gap + base_gap * i / 2,
                   true};
    if (const auto it = kDashboardTraffic.find(in);
        it != kDashboardTraffic.end())
      t = it->second;
    switch (t.source) {
      case Source::kJitteredPeriodic:
        traces.push_back(rtos::periodic_trace(
            {in, t.gap, 37LL * i, 0.25, domain}, horizon, &rng));
        break;
      case Source::kPoisson:
        traces.push_back(rtos::poisson_trace(in, static_cast<double>(t.gap),
                                             horizon, rng, domain));
        break;
      case Source::kPeriodic:
        traces.push_back(rtos::periodic_trace(
            {in, t.gap, 37LL * i, 0.0, domain}, horizon, &rng));
        break;
    }
    if (t.bounces)
      traces.push_back(
          rtos::burst_trace(in, 16 * t.gap, 3, 10, horizon, domain, &rng));
    ++i;
  }
  return rtos::merge_traces(std::move(traces));
}

SimSummary simulate(const SimCall& call, long long* mismatches) {
  rtos::RtosSimulation sim(*call.network, call.config);
  const bool traced = Ledger::get().armed();
  for (const cfsm::Instance& inst : call.network->instances()) {
    const Synthesized& s = *call.machines.at(inst.machine->name());
    rtos::ReactFn fn = rtos::vm_task(s.compiled, vm::hc11_like(), s.machine);
    if (mismatches != nullptr) {
      fn = [fn, machine = s.machine, mismatches](
               const cfsm::Snapshot& snap,
               const std::map<std::string, std::int64_t>& state,
               long long* cycles) {
        cfsm::Reaction got = fn(snap, state, cycles);
        if (!same_reaction(got, machine->react(snap, state))) ++*mismatches;
        return got;
      };
    } else if (traced) {
      fn = [fn](const cfsm::Snapshot& snap,
                const std::map<std::string, std::int64_t>& state,
                long long* cycles) {
        Span span(Layer::kVmExec);
        return fn(snap, state, cycles);
      };
    }
    sim.set_task(inst.name, std::move(fn));
  }

  SimSummary out;
  rtos::SimStats stats;
  const auto t0 = Clock::now();
  {
    Span span(Layer::kRtosSim);
    stats = sim.run(*call.events, call.horizon);
  }
  out.seconds = seconds_since(t0);
  out.reactions = stats.reactions_run;
  out.empty_reactions = stats.empty_reactions;
  out.overhead_cycles = stats.overhead_cycles;
  for (const auto& [net, samples] : stats.input_to_output_latency)
    for (long long l : samples)
      out.latency_max_cycles = std::max(out.latency_max_cycles, l);
  for (const auto& [net, lost] : stats.lost_events) out.lost_events += lost;
  out.aborted = stats.aborted;
  return out;
}

bool same_reaction(const cfsm::Reaction& a, const cfsm::Reaction& b) {
  auto sorted = [](std::vector<std::pair<std::string, std::int64_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  return a.fired == b.fired && sorted(a.emissions) == sorted(b.emissions) &&
         a.next_state == b.next_state;
}

}  // namespace perfbench
