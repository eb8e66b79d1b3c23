// The polisc pipeline, called layer by layer through the library's public
// functions, each call inside its ledger span. The stages and options are
// those of `polisc --network N [--verify --care]`: sift scheme, hc11 target,
// serial verification with default options.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "cfsm/cfsm.hpp"
#include "cfsm/network.hpp"
#include "cfsm/reactive.hpp"
#include "estim/cost_model.hpp"
#include "estim/estimate.hpp"
#include "frontend/parser.hpp"
#include "rtos/rtos.hpp"
#include "sgraph/sgraph.hpp"
#include "util/rng.hpp"
#include "verif/check.hpp"
#include "verif/reach.hpp"
#include "vm/compile.hpp"
#include "vm/machine.hpp"

namespace perfbench {

namespace cfsm = polis::cfsm;

/// Kernel counters summed over every BddManager a pass used (peaks and
/// capacities are maxima).
struct BddTotals {
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_resizes = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t nodes_reclaimed = 0;
  std::uint64_t and_exists_recursions = 0;
  std::uint64_t nodes_created = 0;
  std::uint64_t unique_lookups = 0;
  std::uint64_t unique_hits = 0;
  std::size_t peak_nodes = 0;
  std::size_t cache_capacity = 0;

  void add(const polis::bdd::KernelStats& s);
};

/// One machine after the synthesis flow.
struct Synthesized {
  std::shared_ptr<const cfsm::Cfsm> machine;
  std::shared_ptr<const polis::sgraph::Sgraph> graph;
  std::shared_ptr<const polis::vm::CompiledReaction> compiled;
  std::string c_code;
  polis::estim::Estimate estimate;
  long long vm_bytes = 0;
  double seconds = 0;  // wall time of the whole flow for this machine
  std::size_t sift_swaps = 0;
  std::size_t chi_nodes = 0;  // counted in traced runs only
};

polis::frontend::ParsedFile parse(const std::string& source);

/// The arguments of one synthesize() call, kept so the call can be
/// repeated. With `use_care_set` the local care set (and `filter`, when
/// set) removes false paths, as `polisc --care` does.
struct SynthCall {
  std::shared_ptr<const cfsm::Cfsm> machine;
  const polis::estim::CostModel* model = nullptr;
  bool use_care_set = false;
  cfsm::CareFilter filter;
};

/// The stages of polis::synthesize: characteristic function, s-graph with
/// constrained sifting, VM compile, C codegen, estimate.
Synthesized synthesize(const SynthCall& call, BddTotals& bdd);

/// Exhaustive VM timing (nullopt above `limit` concrete combinations).
std::optional<polis::vm::MeasuredTiming> measure(const Synthesized& s,
                                                 std::uint64_t limit);

struct Verified {
  polis::verif::ReachStats reach;
  std::vector<polis::verif::CheckResult> assertions;
  polis::verif::LostEventReport lost;
  std::map<std::string, cfsm::CareFilter> care;
  std::uint64_t image_calls = 0;  // and_exists calls on the fixpoint manager
};

/// The stages of polis::verif::verify_network, each in its own span.
Verified verify(const cfsm::Network& network, BddTotals& bdd);

/// Seeded stimulus for every external input of `network`. The inputs of
/// the dashboard networks follow the dashboard scenario (see pipeline.cpp);
/// any other inputs cycle through jittered-periodic, Poisson and plain
/// periodic sources (mean gap `base_gap` times 1, 1.5, 2, ... in sorted net
/// order) and get a short burst every 16 mean gaps so 1-place buffers
/// overflow.
std::vector<polis::rtos::ExternalEvent> stimulus(const cfsm::Network& network,
                                                 long long base_gap,
                                                 long long horizon,
                                                 polis::Rng& rng);

struct SimSummary {
  long long reactions = 0;
  long long empty_reactions = 0;
  long long overhead_cycles = 0;
  long long latency_max_cycles = 0;  // over every external output net
  long long lost_events = 0;
  bool aborted = false;
  double seconds = 0;  // host time inside RtosSimulation::run

  bool same_outcome(const SimSummary& o) const {
    return reactions == o.reactions && empty_reactions == o.empty_reactions &&
           overhead_cycles == o.overhead_cycles &&
           latency_max_cycles == o.latency_max_cycles &&
           lost_events == o.lost_events && aborted == o.aborted;
  }
};

/// The arguments of one simulate() call, kept so the call can be repeated
/// or replayed. The pointers belong to the workload and stay valid until
/// its next pass or set-up.
struct SimCall {
  const cfsm::Network* network = nullptr;
  std::map<std::string, const Synthesized*> machines;  // by machine name
  polis::rtos::RtosConfig config;
  const std::vector<polis::rtos::ExternalEvent>* events = nullptr;
  long long horizon = 0;
};

/// Runs the network under the generated RTOS with VM-backed tasks. When
/// `mismatches` is non-null every reaction is also run through the
/// reference semantics (cfsm::Cfsm::react) and disagreements are counted.
SimSummary simulate(const SimCall& call, long long* mismatches = nullptr);

/// Reference semantics equality (emission order is not significant).
bool same_reaction(const cfsm::Reaction& a, const cfsm::Reaction& b);

}  // namespace perfbench
