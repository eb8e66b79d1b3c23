// Invariant / safety-property checking against the reached set, with
// counterexample-trace extraction and concrete replay.
//
// Properties are written in the existing expr language over one module's
// inputs and state (the `assert` clause of the frontend), read at global
// states with the usual convention: `present_x` is the buffer presence
// flag, `v_x` the buffered value (0 when absent), state vars their value.
// A violated property yields a BFS-minimal input trace (environment
// deliveries + machine steps) that is replayed two ways: through the
// explicit-state interpreter (exact) and through the RTOS simulator (the
// generated-software view), confirming the violating state concretely.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cfsm/network.hpp"
#include "expr/expr.hpp"
#include "verif/enumerate.hpp"
#include "verif/reach.hpp"
#include "verif/transition.hpp"

namespace polis::verif {

/// One safety property, scoped to an instance (its machine's variable
/// naming applies).
struct Property {
  std::string name;
  std::string instance;
  expr::ExprRef expr;
  int line = 0;  // source line of the assert clause, 0 if programmatic
};

/// The `assert` clauses of every instance's machine, one property per
/// (instance, assertion) pair.
std::vector<Property> assertion_properties(const cfsm::Network& network);

/// Evaluates `e` on the instance-local view of a global state.
std::int64_t eval_on_state(const cfsm::Network& network,
                           const std::string& instance, const expr::Expr& e,
                           const GlobalState& s);

/// One step of a counterexample trace.
struct TraceStep {
  Cluster::Kind kind = Cluster::Kind::kEnvEvent;
  std::string subject;      // net (kEnvEvent) or instance (kMachineStep)
  std::int64_t value = 0;   // delivered value (kEnvEvent only)
  GlobalState after;
};

struct Counterexample {
  std::string property;
  GlobalState initial;
  std::vector<TraceStep> steps;  // initial --steps--> violating state
};

enum class Verdict { kProved, kViolated, kUnknown };
const char* to_string(Verdict v);

struct CheckResult {
  Property property;
  Verdict verdict = Verdict::kUnknown;
  double violating_states = 0;  // sat_count of reached ∧ ¬property
  std::optional<Counterexample> cex;  // kViolated with exact layers only
};

/// Checks one property against a reachability result. `enum_limit` caps the
/// instance-local enumeration used to encode the property.
CheckResult check_property(const TransitionSystem& tr, const ReachResult& reach,
                           const Property& property,
                           std::uint64_t enum_limit = 1u << 20);

std::vector<CheckResult> check_assertions(const TransitionSystem& tr,
                                          const ReachResult& reach,
                                          std::uint64_t enum_limit = 1u << 20);

/// Built-in property: no reachable state lets a step overwrite a pending
/// event (1-place buffer overflow, "events are never lost").
struct LostEventReport {
  bool possible = false;
  /// Cluster subjects (instances / env nets) that can overwrite, with the
  /// number of reachable states in which they do.
  std::vector<std::pair<std::string, double>> offenders;
  /// False when the reachability run did not converge (deadline, cancel,
  /// nothing left to widen): `possible == false` then means "not found in
  /// the states explored", not "cannot happen".
  bool sound = true;
};
LostEventReport check_no_lost_events(const TransitionSystem& tr,
                                     const ReachResult& reach);

/// Replays a counterexample through the explicit-state interpreter: checks
/// every step reproduces the recorded successor state and that the final
/// state violates the property. Returns true when fully confirmed.
bool replay_counterexample(const cfsm::Network& network,
                           const Counterexample& cex, const Property& property);

/// Replays the counterexample's environment deliveries through the RTOS
/// simulator (reference tasks, events `spacing` cycles apart) and watches
/// the property instance via the task probes. Returns true iff some
/// dispatch or completion of that instance observes the violation.
bool replay_on_rtos(const cfsm::Network& network, const Counterexample& cex,
                    const Property& property, long long spacing = 100000);

}  // namespace polis::verif
