#include "verif/check.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "rtos/rtos.hpp"
#include "util/check.hpp"

namespace polis::verif {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kProved: return "proved";
    case Verdict::kViolated: return "violated";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

std::vector<Property> assertion_properties(const cfsm::Network& network) {
  std::vector<Property> out;
  for (const cfsm::Instance& inst : network.instances()) {
    int n = 0;
    for (const cfsm::Assertion& a : inst.machine->assertions()) {
      Property p;
      p.name = inst.name + ".assert" + std::to_string(n++);
      p.instance = inst.name;
      p.expr = a.expr;
      p.line = a.line;
      out.push_back(std::move(p));
    }
  }
  return out;
}

namespace {

/// Env over one instance's local view: presence/value of each input port and
/// the state variables, everything else 0.
expr::Env local_env(const cfsm::Cfsm& machine, const cfsm::Snapshot& snap,
                    const std::map<std::string, std::int64_t>& state) {
  std::map<std::string, std::int64_t> vars;
  for (const cfsm::Signal& in : machine.inputs()) {
    const bool present = snap.is_present(in.name);
    vars[cfsm::presence_name(in.name)] = present ? 1 : 0;
    if (!in.is_pure())
      vars[cfsm::value_name(in.name)] = present ? snap.value_of(in.name) : 0;
  }
  for (const auto& [name, value] : state) vars[name] = value;
  return [vars = std::move(vars)](const std::string& name) -> std::int64_t {
    auto it = vars.find(name);
    return it == vars.end() ? 0 : it->second;
  };
}

cfsm::Snapshot snapshot_of(const cfsm::Cfsm& machine,
                           const std::map<std::string, GlobalState::Buffer>&
                               buffers) {
  cfsm::Snapshot snap;
  for (const cfsm::Signal& in : machine.inputs()) {
    auto it = buffers.find(in.name);
    if (it == buffers.end() || !it->second.present) continue;
    snap.present[in.name] = true;
    if (!in.is_pure()) snap.value[in.name] = it->second.value;
  }
  return snap;
}

/// BDD over the instance's present variables of all local combinations that
/// violate the property (expr evaluates to 0).
bdd::Bdd violating_set(NetworkEncoding& enc, const Property& property,
                       std::uint64_t enum_limit) {
  const cfsm::Instance& inst = enc.network().instance(property.instance);
  const cfsm::Cfsm& machine = *inst.machine;
  bdd::BddManager& mgr = enc.manager();
  bdd::Bdd bad = mgr.zero();
  const bool complete = cfsm::enumerate_concrete_space(
      machine, enum_limit,
      [&](const cfsm::Snapshot& snap,
          const std::map<std::string, std::int64_t>& st) {
        for (const cfsm::Signal& in : machine.inputs())
          if (!snap.is_present(in.name) && snap.value_of(in.name) != 0)
            return;  // non-canonical, never reachable by construction
        if (expr::evaluate(*property.expr, local_env(machine, snap, st)) != 0)
          return;
        bad = bad | enc.local_combo_cube(property.instance, snap, st);
      });
  POLIS_CHECK_MSG(complete, "property '" << property.name
                                         << "' needs more than " << enum_limit
                                         << " local combinations");
  return bad;
}

/// Delivered value of an env step, read off the post-delivery state.
std::int64_t env_value_of(const cfsm::Network& network, const std::string& net,
                          const GlobalState& after) {
  const std::map<std::string, cfsm::Net> nets = network.nets();
  const cfsm::Net& n = nets.at(net);
  POLIS_CHECK_MSG(!n.consumers.empty(), "net " << net << " has no consumers");
  const auto& [ci, cp] = n.consumers.front();
  return after.buffers.at(ci).at(cp).value;
}

/// Backwards trace extraction over the BFS layers: the violating state
/// sits in the minimal layer k, and by construction every state of layer i+1
/// has a predecessor in layer i under some single cluster.
Counterexample extract_counterexample(const TransitionSystem& tr,
                                      const ReachResult& reach,
                                      const Property& property,
                                      const bdd::Bdd& bad) {
  NetworkEncoding& enc = *tr.enc;
  bdd::BddManager& mgr = enc.manager();
  size_t k = 0;
  while (k < reach.layers.size() && (reach.layers[k] & bad).is_zero()) ++k;
  POLIS_CHECK_MSG(k < reach.layers.size(), "bad state not on any layer");

  // Zero-completion decoding is sound: every completion of a one_sat cube
  // satisfies the set, and the canonical-form invariant holds on all layers.
  GlobalState cur = enc.decode(mgr.one_sat(reach.layers[k] & bad));

  Counterexample cex;
  cex.property = property.name;
  std::vector<TraceStep> steps;  // built back-to-front
  const std::vector<int> all_present = enc.present_vars();
  for (size_t i = k; i-- > 0;) {
    bool found = false;
    for (const Cluster& c : tr.clusters) {
      // cur restricted to this cluster's next column...
      bdd::Bdd next_cube = mgr.one();
      for (const VarPair& b : c.modified)
        next_cube = next_cube & (enc.state_bit(cur, b.present)
                                     ? mgr.var(b.next)
                                     : mgr.nvar(b.next));
      // ...and its untouched bits pinned in the present column.
      const std::set<int> touched(c.quantify_present.begin(),
                                  c.quantify_present.end());
      bdd::Bdd frame = mgr.one();
      for (int v : all_present) {
        if (touched.count(v) != 0) continue;
        frame = frame & (enc.state_bit(cur, v) ? mgr.var(v) : mgr.nvar(v));
      }
      const bdd::Bdd pred = reach.layers[i] & frame &
                            mgr.and_exists(c.relation, next_cube,
                                           c.quantify_next);
      if (pred.is_zero()) continue;
      TraceStep step;
      step.kind = c.kind;
      step.subject = c.subject;
      if (c.kind == Cluster::Kind::kEnvEvent)
        step.value = env_value_of(enc.network(), c.subject, cur);
      step.after = cur;
      steps.push_back(std::move(step));
      cur = enc.decode(mgr.one_sat(pred));
      found = true;
      break;
    }
    POLIS_CHECK_MSG(found, "no predecessor cluster at layer " << i + 1);
  }
  cex.initial = cur;
  std::reverse(steps.begin(), steps.end());
  cex.steps = std::move(steps);
  return cex;
}

}  // namespace

std::int64_t eval_on_state(const cfsm::Network& network,
                           const std::string& instance, const expr::Expr& e,
                           const GlobalState& s) {
  const cfsm::Cfsm& machine = *network.instance(instance).machine;
  const cfsm::Snapshot snap = snapshot_of(machine, s.buffers.at(instance));
  return expr::evaluate(e, local_env(machine, snap, s.state.at(instance)));
}

CheckResult check_property(const TransitionSystem& tr, const ReachResult& reach,
                           const Property& property,
                           std::uint64_t enum_limit) {
  NetworkEncoding& enc = *tr.enc;
  bdd::BddManager& mgr = enc.manager();
  CheckResult result;
  result.property = property;
  const bdd::Bdd bad =
      reach.reached & violating_set(enc, property, enum_limit);
  if (bad.is_zero()) {
    // Sound when `reached` covers every reachable state — exact, or widened
    // to an overapproximation. A non-converged run (deadline, cancellation,
    // nothing left to widen) UNDERapproximates: the empty intersection
    // proves nothing, so stay honestly unknown.
    result.verdict =
        reach.stats.converged ? Verdict::kProved : Verdict::kUnknown;
    return result;
  }
  result.violating_states = mgr.sat_count(bad, enc.num_present_vars());
  if (!reach.stats.exact || reach.layers.empty()) {
    result.verdict = Verdict::kUnknown;
    return result;
  }
  result.verdict = Verdict::kViolated;
  result.cex = extract_counterexample(tr, reach, property, bad);
  return result;
}

std::vector<CheckResult> check_assertions(const TransitionSystem& tr,
                                          const ReachResult& reach,
                                          std::uint64_t enum_limit) {
  std::vector<CheckResult> out;
  for (const Property& p : assertion_properties(tr.enc->network()))
    out.push_back(check_property(tr, reach, p, enum_limit));
  return out;
}

LostEventReport check_no_lost_events(const TransitionSystem& tr,
                                     const ReachResult& reach) {
  NetworkEncoding& enc = *tr.enc;
  bdd::BddManager& mgr = enc.manager();
  LostEventReport report;
  report.sound = reach.stats.converged;
  for (const Cluster& c : tr.clusters) {
    const bdd::Bdd risky = reach.reached & c.overwrite_risk;
    if (risky.is_zero()) continue;
    report.possible = true;
    report.offenders.emplace_back(
        c.subject, mgr.sat_count(risky, enc.num_present_vars()));
  }
  return report;
}

bool replay_counterexample(const cfsm::Network& network,
                           const Counterexample& cex,
                           const Property& property) {
  GlobalState s = initial_global_state(network);
  if (!(s == cex.initial)) return false;
  for (const TraceStep& step : cex.steps) {
    if (step.kind == Cluster::Kind::kEnvEvent) {
      apply_env_event(network, step.subject, step.value, s);
    } else if (!apply_machine_step(network, step.subject, s)) {
      return false;
    }
    if (!(s == step.after)) return false;
  }
  return eval_on_state(network, property.instance, *property.expr, s) == 0;
}

bool replay_on_rtos(const cfsm::Network& network, const Counterexample& cex,
                    const Property& property, long long spacing) {
  const cfsm::Cfsm& machine = *network.instance(property.instance).machine;
  // Input-free properties can also be judged at task completion, where only
  // the state survives; snapshot-reading ones only at dispatch.
  bool state_only = true;
  const std::set<std::string> used = expr::support(*property.expr);
  for (const cfsm::Signal& in : machine.inputs())
    if (used.count(cfsm::presence_name(in.name)) != 0 ||
        used.count(cfsm::value_name(in.name)) != 0)
      state_only = false;

  bool violated = false;
  rtos::RtosConfig config;
  config.on_task_start = [&](const std::string& task, long long,
                             const cfsm::Snapshot& snap,
                             const std::map<std::string, std::int64_t>& st) {
    if (task != property.instance || violated) return;
    violated = expr::evaluate(*property.expr, local_env(machine, snap, st)) == 0;
  };
  config.on_task_end = [&](const std::string& task, long long,
                           const std::map<std::string, std::int64_t>& st) {
    if (task != property.instance || violated || !state_only) return;
    violated =
        expr::evaluate(*property.expr, local_env(machine, {}, st)) == 0;
  };

  rtos::RtosSimulation sim(network, config);
  for (const cfsm::Instance& inst : network.instances())
    sim.set_reference_task(inst.name, /*cycles=*/10);

  // Drive only the environment deliveries; the scheduler runs the machine
  // steps. Spacing the stimuli far apart lets the network quiesce between
  // deliveries, matching the interleaved one-step-at-a-time semantics.
  std::vector<rtos::ExternalEvent> events;
  long long t = spacing;
  for (const TraceStep& step : cex.steps) {
    if (step.kind != Cluster::Kind::kEnvEvent) continue;
    events.push_back(rtos::ExternalEvent{t, step.subject, step.value});
    t += spacing;
  }
  sim.run(events, /*horizon=*/t + spacing);
  return violated;
}

}  // namespace polis::verif
