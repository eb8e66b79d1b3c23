#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "cfsm/random.hpp"
#include "core/synthesis.hpp"
#include "estim/calibrate.hpp"
#include "ledger.hpp"
#include "sgraph/build.hpp"
#include "verif/enumerate.hpp"

namespace perfbench {

namespace estim = polis::estim;
namespace rtos = polis::rtos;
namespace verif = polis::verif;
namespace vm = polis::vm;
using polis::Rng;

Synthesized PassResult::synthesize(SynthCall call) {
  Synthesized s = perfbench::synthesize(call, bdd);
  synth_calls.push_back(std::move(call));
  synth_ms.push_back(1000.0 * s.seconds);
  code_bytes += s.vm_bytes;
  c_bytes += static_cast<long long>(s.c_code.size());
  sgraph_nodes += static_cast<long long>(s.graph->num_nodes());
  sift_swaps += static_cast<long long>(s.sift_swaps);
  chi_nodes += static_cast<long long>(s.chi_nodes);
  return s;
}

SimSummary PassResult::simulate(SimCall call) {
  const SimSummary s = perfbench::simulate(call);
  sim_calls.push_back(std::move(call));
  sims.push_back(s);
  return s;
}

void check_simulations(const PassResult& pass, Checks& checks) {
  for (size_t i = 0; i < pass.sim_calls.size(); ++i) {
    const SimCall& call = pass.sim_calls[i];
    const SimSummary& timed = pass.sims[i];
    long long mismatches = 0;
    const SimSummary replay = simulate(call, &mismatches);
    checks.expect(!timed.aborted && mismatches == 0 &&
                      replay.same_outcome(timed),
                  call.network->name() + " simulation " + std::to_string(i) +
                      ": RTOS replay, VM reactions == Cfsm::react (" +
                      std::to_string(mismatches) + " mismatches)");
  }
}

std::string PassResult::fingerprint() const {
  std::ostringstream out;
  out << code_bytes << ' ' << wcet_cycles << ' ' << wcet_estimated << ' '
      << c_bytes << ' ' << sgraph_nodes << ' ' << verif_iterations << ' '
      << image_calls << ' ' << bdd.nodes_created << ' ' << bdd.cache_lookups
      << ' ' << verdicts;
  for (const SimSummary& s : sims)
    out << " sim " << s.reactions << ' ' << s.empty_reactions << ' '
        << s.overhead_cycles << ' ' << s.latency_max_cycles << ' '
        << s.lost_events << ' ' << s.aborted;
  return out.str();
}

namespace {

/// Concrete-space cap for exhaustive VM timing and exhaustive checks.
constexpr std::uint64_t kExhaustiveLimit = 1u << 16;
/// Simulation of the verify and synth_corpus networks: fixed stimulus (no
/// randomness from the seed), short horizon.
constexpr std::uint64_t kFixedStimulusSeed = 1;
constexpr long long kNetSimGap = 1000;
constexpr long long kNetSimHorizon = 4'000'000;
/// rtos_sim: seeded stimulus over a long horizon, per configuration.
constexpr long long kRtosGap = 1000;
constexpr long long kRtosHorizon = 150'000'000;
/// synth_corpus: random machines drawn per pass, on top of the examples.
constexpr int kCorpusSize = 1500;
constexpr int kPointsPerMachine = 16;

const char* const kExampleFiles[] = {"blinker.rsl", "dashboard.rsl",
                                     "meter.rsl", "microwave.rsl",
                                     "shock_absorber.rsl"};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// FNV-1a over a serialization of the generated inputs.
class Digest {
 public:
  Digest& add(const std::string& s) {
    for (unsigned char c : s) mix(c);
    mix(0xff);  // field separator
    return *this;
  }
  Digest& add(long long v) { return add(std::to_string(v)); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

void add_machine(const cfsm::Cfsm& m, Digest& d) {
  using polis::expr::to_c;
  d.add(m.name());
  for (const cfsm::Signal& s : m.inputs()) d.add(s.name).add(s.domain);
  for (const cfsm::Signal& s : m.outputs()) d.add(s.name).add(s.domain);
  for (const cfsm::StateVar& v : m.state())
    d.add(v.name).add(v.domain).add(static_cast<long long>(v.init));
  for (const cfsm::Rule& r : m.rules()) {
    d.add(to_c(*r.guard));
    for (const cfsm::Emit& e : r.emits)
      d.add(e.signal).add(e.value ? to_c(*e.value) : std::string());
    for (const cfsm::Assign& a : r.assigns)
      d.add(a.state_var).add(to_c(*a.value));
  }
}

void add_events(const std::vector<rtos::ExternalEvent>& events, Digest& d) {
  for (const rtos::ExternalEvent& e : events)
    d.add(e.time).add(e.net).add(static_cast<long long>(e.value));
}

estim::CostModel calibrate(double& seconds) {
  const auto t0 = Clock::now();
  estim::CostModel model = estim::calibrate(vm::hc11_like());
  seconds = seconds_since(t0);
  return model;
}

using Machines = std::map<std::string, Synthesized>;

std::map<std::string, const Synthesized*> view(const Machines& machines) {
  std::map<std::string, const Synthesized*> out;
  for (const auto& [name, s] : machines) out[name] = &s;
  return out;
}

/// The simulation of a verify or synth_corpus network: default RTOS
/// configuration, fixed stimulus, short horizon.
SimCall network_sim(const cfsm::Network& net, const Machines& machines,
                    const std::vector<rtos::ExternalEvent>& events) {
  SimCall call;
  call.network = &net;
  call.machines = view(machines);
  call.events = &events;
  call.horizon = kNetSimHorizon;
  return call;
}

void add_timing(const Synthesized& s, PassResult& r) {
  if (auto t = measure(s, kExhaustiveLimit)) {
    r.wcet_cycles += t->max_cycles;
    r.wcet_estimated += s.estimate.max_cycles;
  }
}

/// Synthesizes every distinct machine of `net` (with `care` non-null: the
/// --care flow, with the verifier's per-machine filters), then measures
/// every instance, as `polisc --network N --report` does.
Machines synthesize_network(
    const cfsm::Network& net, const estim::CostModel& model,
    const std::map<std::string, cfsm::CareFilter>* care, PassResult& r) {
  Machines out;
  for (const cfsm::Instance& inst : net.instances()) {
    const std::string& name = inst.machine->name();
    if (out.count(name) != 0) continue;
    SynthCall call{inst.machine, &model, care != nullptr, {}};
    if (care != nullptr && care->count(name) != 0) call.filter = care->at(name);
    out.emplace(name, r.synthesize(std::move(call)));
  }
  for (const cfsm::Instance& inst : net.instances())
    add_timing(out.at(inst.machine->name()), r);
  return out;
}

/// Random concrete point of a machine's space (values drawn even for absent
/// inputs, as enumerate_concrete_space does).
void random_point(const cfsm::Cfsm& m, Rng& rng, cfsm::Snapshot& snap,
                  std::map<std::string, std::int64_t>& state) {
  snap = {};
  state.clear();
  for (const cfsm::Signal& s : m.inputs()) {
    snap.present[s.name] = rng.flip();
    if (!s.is_pure()) snap.value[s.name] = rng.uniform(0, s.domain - 1);
  }
  for (const cfsm::StateVar& v : m.state())
    state[v.name] = rng.uniform(0, v.domain - 1);
}

// --- verify_dash / verify_examples ----------------------------------------

struct KnownAnswer {
  double states = 0;
  int iterations = 0;
  int proved = 0;
  int offenders = 0;
};

std::map<std::string, KnownAnswer> read_known_answers(const std::string& path) {
  std::istringstream in(read_file(path));
  std::map<std::string, KnownAnswer> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    KnownAnswer a;
    if (fields >> name >> a.states >> a.iterations >> a.proved >> a.offenders)
      out[name] = a;
  }
  return out;
}

class VerifyWorkload : public Workload {
 public:
  struct Target {
    std::string file;
    std::string network;
  };

  VerifyWorkload(std::vector<Target> targets, std::string data_dir)
      : targets_(std::move(targets)), data_dir_(std::move(data_dir)) {}

  void setup() override {
    sources_.clear();
    events_.clear();
    for (const Target& t : targets_)
      if (sources_.count(t.file) == 0)
        sources_[t.file] = read_file(data_dir_ + "/inputs/" + t.file);
    model_ = calibrate(calibrate_s);
    for (const Target& t : targets_) {
      // The stimulus needs the network's input nets: an untimed parse.
      const polis::frontend::ParsedFile file =
          polis::frontend::parse(sources_.at(t.file));
      Rng rng(kFixedStimulusSeed);
      events_[t.network] = stimulus(*file.networks.at(t.network), kNetSimGap,
                                    kNetSimHorizon, rng);
    }
  }

  PassResult pass() override {
    PassResult r;
    runs_.clear();
    runs_.reserve(targets_.size());  // simulation calls point into runs
    for (const Target& t : targets_) {
      Run& run = runs_.emplace_back();
      run.file = parse(sources_.at(t.file));
      run.network = run.file.networks.at(t.network);
      const cfsm::Network& net = *run.network;
      run.verified = verify(net, r.bdd);
      run.machines = synthesize_network(net, model_, &run.verified.care, r);
      r.simulate(network_sim(net, run.machines, events_.at(t.network)));

      const verif::ReachStats& reach = run.verified.reach;
      r.verif_iterations += reach.iterations;
      r.image_calls += static_cast<long long>(run.verified.image_calls);
      r.peak_live_nodes = std::max(
          r.peak_live_nodes, static_cast<long long>(reach.peak_live_nodes));
      char states[32];
      std::snprintf(states, sizeof states, "%.17g", reach.reached_states);
      r.verdicts += t.network + ":" + states + "/" +
                    std::to_string(reach.iterations) + "/" +
                    std::to_string(proved(run.verified)) + "/" +
                    std::to_string(run.verified.lost.offenders.size()) + " ";
    }
    return r;
  }

  void check(Checks& checks) override {
    const auto answers = read_known_answers(data_dir_ + "/known_answers.txt");
    for (const Run& run : runs_) {
      const cfsm::Network& net = *run.network;
      const std::string& name = net.name();
      const verif::ReachStats& reach = run.verified.reach;
      const auto it = answers.find(name);
      checks.expect(it != answers.end(), name + ": has a known answer");
      if (it != answers.end()) {
        const KnownAnswer& a = it->second;
        checks.expect(reach.exact && reach.converged &&
                          reach.reached_states == a.states &&
                          reach.iterations == a.iterations,
                      name + ": reached states and iterations");
        checks.expect(proved(run.verified) == a.proved &&
                          run.verified.assertions.size() ==
                              static_cast<size_t>(a.proved),
                      name + ": every assert proved");
        checks.expect(run.verified.lost.sound &&
                          run.verified.lost.offenders.size() ==
                              static_cast<size_t>(a.offenders),
                      name + ": lost-event offenders");
      }
      if (reach.reached_states <= kExhaustiveLimit) {
        const auto states =
            verif::enumerate_reachable_states(net, kExhaustiveLimit);
        checks.expect(states.has_value() &&
                          static_cast<double>(states->size()) ==
                              reach.reached_states,
                      name + ": symbolic == explicit reached states");
      }
      for (const auto& [machine, s] : run.machines)
        check_care_fed(name, s, run.verified.care, checks);
    }
  }

  std::string describe_inputs() const override {
    Digest d;
    std::string names;
    for (const Target& t : targets_) {
      d.add(sources_.at(t.file));
      names += " " + t.network;
    }
    return "fixed networks" + names +
           " (no randomness: the seed is not used); digest " + d.hex();
  }

 private:
  struct Run {
    polis::frontend::ParsedFile file;
    std::shared_ptr<cfsm::Network> network;
    Verified verified;
    Machines machines;
  };

  static int proved(const Verified& v) {
    return static_cast<int>(std::count_if(
        v.assertions.begin(), v.assertions.end(),
        [](const verif::CheckResult& r) {
          return r.verdict == verif::Verdict::kProved;
        }));
  }

  /// A care-fed machine must match the reference semantics on every
  /// combination its care filter keeps (the rest are don't cares).
  static void check_care_fed(
      const std::string& network, const Synthesized& s,
      const std::map<std::string, cfsm::CareFilter>& care, Checks& checks) {
    const cfsm::Cfsm& m = *s.machine;
    const auto f = care.find(m.name());
    long long bad = 0;
    const bool small = cfsm::enumerate_concrete_space(
        m, kExhaustiveLimit,
        [&](const cfsm::Snapshot& snap,
            const std::map<std::string, std::int64_t>& st) {
          if (f != care.end() && !f->second(snap, st)) return;
          if (!same_reaction(
                  vm::run_reaction(*s.compiled, vm::hc11_like(), m, snap, st),
                  m.react(snap, st)))
            ++bad;
        });
    if (!small) return;  // too large to enumerate: not attempted
    checks.expect(bad == 0, network + "/" + m.name() +
                                ": care-fed VM == Cfsm::react (" +
                                std::to_string(bad) + " mismatches)");
  }

  std::vector<Target> targets_;
  std::string data_dir_;
  std::map<std::string, std::string> sources_;
  std::map<std::string, std::vector<rtos::ExternalEvent>> events_;
  estim::CostModel model_;
  std::vector<Run> runs_;
};

// --- synth_corpus ----------------------------------------------------------

class SynthCorpusWorkload : public Workload {
 public:
  SynthCorpusWorkload(std::uint64_t seed, std::string data_dir)
      : seed_(seed), data_dir_(std::move(data_dir)) {}

  void setup() override {
    sources_.clear();
    events_.clear();
    for (const char* f : kExampleFiles)
      sources_[f] = read_file(data_dir_ + "/inputs/" + f);
    model_ = calibrate(calibrate_s);
    for (const auto& [f, source] : sources_) {
      const polis::frontend::ParsedFile file = polis::frontend::parse(source);
      for (const auto& [name, net] : file.networks) {
        Rng rng(kFixedStimulusSeed);
        events_[name] = stimulus(*net, kNetSimGap, kNetSimHorizon, rng);
      }
    }
    // The seeded draw: 3-9 inputs, 4-22 rules, domains up to 10.
    corpus_.clear();
    Rng rng(seed_);
    Digest d;
    for (int i = 0; i < kCorpusSize; ++i) {
      cfsm::RandomCfsmOptions o;
      o.num_inputs = static_cast<int>(rng.uniform(3, 9));
      o.num_outputs = static_cast<int>(rng.uniform(1, 4));
      o.num_state_vars = static_cast<int>(rng.uniform(1, 3));
      o.max_domain = static_cast<int>(rng.uniform(2, 10));
      o.num_rules = static_cast<int>(rng.uniform(4, 22));
      corpus_.push_back(std::make_shared<const cfsm::Cfsm>(
          cfsm::random_cfsm(rng, o, "r" + std::to_string(i))));
      add_machine(*corpus_.back(), d);
    }
    digest_ = d.hex();
  }

  PassResult pass() override {
    PassResult r;
    files_.clear();
    files_.reserve(sources_.size());  // simulation calls point into files
    random_.clear();
    for (const auto& [f, source] : sources_) {
      File& file = files_.emplace_back();
      file.parsed = parse(source);
      for (const auto& [name, m] : file.parsed.modules) {
        const auto it =
            file.machines.emplace(name, r.synthesize({m, &model_, false, {}}));
        add_timing(it.first->second, r);
      }
      for (const auto& [name, net] : file.parsed.networks)
        r.simulate(network_sim(*net, file.machines, events_.at(name)));
    }
    for (const auto& m : corpus_)
      random_.push_back(r.synthesize({m, &model_, false, {}}));
    return r;
  }

  void check(Checks& checks) override {
    // Staged flow == polis::synthesize on the example modules.
    for (const File& file : files_) {
      for (const auto& [name, s] : file.machines) {
        polis::SynthesisOptions options;
        options.cost_model = &model_;
        const polis::SynthesisResult ref =
            polis::synthesize(s.machine, options);
        checks.expect(ref.c_code == s.c_code &&
                          ref.vm_size_bytes == s.vm_bytes &&
                          ref.estimate.max_cycles == s.estimate.max_cycles,
                      name + ": staged synthesis == polis::synthesize");
      }
    }
    // VM and s-graph == reference semantics on seeded sample points.
    Rng rng(seed_ ^ 0x5eed5eedULL);
    auto sample = [&](const Synthesized& s) {
      const cfsm::Cfsm& m = *s.machine;
      int bad = 0;
      cfsm::Snapshot snap;
      std::map<std::string, std::int64_t> state;
      for (int k = 0; k < kPointsPerMachine; ++k) {
        random_point(m, rng, snap, state);
        const cfsm::Reaction ref = m.react(snap, state);
        if (!same_reaction(polis::vm::run_reaction(*s.compiled, vm::hc11_like(),
                                                   m, snap, state),
                           ref) ||
            !same_reaction(
                polis::sgraph::run_reaction(*s.graph, m, snap, state), ref))
          ++bad;
      }
      checks.expect(bad == 0, m.name() + ": VM and s-graph == Cfsm::react on " +
                                  std::to_string(kPointsPerMachine) +
                                  " sampled points");
    };
    for (const File& file : files_)
      for (const auto& [name, s] : file.machines) sample(s);
    for (const Synthesized& s : random_) sample(s);
  }

  std::string describe_inputs() const override {
    Digest fixed;
    for (const auto& [f, source] : sources_) fixed.add(source);
    return "5 example files (digest " + fixed.hex() + ") + " +
           std::to_string(kCorpusSize) + " random machines from seed " +
           std::to_string(seed_) + " (digest " + digest_ + ")";
  }

 private:
  struct File {
    polis::frontend::ParsedFile parsed;
    Machines machines;
  };

  std::uint64_t seed_;
  std::string data_dir_;
  std::map<std::string, std::string> sources_;
  std::map<std::string, std::vector<rtos::ExternalEvent>> events_;
  estim::CostModel model_;
  std::vector<std::shared_ptr<const cfsm::Cfsm>> corpus_;
  std::string digest_;
  std::vector<File> files_;
  std::vector<Synthesized> random_;
};

// --- rtos_sim ----------------------------------------------------------------

class RtosSimWorkload : public Workload {
 public:
  RtosSimWorkload(std::uint64_t seed, std::string data_dir)
      : seed_(seed), data_dir_(std::move(data_dir)) {
    rtos::RtosConfig rr;  // round-robin, interrupt delivery
    rtos::RtosConfig prio;
    prio.policy = rtos::RtosConfig::Policy::kStaticPriority;
    prio.preemptive = true;
    prio.delivery = rtos::RtosConfig::HwDelivery::kPolling;
    prio.priority = {{"blt", 1}, {"deb", 5}, {"wcnt", 6}, {"spd", 7},
                     {"odo", 8}, {"ecnt", 6}, {"tach", 7}};
    configs_ = {rr, prio};
  }

  void setup() override {
    network_ = polis::frontend::parse(
                   read_file(data_dir_ + "/inputs/dashboard.rsl"))
                   .networks.at("dash");
    model_ = calibrate(calibrate_s);
    // One-time task synthesis, as a deployed system would do it.
    tasks_ = PassResult();
    machines_ = synthesize_network(*network_, model_, nullptr, tasks_);
    Rng rng(seed_);
    events_ = stimulus(*network_, kRtosGap, kRtosHorizon, rng);
    Digest d;
    add_events(events_, d);
    digest_ = d.hex();
  }

  PassResult pass() override {
    PassResult r;
    r.code_bytes = tasks_.code_bytes;
    r.wcet_cycles = tasks_.wcet_cycles;
    r.wcet_estimated = tasks_.wcet_estimated;
    r.synth_calls = tasks_.synth_calls;  // for the untimed latency samples
    for (const rtos::RtosConfig& config : configs_)
      r.simulate({network_.get(), view(machines_), config, &events_,
                  kRtosHorizon});
    return r;
  }

  std::string describe_inputs() const override {
    return "dash tasks; " + std::to_string(events_.size()) +
           " stimulus events over " + std::to_string(kRtosHorizon) +
           " cycles from seed " + std::to_string(seed_) + " (digest " +
           digest_ + ")";
  }

 private:
  std::uint64_t seed_;
  std::string data_dir_;
  std::vector<rtos::RtosConfig> configs_;
  std::shared_ptr<cfsm::Network> network_;
  estim::CostModel model_;
  PassResult tasks_;  // outputs of the set-up synthesis
  Machines machines_;
  std::vector<rtos::ExternalEvent> events_;
  std::string digest_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& data_dir) {
  using Target = VerifyWorkload::Target;
  if (name == "verify_dash")
    return std::make_unique<VerifyWorkload>(
        std::vector<Target>{{"dashboard.rsl", "dash"}}, data_dir);
  if (name == "verify_examples")
    return std::make_unique<VerifyWorkload>(
        std::vector<Target>{{"blinker.rsl", "blinker"},
                            {"meter.rsl", "meter"},
                            {"dashboard.rsl", "dash_core"},
                            {"microwave.rsl", "microwave"}},
        data_dir);
  if (name == "synth_corpus")
    return std::make_unique<SynthCorpusWorkload>(seed, data_dir);
  if (name == "rtos_sim")
    return std::make_unique<RtosSimWorkload>(seed, data_dir);
  return nullptr;
}

}  // namespace perfbench
