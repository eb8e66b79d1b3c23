// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --data DIR
//
// Sets the workload up once, cold, then runs timed passes until S seconds
// have gone by (at least one) and checks the last pass against the oracles.
// With --trace 1 it then arms the ledger and runs the passes again,
// reporting per-layer metrics instead of the end-to-end ones. Last, it sets
// the workload up again kSetups - 1 times: `setup_s` is the median of all
// set-ups, the first one timed from process start. It prints one JSON
// object as the last line of stdout.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Taken during static initialization, as close to process start as the
/// program can see.
const Clock::time_point kProcessStart = Clock::now();

constexpr int kSetups = 7;
/// A traced run must attribute this share of its wall time to layer spans.
constexpr double kMinSpanCoverage = 0.95;
/// A p99 needs ten samples beyond it, and a latency or rate taken in one
/// burst of a few milliseconds moves with the machine's momentary speed.
/// Workloads whose passes fall short repeat the last pass's synthesis calls
/// and simulations after the timed passes until they have this much.
constexpr size_t kMinSynthSamples = 1000;
constexpr double kMinSynthSeconds = 2.0;
constexpr double kMinSimSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      args.seconds = std::atof(value.c_str());
    else if (flag == "--trace")
      args.trace = value == "1";
    else if (flag == "--data")
      args.data_dir = value;
    else
      return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.data_dir.empty() &&
         args.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
             buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Passes {
  std::vector<PassResult> results;
  std::vector<double> wall_s;
};

Passes run_passes(Workload& w, double seconds) {
  Passes p;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    PassResult r = w.pass();
    p.wall_s.push_back(seconds_since(t0));
    p.results.push_back(std::move(r));
  } while (seconds_since(start) < seconds);
  return p;
}

/// The end-to-end metrics except `setup_s`, which needs the later set-ups.
void end_to_end(const Passes& p, MetricsJson& m) {
  const PassResult& last = p.results.back();
  if (last.synth_calls.empty() || last.sim_calls.empty())
    throw std::logic_error("a pass must synthesize and simulate");
  std::vector<double> synth;
  // Simulation rate per round: the simulations of one pass, or one repeat
  // of the last pass's simulation calls. Rounds interleaved with synthesis
  // run slower than rounds back to back, so the rates come from one kind.
  std::vector<double> sim_rates;
  long long reactions = 0;
  double sim_s = 0;
  auto add_round = [&](const std::vector<SimSummary>& sims) {
    long long n = 0;
    double seconds = 0;
    for (const SimSummary& s : sims) {
      n += s.reactions;
      seconds += s.seconds;
    }
    sim_rates.push_back(ratio(static_cast<double>(n), seconds));
    reactions += n;
    sim_s += seconds;
  };
  for (const PassResult& r : p.results) {
    synth.insert(synth.end(), r.synth_ms.begin(), r.synth_ms.end());
    add_round(r.sims);
  }
  const size_t timed_samples = synth.size();
  double synth_s = 0;
  for (double ms : synth) synth_s += ms / 1000.0;
  while (synth.size() < kMinSynthSamples || synth_s < kMinSynthSeconds) {
    for (const SynthCall& call : last.synth_calls) {
      BddTotals unused;
      const double ms = 1000.0 * synthesize(call, unused).seconds;
      synth.push_back(ms);
      synth_s += ms / 1000.0;
    }
  }
  if (sim_s < kMinSimSeconds) {
    sim_rates.clear();
    reactions = 0;
    sim_s = 0;
  }
  while (sim_s < kMinSimSeconds) {
    std::vector<SimSummary> round;
    for (const SimCall& call : last.sim_calls) round.push_back(simulate(call));
    add_round(round);
  }
  long long latency = 0;
  long long lost = 0;
  for (const SimSummary& s : last.sims) {
    latency = std::max(latency, s.latency_max_cycles);
    lost += s.lost_events;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  std::cout << "pass wall times (s):";
  for (double s : p.wall_s) std::cout << ' ' << s;
  std::cout << "\npasses: " << p.results.size() << ", synthesis samples: "
            << synth.size() << " (" << timed_samples
            << " from the timed passes), simulated reactions: " << reactions
            << " in " << sim_s << " s, " << sim_rates.size() << " rounds\n";

  m.add("wall_s", median(p.wall_s), "s");
  m.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  m.add("synth_ms_p50", median(synth), "ms");
  m.add("synth_ms_p99", percentile(synth, 0.99), "ms");
  m.add("reactions_per_s", median(sim_rates), "1/s");
  m.add("code_bytes", static_cast<double>(last.code_bytes), "bytes");
  m.add("wcet_cycles", static_cast<double>(last.wcet_cycles), "cycles");
  m.add("latency_max_cycles", static_cast<double>(latency), "cycles");
  m.add("lost_events", static_cast<double>(lost), "count");
}

/// The per-layer metrics except `estim.calibrate_ms`, which needs the later
/// set-ups. Checks that the spans cover the traced wall time.
void per_layer(const Passes& untraced, const Passes& traced, Checks& checks,
               MetricsJson& m) {
  const Ledger& ledger = Ledger::get();
  const double n = static_cast<double>(traced.results.size());
  auto total_s = [&](Layer layer) { return ledger.layer(layer).total_s / n; };
  auto ms = [&](Layer layer) { return 1000.0 * total_s(layer); };
  auto num = [](auto v) { return static_cast<double>(v); };
  const PassResult& r = traced.results.back();
  const BddTotals& b = r.bdd;
  long long reactions = 0, empty = 0, overhead = 0;
  for (const SimSummary& s : r.sims) {
    reactions += s.reactions;
    empty += s.empty_reactions;
    overhead += s.overhead_cycles;
  }
  double traced_wall = 0;
  for (double s : traced.wall_s) traced_wall += s;

  m.add("verif.reach_s", total_s(Layer::kReach), "s");
  m.add("verif.iterations", num(r.verif_iterations), "count");
  m.add("verif.image_calls", num(r.image_calls), "count");
  m.add("verif.peak_live_nodes", num(r.peak_live_nodes), "nodes");
  m.add("verif.transition_ms", ms(Layer::kTransition), "ms");
  m.add("verif.encode_ms", ms(Layer::kEncode), "ms");
  m.add("verif.check_ms", ms(Layer::kCheck), "ms");
  m.add("verif.care_ms", ms(Layer::kCare), "ms");
  m.add("bdd.cache_lookups", num(b.cache_lookups), "count");
  m.add("bdd.cache_hit_rate", ratio(b.cache_hits, b.cache_lookups),
        "fraction");
  m.add("bdd.cache_resizes", num(b.cache_resizes), "count");
  m.add("bdd.gc_runs", num(b.gc_runs), "count");
  m.add("bdd.nodes_reclaimed", num(b.nodes_reclaimed), "count");
  m.add("bdd.and_exists_recursions", num(b.and_exists_recursions), "count");
  m.add("bdd.nodes_created", num(b.nodes_created), "count");
  m.add("bdd.unique_hit_rate", ratio(b.unique_hits, b.unique_lookups),
        "fraction");
  m.add("bdd.peak_nodes", num(b.peak_nodes), "nodes");
  m.add("bdd.cache_capacity", num(b.cache_capacity), "entries");
  m.add("cfsm.chi_ms", ms(Layer::kChi), "ms");
  m.add("cfsm.chi_nodes", num(r.chi_nodes), "nodes");
  m.add("sgraph.build_ms", ms(Layer::kSgraph), "ms");
  m.add("sgraph.sift_swaps", num(r.sift_swaps), "count");
  m.add("sgraph.nodes", num(r.sgraph_nodes), "nodes");
  m.add("vm.compile_ms", ms(Layer::kVmCompile), "ms");
  m.add("vm.measure_ms", ms(Layer::kVmMeasure), "ms");
  m.add("vm.exec_s", total_s(Layer::kVmExec), "s");
  m.add("codegen.c_ms", ms(Layer::kCodegen), "ms");
  m.add("codegen.c_bytes", num(r.c_bytes), "bytes");
  m.add("estim.estimate_ms", ms(Layer::kEstimate), "ms");
  m.add("estim.wcet_ratio", ratio(r.wcet_estimated, r.wcet_cycles), "ratio");
  m.add("frontend.parse_ms", ms(Layer::kParse), "ms");
  m.add("rtos.sim_s", total_s(Layer::kRtosSim), "s");
  m.add("rtos.self_s", ledger.layer(Layer::kRtosSim).self_s / n, "s");
  m.add("rtos.reactions", num(reactions), "count");
  m.add("rtos.empty_reactions", num(empty), "count");
  m.add("rtos.overhead_cycles", num(overhead), "cycles");
  m.add("obs.trace_overhead_pct",
        100.0 * (ratio(median(traced.wall_s), median(untraced.wall_s)) - 1),
        "%");
  const double coverage = ratio(ledger.self_s_total(), traced_wall);
  m.add("obs.span_coverage_pct", 100.0 * coverage, "%");
  checks.expect(coverage >= kMinSpanCoverage,
                "layer spans cover at least 95% of the traced wall time");

  std::cout << "traced passes: " << traced.results.size()
            << "; layer times per pass:\n";
  for (size_t i = 0; i < kLayerNames.size(); ++i) {
    const LayerTime& t = ledger.layers()[i];
    std::printf("  %-18s %12.6f s self  %12.6f s total  %10llu calls\n",
                kLayerNames[i], t.self_s / n, t.total_s / n,
                static_cast<unsigned long long>(t.calls));
  }
  std::fflush(stdout);
}

int run(const Args& args) {
  std::unique_ptr<Workload> w =
      make_workload(args.workload, args.seed, args.data_dir);
  if (w == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "' (verify_dash, verify_examples, synth_corpus, rtos_sim)\n";
    return 2;
  }

  // The first set-up is cold and timed from process start; the timed
  // passes follow it directly.
  w->setup();
  std::vector<double> setup_s = {seconds_since(kProcessStart)};
  std::vector<double> calibrate_ms = {1000.0 * w->calibrate_s};
  const std::string inputs = w->describe_inputs();
  std::cout << "workload " << args.workload << ": " << inputs << "\n";

  const Passes untraced = run_passes(*w, args.seconds);
  Checks checks;
  const std::string fingerprint = untraced.results.front().fingerprint();
  for (const PassResult& r : untraced.results)
    checks.expect(r.fingerprint() == fingerprint,
                  "deterministic outputs repeat in every pass");
  std::cout << "outputs: " << fingerprint << "\n";
  w->check(checks);
  check_simulations(untraced.results.back(), checks);

  MetricsJson metrics;
  if (args.trace) {
    Ledger::get().clear();
    Ledger::get().arm(true);
    const Passes traced = run_passes(*w, args.seconds);
    Ledger::get().arm(false);
    checks.expect(traced.results.back().fingerprint() == fingerprint,
                  "traced pass reproduces the untraced outputs");
    per_layer(untraced, traced, checks, metrics);
  } else {
    end_to_end(untraced, metrics);
  }

  // Repeated set-ups, after everything that uses the passes' inputs.
  for (int i = 1; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
    calibrate_ms.push_back(1000.0 * w->calibrate_s);
  }
  checks.expect(w->describe_inputs() == inputs,
                "a repeated set-up generates the same inputs");
  std::cout << "set-up times (s): cold " << setup_s.front() << ", median "
            << median(setup_s) << "\n";
  if (args.trace)
    metrics.add("estim.calibrate_ms", median(calibrate_ms), "ms");
  else
    metrics.add("setup_s", median(setup_s), "s");

  std::cout << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data DIR\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
