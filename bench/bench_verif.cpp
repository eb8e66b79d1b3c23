// Symbolic verification bench: reachability fixpoint telemetry per example
// network (reached states, iterations, peak live nodes, GC runs, transition
// relation size), the tentpole payoff — estimated code size of each machine
// with the *local* care set versus the *global* (reached-set) care filter
// fed back into s-graph synthesis — and the fixpoint's scaling curve over
// the generated N-channel dashboard family.
#include <chrono>
#include <iostream>

#include "report.hpp"
#include "core/synthesis.hpp"
#include "core/systems.hpp"
#include "estim/calibrate.hpp"
#include "util/table.hpp"
#include "verif/verif.hpp"
#include "vm/machine.hpp"

namespace {

using namespace polis;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void run_network(const std::string& name, const cfsm::Network& net,
                 const estim::CostModel& model, Table& verify_table,
                 Table& care_table, bench::Report& report) {
  const auto t0 = std::chrono::steady_clock::now();
  const verif::VerifyResult v = verif::verify_network(net);
  const double verify_s = seconds_since(t0);

  int proved = 0, violated = 0, unknown = 0;
  for (const verif::CheckResult& r : v.assertions) {
    if (r.verdict == verif::Verdict::kProved) ++proved;
    else if (r.verdict == verif::Verdict::kViolated) ++violated;
    else ++unknown;
  }
  verify_table.add_row(
      {name, fixed(v.reach.reached_states, 0),
       std::to_string(v.reach.iterations),
       std::to_string(v.reach.peak_live_nodes),
       std::to_string(v.reach.gc_runs), std::to_string(v.transitions),
       std::to_string(proved) + "/" +
           std::to_string(v.assertions.size()),
       fixed(1000 * verify_s, 1)});

  auto& entry = report.entry(name);
  entry.metric("reached_states", v.reach.reached_states)
      .metric("iterations", v.reach.iterations)
      .metric("peak_live_nodes", v.reach.peak_live_nodes)
      .metric("reached_nodes", v.reach.reached_nodes)
      .metric("gc_runs", v.reach.gc_runs)
      .metric("exact", v.reach.exact ? 1 : 0)
      .metric("clusters", v.clusters)
      .metric("transitions", v.transitions)
      .metric("asserts_proved", proved)
      .metric("asserts_violated", violated)
      .metric("asserts_unknown", unknown)
      .metric("verify_ms", 1000 * verify_s);

  // Per-machine synthesis, local vs global care set.
  for (const cfsm::Instance& inst : net.instances()) {
    SynthesisOptions local;
    local.build.use_care_set = true;
    local.cost_model = &model;
    SynthesisOptions global = local;
    auto fit = v.care_filters.find(inst.machine->name());
    if (fit != v.care_filters.end()) global.build.care_filter = fit->second;

    const SynthesisResult with_local = synthesize(inst.machine, local);
    const SynthesisResult with_global = synthesize(inst.machine, global);
    care_table.add_row(
        {name + "." + inst.name,
         std::to_string(with_local.graph->num_reachable()),
         std::to_string(with_global.graph->num_reachable()),
         std::to_string(with_local.estimate.size_bytes),
         std::to_string(with_global.estimate.size_bytes),
         std::to_string(with_local.estimate.min_cycles) + ".." +
             std::to_string(with_local.estimate.max_cycles),
         std::to_string(with_global.estimate.min_cycles) + ".." +
             std::to_string(with_global.estimate.max_cycles)});

    auto& row = report.entry(name + "." + inst.name);
    row.metric("sgraph_local_care", with_local.graph->num_reachable())
        .metric("sgraph_global_care", with_global.graph->num_reachable())
        .metric("size_bytes_local_care", with_local.estimate.size_bytes)
        .metric("size_bytes_global_care", with_global.estimate.size_bytes)
        .metric("max_cycles_local_care", with_local.estimate.max_cycles)
        .metric("max_cycles_global_care", with_global.estimate.max_cycles);
  }
}

// Channel-count sweep over the generated dashboard family
// (systems::generated_dash_network): the state space grows multiplicatively
// per channel while the cluster count grows linearly, so the family is the
// fixpoint's scaling axis. Care extraction is off — the sweep measures the
// fixpoint, not the downstream synthesis.
void run_scaling(bench::Report& report) {
  Table t({"channels", "reached", "iters", "verify ms"});
  for (int channels = 1; channels <= 3; ++channels) {
    const auto net = systems::generated_dash_network(channels);
    verif::VerifyOptions opt;
    opt.extract_care = false;
    const auto t0 = std::chrono::steady_clock::now();
    const verif::VerifyResult v = verif::verify_network(*net, opt);
    const double ms = 1000 * seconds_since(t0);
    t.add_row({std::to_string(channels), fixed(v.reach.reached_states, 0),
               std::to_string(v.reach.iterations), fixed(ms, 1)});
    report.entry("dash_gen" + std::to_string(channels))
        .metric("channels", channels)
        .metric("reached_states", v.reach.reached_states)
        .metric("iterations", v.reach.iterations)
        .metric("exact", v.reach.exact ? 1 : 0)
        .metric("verify_ms", ms);
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  const estim::CostModel model = estim::calibrate(vm::hc11_like());
  bench::Report report("bench_verif");
  obs::TraceRecorder::global().set_enabled(true);
  // Layer epochs tick once per fixpoint BFS layer while the recorder is on,
  // so the report's series.* entries cover the verification runs below.
  obs::SeriesRecorder::global().set_enabled(true);

  std::cout << "Symbolic reachability & verification\n";
  Table verify_table({"network", "reached", "iters", "peak nodes", "gc",
                      "transitions", "asserts proved", "verify ms"});
  Table care_table({"task", "sgraph local", "sgraph global", "bytes local",
                    "bytes global", "cycles local", "cycles global"});

  run_network("meter", *systems::meter_network(), model, verify_table,
              care_table, report);
  run_network("dash_core", *systems::dash_core_network(), model, verify_table,
              care_table, report);
  run_network("microwave", *systems::microwave_network(), model, verify_table,
              care_table, report);

  verify_table.print(std::cout);
  std::cout << "\nCode size with local vs global (reached-set) care\n";
  care_table.print(std::cout);
  std::cout << "\nReachability scaling (generated dash family)\n";
  run_scaling(report);
  report.capture_phases();
  report.capture_series();
  obs::SeriesRecorder::global().set_enabled(false);
  obs::TraceRecorder::global().set_enabled(false);
  report.write("BENCH_VERIF.json");
  std::cout << "\nwrote BENCH_VERIF.json\n";
  return 0;
}
