// The four benchmark workloads. Each one is set up (inputs generated from
// the seed, cost model calibrated), then runs timed passes of its pipeline
// back to back (a closed loop with one caller), then checks the last pass
// against oracles that do not share code with the path under test.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "pipeline.hpp"

namespace perfbench {

/// What one timed pass produced: latency samples, the deterministic
/// user-facing outputs, and the layer counters the traced run reports.
struct PassResult {
  std::vector<double> synth_ms;  // per-machine synthesis latency
  long long code_bytes = 0;      // VM code of every synthesized machine
  long long wcet_cycles = 0;     // measured max cycles, summed per instance
  long long wcet_estimated = 0;  // estimator max cycles of the same set
  std::vector<SimSummary> sims;

  BddTotals bdd;
  long long c_bytes = 0;
  long long sgraph_nodes = 0;
  long long sift_swaps = 0;
  long long chi_nodes = 0;
  long long verif_iterations = 0;
  long long image_calls = 0;
  long long peak_live_nodes = 0;
  std::string verdicts;  // reached states, iterations, verdicts per network

  /// Every synthesis and simulation call of the pass, in order (`sims[i]`
  /// is the outcome of `sim_calls[i]`), so they can be repeated untimed.
  std::vector<SynthCall> synth_calls;
  std::vector<SimCall> sim_calls;

  /// Runs one synthesis call, records it and adds the machine's outputs
  /// and counters.
  Synthesized synthesize(SynthCall call);
  /// Runs one simulation call and records it and its outcome.
  SimSummary simulate(SimCall call);
  /// The outputs every pass must reproduce exactly.
  std::string fingerprint() const;
};

/// Oracle bookkeeping behind `attempted` / `failed`.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cout << "CHECK FAILED: " << what << "\n";
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed call. Repeatable: each call redoes
  /// the whole set-up from scratch and gives the same inputs.
  virtual void setup() = 0;
  /// One timed pass.
  virtual PassResult pass() = 0;
  /// Oracle checks of the most recent pass (untimed), beyond the
  /// simulation replays of check_simulations.
  virtual void check(Checks& /*checks*/) {}
  /// One line: what the inputs are and their digest.
  virtual std::string describe_inputs() const = 0;

  /// Wall time of the cost-model calibration in the last set-up.
  double calibrate_s = 0;
};

/// Replays every simulation of `pass` with each reaction checked against
/// the reference semantics (cfsm::Cfsm::react); the outcome must equal the
/// timed run's, and no run may abort.
void check_simulations(const PassResult& pass, Checks& checks);

/// `data_dir` holds the input sources and the known-answer file. Returns
/// null for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& data_dir);

}  // namespace perfbench
