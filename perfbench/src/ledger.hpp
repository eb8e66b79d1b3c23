// Per-layer time ledger for the traced run. The benchmark places a Span
// around each call it makes into a pipeline layer; the program's own
// OBS_SPAN recorder stays off. A layer's self time is its span's duration
// minus the time covered by spans nested inside it. A disarmed Span costs
// one branch, so the untraced run times the same code, and an armed one
// costs two clock reads and an array update.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every span the benchmark records; kLayerNames gives their names.
enum class Layer : std::size_t {
  kParse,
  kChi,
  kSgraph,
  kVmCompile,
  kVmMeasure,
  kVmExec,
  kCodegen,
  kEstimate,
  kEncode,
  kTransition,
  kReach,
  kCheck,
  kCare,
  kRtosSim,
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(
                                             Layer::kCount)>
    kLayerNames = {"frontend.parse", "cfsm.chi",       "sgraph.build",
                   "vm.compile",     "vm.measure",     "vm.exec",
                   "codegen.c",      "estim.estimate", "verif.encode",
                   "verif.transition", "verif.reach",  "verif.check",
                   "verif.care",     "rtos.sim"};

struct LayerTime {
  double total_s = 0;
  double self_s = 0;
  std::uint64_t calls = 0;
};

/// Process-wide; the benchmark is single-threaded.
class Ledger {
 public:
  using Layers =
      std::array<LayerTime, static_cast<std::size_t>(Layer::kCount)>;

  static Ledger& get() {
    static Ledger ledger;
    return ledger;
  }

  bool armed() const { return armed_; }
  void arm(bool on) { armed_ = on; }
  void clear() { layers_ = {}; }

  const Layers& layers() const { return layers_; }
  const LayerTime& layer(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }
  double self_s_total() const {
    double sum = 0;
    for (const LayerTime& t : layers_) sum += t.self_s;
    return sum;
  }

 private:
  friend class Span;
  bool armed_ = false;
  Layers layers_{};
  std::vector<double> nested_s_;  // per open span: time of its children
};

class Span {
 public:
  explicit Span(Layer layer) {
    Ledger& l = Ledger::get();
    if (!l.armed_) return;
    layer_ = &l.layers_[static_cast<std::size_t>(layer)];
    l.nested_s_.push_back(0);
    start_ = Clock::now();
  }
  ~Span() {
    if (layer_ == nullptr) return;
    const double elapsed = seconds_since(start_);
    Ledger& l = Ledger::get();
    layer_->total_s += elapsed;
    layer_->self_s += elapsed - l.nested_s_.back();
    ++layer_->calls;
    l.nested_s_.pop_back();
    if (!l.nested_s_.empty()) l.nested_s_.back() += elapsed;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTime* layer_ = nullptr;
  Clock::time_point start_;
};

}  // namespace perfbench
