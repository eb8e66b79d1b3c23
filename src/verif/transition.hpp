// Partitioned transition relation of a CFSM network (the paper's handoff to
// a BDD-based verification backend, §I-H step 2).
//
// The relation is *disjunctively* partitioned: one cluster per machine
// instance (an atomic reaction: consume the input buffers, update state,
// deliver emissions into consumer buffers) plus one cluster per external
// input net (the environment delivering an event into every consumer
// buffer). Each cluster constrains only its fixed `modified` set of bits and
// carries frame conditions (next == present) for modified bits a particular
// transition leaves alone; all other bits are untouched by construction, so
// image computation quantifies only the cluster's own present bits — the
// early-quantification schedule falls out of the partitioning.
//
// Interleaving semantics: one cluster step at a time. Non-firing reactions
// and all-absent snapshots are stutter steps and are not encoded (they do
// not change the global state). Lost-event risk (an emission or delivery
// overwriting a still-undetected buffered event) is recorded per cluster as
// a present-state set, feeding the built-in "no event is ever lost" check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "verif/encode.hpp"

namespace polis::verif {

struct Cluster {
  enum class Kind { kMachineStep, kEnvEvent };
  Kind kind = Kind::kMachineStep;
  /// Instance name (kMachineStep) or external input net name (kEnvEvent).
  std::string subject;
  /// Transition relation over this cluster's present + next bits (plus
  /// guard conditions on other instances' present bits — none today).
  bdd::Bdd relation;
  /// Bits this cluster may change.
  std::vector<VarPair> modified;
  /// Present-column variables of `modified` (the image quantification cube).
  std::vector<int> quantify_present;
  /// Next-column variables of `modified` (the preimage quantification cube).
  std::vector<int> quantify_next;
  /// Present states in which taking this step overwrites a still-pending
  /// event in some target buffer (1-place buffer overflow, §II-D).
  bdd::Bdd overwrite_risk;
  /// Concrete transitions encoded (enumeration telemetry).
  std::uint64_t transitions = 0;
};

struct TransitionSystem {
  NetworkEncoding* enc = nullptr;  // non-owning; outlives the system
  std::vector<Cluster> clusters;
  /// Rename-map id (on the encoding's manager) relabelling every cluster's
  /// next bits to their present twins — the image's substitution. One map
  /// serves all clusters: a cluster's relation holds next bits of its own
  /// modified set only, and the image source holds no next bits at all.
  int next_to_present = -1;
};

struct TransitionOptions {
  /// Per-machine concrete-space enumeration cap; building the relation for a
  /// machine above the cap throws (the symbolic backend is exact or absent,
  /// never silently partial).
  std::uint64_t enum_limit = 1u << 20;
};

TransitionSystem build_transition_system(NetworkEncoding& enc,
                                         const TransitionOptions& options = {});

/// Forward image of `from` under one cluster, over the present variables:
/// one fused `and_exists_rename` pass that conjoins with the relation,
/// quantifies the modified present bits and writes each surviving next bit
/// at its present twin's level. The same handle as `rename(and_exists(...))`
/// without building the pre-rename product.
bdd::Bdd image_one(const TransitionSystem& tr, const Cluster& cluster,
                   const bdd::Bdd& from);

/// The states in the forward image of `from` under the whole partitioned
/// relation that are not yet in `reached`: each cluster's partial image is
/// conjoined with `!reached` first, then the parts are OR-ed pairwise in
/// cluster order as a balanced tree. Canonicity makes the result the same
/// handle as the left-fold union of every `image_one` minus `reached`; the
/// subtraction keeps each part small and the tree keeps every union between
/// operands of similar size (see DESIGN.md §7).
bdd::Bdd image(const TransitionSystem& tr, const bdd::Bdd& from,
               const bdd::Bdd& reached);

}  // namespace polis::verif
