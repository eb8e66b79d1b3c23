#include "verif/transition.hpp"

#include <map>
#include <set>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace polis::verif {

namespace {

/// XNOR frame condition: every bit of the slot keeps its value.
bdd::Bdd frame_bits(bdd::BddManager& mgr, const std::vector<VarPair>& bits) {
  bdd::Bdd frame = mgr.one();
  for (const VarPair& b : bits)
    frame = frame & !(mgr.var(b.next) ^ mgr.var(b.present));
  return frame;
}

/// Registers the next→present relabel of `modified` on `mgr` and returns
/// the map id.
int register_next_to_present(bdd::BddManager& mgr,
                             const std::vector<VarPair>& modified) {
  std::vector<std::pair<int, int>> map;
  map.reserve(modified.size());
  for (const VarPair& b : modified) map.emplace_back(b.next, b.present);
  return mgr.register_rename(map);
}

}  // namespace

TransitionSystem build_transition_system(NetworkEncoding& enc,
                                         const TransitionOptions& options) {
  OBS_SPAN(span, "verif.build_transition_system", "verif");
  bdd::BddManager& mgr = enc.manager();
  const cfsm::Network& network = enc.network();
  const std::map<std::string, cfsm::Net> nets = network.nets();

  TransitionSystem tr;
  tr.enc = &enc;

  auto append_bits = [](Cluster& c, std::set<int>& seen,
                        const std::vector<VarPair>& bits) {
    for (const VarPair& b : bits) {
      if (!seen.insert(b.present).second) continue;
      c.modified.push_back(b);
      c.quantify_present.push_back(b.present);
      c.quantify_next.push_back(b.next);
    }
  };

  // --- One cluster per machine instance (an atomic reaction) ---------------
  for (const cfsm::Instance& inst : network.instances()) {
    const cfsm::Cfsm& machine = *inst.machine;
    Cluster c;
    c.kind = Cluster::Kind::kMachineStep;
    c.subject = inst.name;
    c.relation = mgr.zero();
    c.overwrite_risk = mgr.zero();

    // Modified set: own state bits, own input buffers (consumed), and the
    // consumer buffers of every net this instance can emit to.
    std::set<int> seen;
    std::vector<const BufferSlot*> modified_buffers;
    for (const StateSlot& s : enc.state_slots())
      if (s.instance == inst.name) append_bits(c, seen, s.bits);
    auto add_buffer = [&](const BufferSlot& slot) {
      const size_t before = seen.size();
      std::vector<VarPair> bits;
      bits.push_back(slot.presence);
      bits.insert(bits.end(), slot.value_bits.begin(), slot.value_bits.end());
      append_bits(c, seen, bits);
      if (seen.size() != before) modified_buffers.push_back(&slot);
    };
    for (const cfsm::Signal& in : machine.inputs())
      add_buffer(enc.buffer_slot(inst.name, in.name));
    for (const cfsm::Signal& out : machine.outputs()) {
      auto nit = nets.find(inst.net_of(out.name));
      if (nit == nets.end()) continue;
      for (const auto& [ci, cp] : nit->second.consumers)
        add_buffer(enc.buffer_slot(ci, cp));
    }

    // Per-slot frame conditions, built once and reused across combos.
    std::map<const BufferSlot*, bdd::Bdd> frames;
    for (const BufferSlot* slot : modified_buffers) {
      std::vector<VarPair> bits;
      bits.push_back(slot->presence);
      bits.insert(bits.end(), slot->value_bits.begin(),
                  slot->value_bits.end());
      frames.emplace(slot, frame_bits(mgr, bits));
    }

    const bool complete = cfsm::enumerate_concrete_space(
        machine, options.enum_limit,
        [&](const cfsm::Snapshot& snap,
            const std::map<std::string, std::int64_t>& st) {
          // Only enabled (some event pending), canonical combinations step.
          bool any_present = false;
          for (const cfsm::Signal& in : machine.inputs()) {
            if (snap.is_present(in.name)) any_present = true;
            else if (snap.value_of(in.name) != 0) return;  // non-canonical
          }
          if (!any_present) return;
          const cfsm::Reaction reaction = machine.react(snap, st);
          if (!reaction.fired) return;  // stutter: events preserved
          ++c.transitions;

          const bdd::Bdd guard = enc.local_combo_cube(inst.name, snap, st);
          bdd::Bdd t = guard;
          for (const StateSlot& s : enc.state_slots())
            if (s.instance == inst.name)
              t = t & enc.value_cube(s.bits, reaction.next_state.at(s.var),
                                     /*next=*/true);

          // Buffer effects: consuming clears the own input buffers; each
          // emission then overwrites its consumers (in emission order, as the
          // RTOS delivers), including a self-loop back into an own port.
          std::map<const BufferSlot*, GlobalState::Buffer> buffer_next;
          for (const cfsm::Signal& in : machine.inputs())
            buffer_next[&enc.buffer_slot(inst.name, in.name)] =
                GlobalState::Buffer{};
          bdd::Bdd risk = mgr.zero();
          for (const auto& [sig, value] : reaction.emissions) {
            auto nit = nets.find(inst.net_of(sig));
            if (nit == nets.end()) continue;
            for (const auto& [ci, cp] : nit->second.consumers) {
              const BufferSlot& slot = enc.buffer_slot(ci, cp);
              // A pending event in our own input buffer is part of the
              // snapshot this step consumes — overwriting it loses nothing.
              if (ci != inst.name)
                risk = risk | mgr.var(slot.presence.present);
              buffer_next[&slot] = GlobalState::Buffer{true, value};
            }
          }
          for (const auto& [slot, buf] : buffer_next) {
            t = t & enc.literal(slot->presence, buf.present, /*next=*/true);
            t = t & enc.value_cube(slot->value_bits, buf.value, /*next=*/true);
          }
          for (const BufferSlot* slot : modified_buffers)
            if (buffer_next.count(slot) == 0) t = t & frames.at(slot);

          c.relation = c.relation | t;
          if (!risk.is_zero()) c.overwrite_risk = c.overwrite_risk | (guard & risk);
        });
    POLIS_CHECK_MSG(complete, "transition relation for machine '"
                                  << machine.name()
                                  << "' exceeds the enumeration limit");
    tr.clusters.push_back(std::move(c));
  }

  // --- One cluster per external input net (environment delivery) ----------
  for (const std::string& net_name : network.external_inputs()) {
    const cfsm::Net& net = nets.at(net_name);
    Cluster c;
    c.kind = Cluster::Kind::kEnvEvent;
    c.subject = net_name;
    c.relation = mgr.zero();
    c.overwrite_risk = mgr.zero();

    std::set<int> seen;
    std::vector<const BufferSlot*> targets;
    for (const auto& [ci, cp] : net.consumers) {
      const BufferSlot& slot = enc.buffer_slot(ci, cp);
      std::vector<VarPair> bits;
      bits.push_back(slot.presence);
      bits.insert(bits.end(), slot.value_bits.begin(), slot.value_bits.end());
      append_bits(c, seen, bits);
      targets.push_back(&slot);
      c.overwrite_risk = c.overwrite_risk | mgr.var(slot.presence.present);
    }

    const int values = net.domain <= 1 ? 1 : net.domain;
    for (int v = 0; v < values; ++v) {
      bdd::Bdd t = mgr.one();
      for (const BufferSlot* slot : targets) {
        t = t & enc.literal(slot->presence, true, /*next=*/true);
        t = t & enc.value_cube(slot->value_bits, v, /*next=*/true);
      }
      c.relation = c.relation | t;
      ++c.transitions;
    }
    tr.clusters.push_back(std::move(c));
  }
  std::vector<VarPair> all_modified;
  for (const Cluster& c : tr.clusters)
    all_modified.insert(all_modified.end(), c.modified.begin(),
                        c.modified.end());
  tr.next_to_present = register_next_to_present(mgr, all_modified);
  if (span.armed()) {
    span.arg("clusters", tr.clusters.size());
    std::uint64_t transitions = 0;
    for (const Cluster& c : tr.clusters)
      transitions += static_cast<std::uint64_t>(c.transitions);
    span.arg("transitions", transitions);
  }
  return tr;
}

bdd::Bdd image_one(const TransitionSystem& tr, const Cluster& cluster,
                   const bdd::Bdd& from) {
  bdd::BddManager& mgr = tr.enc->manager();
  // Early quantification: only this cluster's present bits are conjoined
  // away; unmodified bits pass through untouched. The quantified present
  // twins are gone from the support, and the interleaved order keeps each
  // next bit directly below its present twin, so the fused substitution is
  // a pure relabel (see BddManager::and_exists_rename).
  return mgr.and_exists_rename(from, cluster.relation,
                               cluster.quantify_present, tr.next_to_present);
}

bdd::Bdd image(const TransitionSystem& tr, const bdd::Bdd& from,
               const bdd::Bdd& reached) {
  bdd::BddManager& mgr = tr.enc->manager();
  const bdd::Bdd unreached = !reached;
  std::vector<bdd::Bdd> parts;
  parts.reserve(tr.clusters.size());
  for (const Cluster& c : tr.clusters)
    parts.push_back(image_one(tr, c, from) & unreached);
  // Balanced pairwise union: (0,1), (2,3), ... per round until one is left.
  while (parts.size() > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < parts.size(); i += 2)
      parts[out++] =
          i + 1 < parts.size() ? parts[i] | parts[i + 1] : parts[i];
    parts.resize(out);
  }
  return parts.empty() ? mgr.zero() : parts.front();
}

}  // namespace polis::verif
