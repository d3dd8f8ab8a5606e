#pragma once
// Structural traversals: fanin/fanout cones and reconvergence helpers.

#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace seqlearn::netlist {

/// The forward closure of a fault site over a Topology's fanout spans,
/// through combinational and sequential sinks (a latched fault effect
/// persists across frames): every gate whose value a fault at the root can
/// change. The caller owns the buffers and reuses them across walks; a walk
/// undoes the previous one's marks through its gate list, so it costs the
/// cone only.
class ForwardCone {
public:
    /// Replace the cone with the forward closure of `root` (root included).
    void walk(const Topology& topo, GateId root);

    bool contains(GateId g) const noexcept { return mark_[g] != 0; }
    /// The cone's gates in breadth-first order from the root.
    std::span<const GateId> gates() const noexcept { return gates_; }

private:
    std::vector<std::uint8_t> mark_;
    std::vector<GateId> gates_;  // the walk's queue and, after it, the cone
};

/// Gates reachable forward from `start` (excluding `start` itself).
/// When `through_seq` is false the traversal stops at sequential elements
/// (they are included in the result but not expanded).
std::vector<GateId> fanout_cone(const Netlist& nl, GateId start, bool through_seq);

/// Gates reachable backward from `start` (excluding `start` itself); same
/// sequential-element rule as fanout_cone.
std::vector<GateId> fanin_cone(const Netlist& nl, GateId start, bool through_seq);

/// The combinational support of `id`: all Input/Const/sequential-element
/// sources feeding it through combinational logic only.
std::vector<GateId> comb_support(const Netlist& nl, GateId id);

/// Sequential depth: the longest distance, counted in sequential elements,
/// from any primary input to any output/element, capped at `cap` to stay
/// finite on cyclic state machines.
std::size_t sequential_depth(const Netlist& nl, std::size_t cap = 64);

/// Topology overload of sequential_depth: identical result, computed over
/// the CSR snapshot (no Netlist adjacency walks).
std::size_t sequential_depth(const Topology& topo, std::size_t cap = 64);

}  // namespace seqlearn::netlist
