#pragma once
// Deterministic test generation over the unrolled model: a plane-wise
// D-algorithm with J-frontier justification, D-frontier propagation,
// chronological backtracking with a backtrack limit, and unknown initial
// state (frame-0 sequential outputs may never take a binary value, which
// forces self-initializing test sequences).
//
// Learned knowledge plugs in three ways, matching Section 4 of the paper:
//  - LearnMode::KnownValue: a learned implication fires as a real assignment
//    on the good plane, creating a justification obligation (the paper's
//    "unnecessary requirements" behaviour included);
//  - LearnMode::ForbiddenValue: the implied literal's complement is only
//    *forbidden*; forbidden values propagate forward/backward/cross-frame,
//    conflict with real assignments, and steer J-frontier input selection,
//    but never create obligations;
//  - tie gates are pre-asserted facts on the good plane (cycle-aware).
// FF-FF relations act as invalid-state pruning through the same hooks.
// Every relation/tie is applied only at frames with enough history for its
// proof (frame index >= learned frame tag).

#include "atpg/ila.hpp"
#include "core/impl_db.hpp"
#include "core/tie.hpp"
#include "fault/fault.hpp"
#include "guide/testability.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace seqlearn::atpg {

enum class LearnMode : std::uint8_t {
    None,            ///< ignore learned data entirely
    KnownValue,      ///< implied literals become assignments to justify
    ForbiddenValue,  ///< implied literals' complements become forbidden
};

/// Mode spellings, indexed by LearnMode (the `mode` knob reads them).
inline constexpr std::array<std::string_view, 3> kLearnModeNames = {"none", "known",
                                                                    "forbidden"};

inline std::string_view learn_mode_name(LearnMode m) {
    return kLearnModeNames[static_cast<std::size_t>(m)];
}

struct EngineConfig {
    LearnMode mode = LearnMode::None;
    /// Learned relations (may be null; required for modes != None).
    const core::ImplicationDB* db = nullptr;
    /// Learned tie gates (may be null).
    const core::TieSet* ties = nullptr;
    /// Backtracks allowed before giving up on this (fault, window).
    std::uint32_t backtrack_limit = 30;
    /// Decision-node hard cap (safety valve).
    std::uint32_t max_decisions = 200000;
    /// Frame-0 sequential outputs are free variables (used by the
    /// combinational redundancy prover, never for real test generation).
    bool ppi_free = false;
    /// Fault effects reaching a sequential data input in the last frame
    /// count as observed (pseudo primary outputs; redundancy prover only).
    bool observe_ppo = false;
    /// Complete search: instead of heuristic D-frontier branching, fall back
    /// to full enumeration of unassigned primary inputs (and free PPIs),
    /// so an Exhausted verdict is a proof of untestability. Used by the
    /// redundancy prover; too slow for routine generation.
    bool complete_search = false;
    /// SCOAP guidance (may be null = unguided, bit-identical to the
    /// historical search order). When set, justification tries the
    /// cheapest-to-control fanin first and propagation tries the
    /// best-observable D-frontier gate first. Guidance only reorders
    /// alternatives within a decision — the search space, verdicts'
    /// soundness, and the Exhausted/Aborted semantics are unchanged.
    const guide::Testability* guide = nullptr;
};

struct EngineResult {
    enum class Status : std::uint8_t {
        TestFound,  ///< `test` detects the fault (still validate externally)
        Exhausted,  ///< search space exhausted: no test within this window
        Aborted,    ///< backtrack or decision limit hit
    };
    Status status = Status::Exhausted;
    sim::InputSequence test;
    std::uint32_t backtracks = 0;
    std::uint32_t decisions = 0;
};

/// One engine instance per circuit; solve() may be called repeatedly and
/// carries no state between calls — a given (fault, window, config) solves
/// identically on any instance over the same Topology, which is what lets
/// the parallel ATPG campaign fan targets out over per-worker clones.
/// All structural walks (frontier expansion, cone tracing, implication
/// hooks) read the flat CSR Topology.
class Engine {
public:
    /// Share an existing CSR snapshot (must outlive the engine) — a Session
    /// hands every engine the same Topology so the circuit is levelized
    /// exactly once. To solve straight from a Netlist, build a Topology
    /// first (or go through api::Session).
    explicit Engine(const netlist::Topology& topo);

    /// Try to generate a test for `f` within a `frames`-frame window.
    EngineResult solve(const fault::Fault& f, std::uint32_t frames, const EngineConfig& cfg);

    const netlist::Topology& topology() const noexcept { return *topo_; }

private:
    struct Search;  // defined in engine.cpp
    const netlist::Topology* topo_;
};

}  // namespace seqlearn::atpg
