#pragma once
// Per-fault CNF proving and cost-based backend routing — the glue between
// the ATPG campaign and the timeframe-expansion backend.
//
// prove_fault builds a fresh FaultMiter + Solver for one fault and solves
// the K-frame detection problem. Sat decodes to a witness input sequence
// (the caller validates it through the independent FaultSimulator before
// taking credit); Unsat is a sound "untestable within K frames" proof under
// the tester model; a governance stop surfaces as Unknown with the matching
// RunOutcome.
//
// route_to_sat is the Backend::Auto policy: a deterministic, pure function
// of (topology, ties, fault) — no clocks, no randomness — so routing
// decisions are identical across runs and thread counts. Features: fault
// cone size (CNF size is linear in cone x frames), level depth span (deep
// cones favor the frame-sim engine's direct search), and learned-tie
// density inside the cone (tied cones make UNSAT proofs cheap, and
// tie-heavy cones are where frame-sim ATPG aborts most).

#include "cnf/solver.hpp"
#include "core/tie.hpp"
#include "fault/fault.hpp"
#include "fault/fault_list.hpp"
#include "guide/testability.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"

#include <array>
#include <cstdint>
#include <string_view>

namespace seqlearn::cnf {

/// Which engine targets a fault.
enum class Backend : std::uint8_t {
    FrameSim,  ///< the paper's frame-window structural engine only
    Sat,       ///< the CNF timeframe-expansion backend only
    Auto,      ///< route per fault; SAT also re-targets frame-sim aborts
};

/// Backend spellings, indexed by Backend (the `backend` knob reads them).
inline constexpr std::array<std::string_view, 3> kBackendNames = {"framesim", "sat", "auto"};

inline std::string_view backend_name(Backend b) {
    return kBackendNames[static_cast<std::size_t>(b)];
}

struct CnfVerdict {
    enum class Kind : std::uint8_t {
        Untestable,  ///< no detecting sequence of <= `frames` frames exists
        Test,        ///< `test` detects the fault (modulo fsim validation)
        Unknown,     ///< governance stop before a verdict (see `run`)
    };
    Kind kind = Kind::Unknown;
    /// Proof flavor when Untestable: Structural (cone reaches no output —
    /// valid for every K) or BoundedCnf (valid for this `frames` bound).
    fault::UntestableProof proof = fault::UntestableProof::None;
    sim::InputSequence test;
    std::uint32_t frames = 0;    ///< frame bound the verdict was proved at
    std::uint64_t conflicts = 0; ///< solver conflicts spent
    exec::RunOutcome run;        ///< Completed, or the governance stop
};

/// Solve the K-frame detection problem for `f` with a fresh solver. `ties`
/// must be the same tie set the validating FaultSimulator is configured
/// with (null = none). Deterministic; polls governance inside the solve.
CnfVerdict prove_fault(const netlist::Topology& topo, const fault::Fault& f,
                       std::uint32_t frames, const core::TieSet* ties,
                       const exec::CancelFlag* cancel, exec::Budget* budget);

/// Backend::Auto per-fault routing decision (see header comment). When a
/// Testability analysis is supplied (SCOAP-guided campaigns), its hardness
/// score joins the feature set: SCOAP-hard faults are where the guided
/// frame-sim engine aborts, so they buy a larger CNF cap, and kInf-hard
/// faults (untestable-looking) route to SAT whenever the bounded proof is
/// tractable. Null keeps the historical structural-features-only policy —
/// still a pure deterministic function either way.
bool route_to_sat(const netlist::Topology& topo, const fault::Fault& f,
                  std::uint32_t frames, const core::TieSet* ties,
                  const guide::Testability* tst = nullptr);

}  // namespace seqlearn::cnf
