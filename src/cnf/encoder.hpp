#pragma once
// Timeframe-expansion CNF encoders over the shared netlist::Topology.
//
// Two encodings, two consumers:
//
// BinaryUnroller — a 2-valued K-frame unrolling with a *free* initial state
// (frame-0 sequential outputs are unconstrained variables, primary inputs
// are free every frame). Because the free state covers arbitrary prior
// history, anything proved at unrolled frame t holds at every frame of
// every execution with >= t frames of history — exactly the frame-tag
// semantics ImplicationDB relations carry. The SAT learn mode probes this
// encoding. Learned facts are seeded on top of the gate definitions: tie
// units at frames >= their proof cycle, equivalence links at every frame,
// implication clauses at frames >= their tag — all sound, since each fact
// is proven for the real machine. Multi-domain circuits get a free capture
// enable per clock class per frame boundary (a foreign domain may or may
// not tick — the SeqGating analogue); latches always capture under a free
// enable. Single-domain flip-flop circuits capture exactly.
//
// FaultMiter — a dual-rail 3-valued good/faulty product machine for the
// stuck-at faults of one campaign. Each (signal, frame) carries two monotone
// rails (is-one / is-zero; neither = X), encoding Kleene semantics
// bit-exactly w.r.t. fault::FaultSimulator: all-X initial state, binary
// primary inputs (an X input never helps under monotone 3-valued logic),
// good-machine ties as constants at frames >= their cycle, faulty copies
// only inside the fault's fanout cone, detection = some primary output
// binary in both machines with differing values. Consequences: every Sat
// model decodes to a witness sequence FaultSimulator::detects confirms, and
// Unsat over K frames is a sound proof that no K-frame test exists under
// the tester model ("untestable within K").
//
// The encoding comes in two steps. The constructor encodes the good machine
// once per (topology, K, ties) into a base solver: input variables and the
// good rails of every gate at every frame. encode(f) copy-assigns that base
// into a reused scratch solver (its arrays keep their capacity, so a
// campaign barely allocates per fault) and adds only f's cone copy and the
// detection clause. A verdict is therefore a pure function of (topology,
// ties, K, fault), whichever faults the miter encoded before.
//
// Rails fold constants as they are built: a false input decides an AND
// rail and a true input an OR rail, true inputs drop out of an AND and
// false inputs out of an OR, and a single remaining input passes through.
// X rails, ties and stuck values thus never cost a variable or a clause.
// A cone gate whose faulty inputs are its good inputs reuses its good
// rails, unless a tie fixes the good gate: inside the cone the faulty
// machine ignores ties, as FaultSimulator does.

#include "cnf/solver.hpp"
#include "core/equivalence.hpp"
#include "core/impl_db.hpp"
#include "core/tie.hpp"
#include "fault/fault.hpp"
#include "netlist/structure.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace seqlearn::cnf {

using netlist::GateId;

/// Learned facts seeded into a BinaryUnroller encoding (all optional).
struct Seeds {
    const core::TieSet* ties = nullptr;
    const core::ImplicationDB* db = nullptr;
    const core::EquivResult* equivalences = nullptr;
};

/// How sequential elements capture across the unrolled frame boundaries.
struct CaptureModel {
    /// Per seq-element index (like Topology::seq_elements()): the enable
    /// group the element ticks with, or kExactCapture for elements that
    /// capture at every boundary.
    std::vector<std::uint32_t> group_of;
    std::uint32_t num_groups = 0;

    static constexpr std::uint32_t kExactCapture = 0xFFFFFFFFu;

    /// Every element captures every boundary (single-domain DFF circuits;
    /// also the fault-simulator model).
    static CaptureModel exact(std::size_t num_seq) {
        CaptureModel m;
        m.group_of.assign(num_seq, kExactCapture);
        return m;
    }
};

class BinaryUnroller {
public:
    /// Both referents must outlive the unroller; the solver must be fresh
    /// (the unroller owns its variable numbering).
    BinaryUnroller(const netlist::Topology& topo, Solver& solver);

    /// Encode frames [0, frames). `capture` may be empty (= exact capture).
    void encode(std::uint32_t frames, const Seeds& seeds = {},
                const CaptureModel& capture = {});

    std::uint32_t frames() const noexcept { return frames_; }

    /// Literal asserting gate `g` == `value` at unrolled frame `t`.
    Lit lit(GateId g, std::uint32_t t, bool value = true) const noexcept {
        const Lit l = lits_[static_cast<std::size_t>(t) * topo_->size() + g];
        return value ? l : ~l;
    }

private:
    void encode_gate(GateId g, std::uint32_t t);

    const netlist::Topology* topo_;
    Solver* solver_;
    std::vector<Lit> lits_;  // frame-major: t * size + g
    std::uint32_t frames_ = 0;
    Lit true_lit_;
};

class FaultMiter {
public:
    /// Encode the good machine over `frames` frames, seeding ties from
    /// `ties` (null = none; pass the same ties the validating
    /// FaultSimulator uses). Both referents must outlive the miter.
    FaultMiter(const netlist::Topology& topo, std::uint32_t frames,
               const core::TieSet* ties);

    /// Replace solver()'s formula with the K-frame detection miter for `f`.
    /// Returns false when the fault's cone reaches no primary output within
    /// the window — structurally undetectable, no solve needed.
    bool encode(const fault::Fault& f);

    /// The solver holding the last encode()'s formula.
    Solver& solver() noexcept { return solver_; }
    std::uint32_t frames() const noexcept { return frames_; }

    /// Decode solver()'s Sat model into the (all-binary) witness sequence.
    sim::InputSequence witness() const;

private:
    struct Rails {
        Lit one, zero;
        bool operator==(const Rails&) const = default;
    };
    Rails& good(GateId g, std::uint32_t t) noexcept {
        return good_[static_cast<std::size_t>(t) * topo_->size() + g];
    }
    Rails& faulty(GateId g, std::uint32_t t) noexcept {
        return faulty_[static_cast<std::size_t>(t) * topo_->size() + g];
    }
    /// The faulty machine's rails: the cone copy, or the good rails outside.
    Rails cone_rails(GateId g, std::uint32_t t) noexcept {
        return cone_.contains(g) ? faulty(g, t) : good(g, t);
    }
    bool tied(GateId g, std::uint32_t t) const noexcept {
        return ties_ != nullptr && ties_->value(g) != logic::Val3::X && t >= ties_->cycle(g);
    }
    Rails comb_rails(Solver& s, logic::GateOp op, std::span<const Rails> ins);
    Lit fold(Solver& s, bool is_or, std::span<const Lit> lits);

    const netlist::Topology* topo_;
    const core::TieSet* ties_;
    std::uint32_t frames_;
    Solver base_;    // the good machine
    Solver solver_;  // base_ + the current fault's cone
    Lit true_lit_;
    std::vector<Rails> good_;    // frame-major good rails (ties applied)
    std::vector<Rails> faulty_;  // frame-major; meaningful inside the cone only
    std::vector<Lit> input_lits_;  // frame-major by input index
    // Scratch reused by every encode (no per-gate allocation).
    netlist::ForwardCone cone_;  // the current fault's cone
    std::vector<Rails> ins_;
    std::vector<Lit> ones_, zeros_, kept_, clause_, detect_;
};

}  // namespace seqlearn::cnf
