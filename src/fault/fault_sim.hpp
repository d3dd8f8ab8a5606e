#pragma once
// Sequential stuck-at fault simulation, 255 faults per pass.
//
// Every gate value is 256 three-valued lanes (four 64-bit ones/zeros word
// pairs). Lane 0 carries the fault-free circuit; lanes 1..255 carry faulty
// circuits (one permanent fault each). All machines run from the all-X state
// under 3-valued semantics. A fault is detected when a primary output is
// binary in both the good and the faulty lane and the two values differ (the
// conservative definition a tester can rely on).
//
// Hot-path design: all structural access goes through the flat CSR
// netlist::Topology (contiguous fanin spans in the evaluation loop). Each
// gate is evaluated by a direct switch over its operator, four words per
// plane. Fault forcing lives in flat per-gate and per-fanin-edge four-word
// mask arrays that persist on the simulator and are cleared entry-by-entry
// between passes; one flag byte per gate keeps unforced, untied gates on the
// plain path. A learned tie reaches only the faulty lanes whose fault cone
// does not contain the tied gate; which ties lie in each gate's cone comes
// from a tie-cone index built once per tied-gate list, so a pass spends one
// index row per fault on it and walks no cones. Detection ORs the per-output
// diff words into a lane mask and walks its set bits once per pass, so a
// pass in steady state performs no heap allocation.

#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/failpoint.hpp"
#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "fault/fault_list.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

namespace seqlearn::fault {

/// Maximum faults per simulation pass (lanes 1..255).
inline constexpr std::size_t kFaultsPerPass = 255;

class FaultSimulator {
public:
    /// Share an existing CSR snapshot (must outlive the simulator) — a
    /// Session hands every engine the same Topology so the circuit is
    /// levelized exactly once. To simulate straight from a Netlist, build a
    /// Topology first (or go through api::Session).
    explicit FaultSimulator(const netlist::Topology& topo);

    /// Fan drop_detected() passes out over `pool` (must outlive the
    /// simulator; null reverts to serial), using at most `max_workers` slots
    /// (0 = all). Worker clones over the shared Topology are built lazily;
    /// run() and detects() always execute on the calling thread.
    void set_executor(exec::Pool* pool, unsigned max_workers = 0);

    /// Attach run-governance hooks for the current stage (all may be null;
    /// the owner clears them when its run ends). drop_detected() polls
    /// cancel/budget at pass boundaries and stops early — sound, since
    /// skipping passes only leaves detectable faults undropped — and polls
    /// `failpoint` (FailSite::WorkItem) before each pass.
    void set_governance(const exec::CancelFlag* cancel, exec::Budget* budget,
                        exec::FailurePoint* failpoint) noexcept {
        cancel_ = cancel;
        budget_ = budget;
        failpoint_ = failpoint;
    }

    /// Augment simulation with learned tie facts: gate -> tied value (X =
    /// untied) with per-gate proof cycles (frames before the cycle are not
    /// seeded; null = all combinational). Ties always apply to the good
    /// machine (lane 0); a faulty lane receives a tie only when the tied
    /// gate lies outside that fault's forward cone (through flip-flops),
    /// where the faulty machine behaves identically. This closes the
    /// pessimism gap between the learning-aware ATPG and plain 3-valued
    /// validation (the paper's "pitfalls of necessary assignments"
    /// discussion). Vectors must outlive the simulator; the tied-gate list
    /// is read here, so call again after changing their contents. The
    /// tie-cone index is rebuilt only when the tied-gate list differs from
    /// the one it was built for (null values keep it for a later call).
    void set_good_ties(const std::vector<Val3>* values,
                       const std::vector<std::uint32_t>* cycles);

    /// set_good_ties() with `from`'s vectors, sharing its tie-cone index
    /// (read-only) instead of building another — for per-worker clones.
    void share_good_ties(const FaultSimulator& from);

    /// The tied gates (ascending) in the forward cone of gate `g` under the
    /// current ties: a fault at `g` never receives these ties in its lane.
    std::vector<netlist::GateId> ties_in_cone(netlist::GateId g) const;

    /// Simulate `seq` with up to kFaultsPerPass `faults` injected in
    /// parallel; returns one flag per fault (true = detected).
    std::vector<bool> run(const sim::InputSequence& seq, std::span<const Fault> faults);

    /// True when `seq` detects the single fault `f`.
    bool detects(const sim::InputSequence& seq, const Fault& f);

    /// Fault-simulate `seq` against every Undetected fault of `list`,
    /// marking newly detected ones Detected. Returns how many were dropped.
    /// With an executor attached, the passes run in parallel on per-worker
    /// clones into a shared atomic detected-bitmap, merged into `list` in
    /// fault-index order — statuses are bit-identical to the serial pass at
    /// any thread count (detection is a pure union).
    std::size_t drop_detected(const sim::InputSequence& seq, FaultList& list);

    const netlist::Topology& topology() const noexcept { return *topo_; }

    /// Approximate heap bytes of reusable scratch (force masks, tie lanes,
    /// pattern/state vectors, chunk buffers, the detected bitmap), including
    /// lazily built worker clones, plus the tie-cone index (counted once
    /// when clones share it). Excludes the shared Topology.
    std::size_t memory_bytes() const noexcept;

private:
    // 256 three-valued lanes in the two-plane encoding of logic::Pattern,
    // one word pair per 64 lanes. Force masks reuse it: `ones` holds the
    // stuck-at-1 lanes, `zeros` the stuck-at-0 lanes; tie masks likewise.
    static constexpr std::size_t kWords = (kFaultsPerPass + 1) / 64;
    struct Lanes {
        std::uint64_t ones[kWords];
        std::uint64_t zeros[kWords];
    };
    using LaneMask = std::array<std::uint64_t, kWords>;

    // Which tie groups lie in each gate's forward cone. Gates are grouped
    // into the strongly connected components of the fanout graph
    // (flip-flop edges included): gates of one component share their cone,
    // and ties of one component are reached together, so a component's row
    // is a bitset over the components holding ties (the "groups"). Built
    // from one Tarjan walk and one sweep of the condensation, sinks first.
    struct TieConeIndex {
        std::vector<netlist::GateId> tied;  // the tied gates it was built for
        std::vector<std::uint32_t> comp;    // gate -> component
        std::vector<std::uint32_t> group;   // tie (index into tied) -> group
        std::size_t num_groups = 0;
        std::size_t words = 0;              // row length in 64-bit words
        std::vector<std::uint64_t> rows;    // component -> groups in its cone

        TieConeIndex(const netlist::Topology& topo, std::vector<netlist::GateId> tied_gates);
        std::span<const std::uint64_t> row(netlist::GateId g) const noexcept {
            return {rows.data() + comp[g] * words, words};
        }
        std::size_t memory_bytes() const noexcept;
    };

    void clear_forces();
    /// Heap bytes of this simulator's own buffers and its clones', without
    /// the shared tie-cone index.
    std::size_t scratch_bytes() const noexcept;
    /// One pass over `faults` (at most kFaultsPerPass); returns the detected
    /// lanes (fault j is lane j + 1).
    LaneMask pass(const sim::InputSequence& seq, std::span<const Fault> faults);
    /// Gate g's output lanes from its fanins' (pin forces applied when
    /// kPinForces); ties and output forces are the caller's.
    template <bool kPinForces>
    Lanes eval_gate(netlist::GateId g) const noexcept;
    std::size_t drop_detected_parallel(const sim::InputSequence& seq, FaultList& list,
                                       std::span<const std::size_t> todo,
                                       std::size_t passes, unsigned workers);

    const netlist::Topology* topo_;
    // The schedule's evaluable gates (everything but inputs and sequential
    // elements), in evaluation order.
    std::vector<netlist::GateId> eval_order_;

    // Per-gate flags (bits below); flat force masks per gate (output forces)
    // and per fanin edge (pin forces, indexed topo fanin_offset + pin). Only
    // entries named in forced_gates_ / forced_edges_ are ever nonzero; the
    // tie bit is fixed by set_good_ties.
    static constexpr std::uint8_t kOutForced = 1;
    static constexpr std::uint8_t kPinForced = 2;
    static constexpr std::uint8_t kTied = 4;
    std::vector<std::uint8_t> force_flags_;
    std::vector<Lanes> out_force_;
    std::vector<Lanes> pin_force_;
    std::vector<netlist::GateId> forced_gates_;
    std::vector<std::uint32_t> forced_edges_;

    const std::vector<Val3>* tie_values_ = nullptr;
    const std::vector<std::uint32_t>* tie_cycles_ = nullptr;
    // The tied gates (built once per set_good_ties), per pass the lanes each
    // tie may be asserted in, and gate -> index into both (or -1).
    struct Tie {
        netlist::GateId gate;
        Val3 value;
        std::uint32_t cycle;
    };
    std::vector<Tie> ties_;
    std::vector<Lanes> tie_lanes_;
    std::vector<std::int32_t> tie_index_;
    // The index for the tied gates (shared with worker clones) and, per
    // pass, each group's lanes whose fault cone contains it.
    std::shared_ptr<const TieConeIndex> cone_index_;
    std::vector<LaneMask> group_lanes_;

    // Reused pass scratch: per-gate lanes and sequential state.
    std::vector<Lanes> pats_;
    std::vector<Lanes> state_;
    // Reused drop_detected() chunk buffers.
    std::vector<std::size_t> chunk_indices_;
    std::vector<Fault> chunk_;

    // Parallel drop_detected: the pool, per-worker clones (lazily built,
    // sharing *topo_), and the atomic detected-bitmap the passes merge into
    // (1 bit per todo position; grown on demand, reused across calls).
    exec::Pool* executor_ = nullptr;
    unsigned executor_max_workers_ = 0;
    const exec::CancelFlag* cancel_ = nullptr;
    exec::Budget* budget_ = nullptr;
    exec::FailurePoint* failpoint_ = nullptr;
    std::vector<std::unique_ptr<FaultSimulator>> workers_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> detected_bits_;
    std::size_t detected_words_ = 0;
};

}  // namespace seqlearn::fault
