#pragma once
// Embedded CDCL SAT solver — the engine under the timeframe-expansion
// backend. No external dependency: a compact conflict-driven solver with
// two-watched-literal propagation, VSIDS decision ordering, first-UIP
// clause learning, phase saving, Luby restarts, and incremental
// solve-under-assumptions.
//
// Determinism contract: a given clause set + assumption list solves
// identically on every run and every machine. All tie-breaking is by
// variable index (the VSIDS heap comparator is (activity, then lower index
// wins)), clause storage is insertion-ordered, and nothing reads a clock
// except the governance poll.
//
// Governance: the solver polls `exec::poll_point(cancel, budget)` when a
// solve starts and then every kGovernancePollInterval propagations, so a
// budget that is already spent stops even a short solve. A tripped budget
// (or cancel) surfaces as SolveStatus::Stopped with the matching
// exec::RunStatus — never a hang, never a throw — and the solver state stays
// intact: learned clauses are kept and a later solve() picks up where the
// search left off.

#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/outcome.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace seqlearn::cnf {

namespace detail {
/// Term `i` (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,1,1,2,...
std::uint64_t luby(std::uint64_t i) noexcept;
}  // namespace detail

/// Variable index, 0-based. Create with Solver::new_var().
using Var = std::uint32_t;

/// Literal: variable + sign packed as (var << 1) | negated.
struct Lit {
    std::uint32_t x = 0xFFFFFFFFu;

    constexpr Lit() = default;
    constexpr Lit(Var v, bool negated) : x((v << 1) | (negated ? 1u : 0u)) {}

    constexpr Var var() const noexcept { return x >> 1; }
    constexpr bool neg() const noexcept { return (x & 1u) != 0; }
    constexpr Lit operator~() const noexcept {
        Lit l;
        l.x = x ^ 1u;
        return l;
    }
    constexpr bool operator==(const Lit& o) const noexcept { return x == o.x; }
    constexpr bool operator!=(const Lit& o) const noexcept { return x != o.x; }
};

/// Positive / negative literal helpers.
constexpr Lit pos(Var v) noexcept { return Lit(v, false); }
constexpr Lit neg(Var v) noexcept { return Lit(v, true); }

enum class SolveStatus : std::uint8_t {
    Sat,      ///< satisfying model found (read via model_value)
    Unsat,    ///< unsatisfiable under the given assumptions
    Stopped,  ///< governance stop (see SolveResult::run)
};

struct SolveResult {
    SolveStatus status = SolveStatus::Stopped;
    /// Completed for Sat/Unsat; DeadlineExceeded / Cancelled / LimitReached
    /// for Stopped — the same taxonomy every governed stage reports.
    exec::RunOutcome run;
};

class Solver {
public:
    Solver() = default;

    /// Attach governance hooks polled at propagation-count boundaries (both
    /// may be null; the owner clears them when its run ends).
    void set_governance(const exec::CancelFlag* cancel, exec::Budget* budget) noexcept {
        cancel_ = cancel;
        budget_ = budget;
    }

    /// Allocate a fresh variable and return its index.
    Var new_var();
    std::size_t num_vars() const noexcept { return assign_.size(); }

    /// Add a clause (top-level). Returns false when the clause makes the
    /// formula trivially unsatisfiable (empty after simplification); the
    /// solver is then permanently Unsat.
    bool add_clause(std::span<const Lit> lits);
    bool add_clause(std::initializer_list<Lit> lits) {
        return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
    }

    /// Solve under `assumptions` (may be empty). Incremental: learned
    /// clauses persist across calls, assumptions do not.
    SolveResult solve(std::span<const Lit> assumptions = {});

    /// Model access after SolveStatus::Sat. Every variable is assigned.
    bool model_value(Var v) const noexcept { return model_[v] == 0; }

    /// Failed-literal probe: assert `assumptions`, run unit propagation
    /// only. Returns false when propagation derives a conflict (the
    /// assumption set is inconsistent with the clause database); otherwise
    /// fills `implied` with every literal forced beyond the assumptions
    /// themselves (in trail order — deterministic) and returns true. Either
    /// way the solver is restored to the root level. Sound: every implied
    /// literal is a logical consequence of clauses + assumptions.
    bool probe(std::span<const Lit> assumptions, std::vector<Lit>& implied);

    // Search statistics (cumulative across solve() calls).
    std::uint64_t conflicts() const noexcept { return conflicts_; }
    std::uint64_t propagations() const noexcept { return propagations_; }
    std::uint64_t decisions() const noexcept { return decisions_; }
    std::size_t num_clauses() const noexcept { return num_clauses_; }

private:
    static constexpr std::uint32_t kRefUndef = 0xFFFFFFFFu;
    static constexpr std::uint64_t kGovernancePollInterval = 4096;

    // lbool encoding: 0 = true, 1 = false, 2 = unassigned.
    static constexpr std::uint8_t kTrue = 0, kFalse = 1, kUndef = 2;

    struct Watch {
        std::uint32_t cref;
        Lit blocker;
    };

    // One watch list per literal (indexed by Lit.x). Copy-assignment reuses
    // the destination's lists, and lists beyond the source's literals stay
    // allocated but empty, so restoring a scratch solver from a base formula
    // (cnf::FaultMiter, once per fault) allocates nothing in steady state.
    class WatchLists {
    public:
        WatchLists() = default;
        WatchLists(const WatchLists& o) : lists_(o.lists_.begin(), o.lists_.begin() + o.size_),
                                          size_(o.size_) {}
        WatchLists(WatchLists&&) noexcept = default;
        WatchLists& operator=(WatchLists&&) noexcept = default;
        WatchLists& operator=(const WatchLists& o) {
            if (lists_.size() < o.size_) lists_.resize(o.size_);
            for (std::size_t i = 0; i < o.size_; ++i) lists_[i] = o.lists_[i];
            for (std::size_t i = o.size_; i < size_; ++i) lists_[i].clear();
            size_ = o.size_;
            return *this;
        }
        /// Append the (empty) lists of one variable's two literals.
        void add_var() {
            size_ += 2;
            if (lists_.size() < size_) lists_.resize(size_);
        }
        std::vector<Watch>& operator[](std::size_t x) noexcept { return lists_[x]; }

    private:
        std::vector<std::vector<Watch>> lists_;
        std::size_t size_ = 0;  // lists in use; the rest are empty spares
    };

    std::uint8_t value(Lit l) const noexcept {
        const std::uint8_t a = assign_[l.var()];
        return a == kUndef ? kUndef : static_cast<std::uint8_t>(a ^ (l.neg() ? 1u : 0u));
    }

    std::uint32_t alloc_clause(std::span<const Lit> lits);
    std::span<Lit> clause(std::uint32_t cref) noexcept;
    std::span<const Lit> clause(std::uint32_t cref) const noexcept;

    void enqueue(Lit l, std::uint32_t reason);
    std::uint32_t propagate();
    void analyze(std::uint32_t confl, std::vector<Lit>& learnt, std::uint32_t& bt_level);
    void cancel_until(std::uint32_t level);
    void new_decision_level() { trail_lim_.push_back(trail_.size()); }
    std::uint32_t decision_level() const noexcept {
        return static_cast<std::uint32_t>(trail_lim_.size());
    }
    Lit pick_branch();
    void bump_var(Var v);
    void decay_activities() { var_inc_ /= 0.95; }
    void heap_insert(Var v);
    Var heap_pop();
    void heap_sift_up(std::size_t i);
    bool heap_less(Var a, Var b) const noexcept {
        return activity_[a] > activity_[b] || (activity_[a] == activity_[b] && a < b);
    }
    exec::RunStatus poll_governance();

    // Clause arena: [size][lit...]; cref = offset of the size word.
    std::vector<std::uint32_t> arena_;
    std::size_t num_clauses_ = 0;
    WatchLists watches_;

    std::vector<std::uint8_t> assign_;   // per var: kTrue/kFalse/kUndef
    std::vector<std::uint8_t> model_;    // last Sat model, per var
    std::vector<std::uint8_t> phase_;    // saved phase, per var
    std::vector<std::uint32_t> level_;   // per var
    std::vector<std::uint32_t> reason_;  // per var, cref or kRefUndef
    std::vector<Lit> trail_;
    std::vector<std::size_t> trail_lim_;
    std::size_t qhead_ = 0;

    // VSIDS: binary max-heap over (activity, index) with position map.
    std::vector<double> activity_;
    std::vector<Var> heap_;
    std::vector<std::uint32_t> heap_pos_;  // per var, index in heap_ or ~0
    double var_inc_ = 1.0;

    std::vector<std::uint8_t> seen_;  // analyze scratch
    std::vector<Lit> learnt_scratch_;

    bool ok_ = true;  // false after a top-level conflict: permanently Unsat
    std::uint64_t conflicts_ = 0;
    std::uint64_t propagations_ = 0;
    std::uint64_t decisions_ = 0;
    std::uint64_t poll_at_ = kGovernancePollInterval;

    const exec::CancelFlag* cancel_ = nullptr;
    exec::Budget* budget_ = nullptr;
};

}  // namespace seqlearn::cnf
