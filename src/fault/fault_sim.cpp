#include "fault/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>

namespace seqlearn::fault {

using logic::GateOp;
using netlist::GateId;
using netlist::Topology;

namespace {

constexpr std::uint64_t kAllOnes = ~0ULL;

template <typename L>
constexpr L broadcast(std::uint64_t ones, std::uint64_t zeros) noexcept {
    L l{};
    for (std::size_t w = 0; w < std::size(l.ones); ++w) {
        l.ones[w] = ones;
        l.zeros[w] = zeros;
    }
    return l;
}

template <typename L>
L broadcast(Val3 v) noexcept {
    switch (v) {
        case Val3::Zero: return broadcast<L>(0, kAllOnes);
        case Val3::One: return broadcast<L>(kAllOnes, 0);
        case Val3::X: break;
    }
    return broadcast<L>(0, 0);
}

/// Force the lanes set in `f` (ones = stuck-at-1, zeros = stuck-at-0).
template <typename L>
void force(L& v, const L& f) noexcept {
    for (std::size_t w = 0; w < std::size(v.ones); ++w) {
        const std::uint64_t both = f.ones[w] | f.zeros[w];
        v.ones[w] = (v.ones[w] & ~both) | f.ones[w];
        v.zeros[w] = (v.zeros[w] & ~both) | f.zeros[w];
    }
}

template <typename L>
bool is_zero(const L& l) noexcept {
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < std::size(l.ones); ++w) any |= l.ones[w] | l.zeros[w];
    return any == 0;
}

/// Calls fn(j) for every fault j whose lane (j + 1) is set in `lanes`, in
/// increasing j.
template <typename Mask, typename Fn>
void for_each_fault(const Mask& lanes, Fn&& fn) {
    for (std::size_t w = 0; w < lanes.size(); ++w) {
        for (std::uint64_t bits = lanes[w]; bits != 0; bits &= bits - 1)
            fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)) - 1);
    }
}

}  // namespace

FaultSimulator::FaultSimulator(const Topology& topo)
    : topo_(&topo),
      force_flags_(topo.size(), 0),
      out_force_(topo.size(), Lanes{}),
      pin_force_(topo.num_fanin_edges(), Lanes{}),
      pats_(topo.size(), Lanes{}) {
    for (const GateId g : topo.schedule()) {
        if (!topo.is_input(g) && !topo.is_seq(g)) eval_order_.push_back(g);
    }
}

FaultSimulator::TieConeIndex::TieConeIndex(const Topology& topo,
                                           std::vector<GateId> tied_gates)
    : tied(std::move(tied_gates)) {
    const std::size_t n = topo.size();
    // Iterative Tarjan over the fanout graph. A component gets its number
    // when it completes, after every component it reaches: numbering is a
    // reverse topological order of the condensation.
    constexpr std::uint32_t kUnvisited = ~0U;
    std::vector<std::uint32_t> order(n, kUnvisited), low(n, 0);
    comp.assign(n, kUnvisited);
    std::vector<GateId> open;  // visited gates without a component yet
    // Gates by component: component c's gates are members[end[c - 1], end[c]).
    std::vector<GateId> members;
    std::vector<std::uint32_t> end;
    members.reserve(n);
    struct Frame {
        GateId g;
        std::uint32_t next;  // next fanout to explore
    };
    std::vector<Frame> calls;
    std::uint32_t visited = 0, num_comps = 0;
    auto enter = [&](GateId g) {
        order[g] = low[g] = visited++;
        open.push_back(g);
        calls.push_back({g, 0});
    };
    for (GateId root = 0; root < n; ++root) {
        if (order[root] != kUnvisited) continue;
        enter(root);
        while (!calls.empty()) {
            const GateId g = calls.back().g;
            const auto outs = topo.fanouts(g);
            if (calls.back().next < outs.size()) {
                const GateId h = outs[calls.back().next++];
                if (order[h] == kUnvisited) enter(h);
                else if (comp[h] == kUnvisited) low[g] = std::min(low[g], order[h]);
                continue;
            }
            calls.pop_back();
            if (!calls.empty()) low[calls.back().g] = std::min(low[calls.back().g], low[g]);
            if (low[g] != order[g]) continue;
            GateId m;
            do {
                m = open.back();
                open.pop_back();
                comp[m] = num_comps;
                members.push_back(m);
            } while (m != g);
            end.push_back(static_cast<std::uint32_t>(members.size()));
            ++num_comps;
        }
    }

    // Groups: the components holding ties, numbered by first tie.
    std::vector<std::uint32_t> group_of(num_comps, kUnvisited);
    group.reserve(tied.size());
    for (const GateId g : tied) {
        std::uint32_t& id = group_of[comp[g]];
        if (id == kUnvisited) id = static_cast<std::uint32_t>(num_groups++);
        group.push_back(id);
    }

    // Rows, sinks first: a component's own group plus its successors' rows
    // (lower-numbered, so already final).
    words = (num_groups + 63) / 64;
    rows.assign(num_comps * words, 0);
    for (std::uint32_t c = 0; c < num_comps; ++c) {
        std::uint64_t* row = rows.data() + c * words;
        if (group_of[c] != kUnvisited) row[group_of[c] / 64] |= 1ULL << (group_of[c] % 64);
        for (std::uint32_t k = c == 0 ? 0 : end[c - 1]; k < end[c]; ++k) {
            for (const GateId h : topo.fanouts(members[k])) {
                if (comp[h] == c) continue;
                const std::uint64_t* succ = rows.data() + comp[h] * words;
                for (std::size_t w = 0; w < words; ++w) row[w] |= succ[w];
            }
        }
    }
}

std::size_t FaultSimulator::TieConeIndex::memory_bytes() const noexcept {
    return sizeof(TieConeIndex) + tied.capacity() * sizeof(GateId) +
           comp.capacity() * sizeof(std::uint32_t) + group.capacity() * sizeof(std::uint32_t) +
           rows.capacity() * sizeof(std::uint64_t);
}

void FaultSimulator::set_good_ties(const std::vector<Val3>* values,
                                   const std::vector<std::uint32_t>* cycles) {
    for (const Tie& t : ties_) {
        force_flags_[t.gate] &= static_cast<std::uint8_t>(~kTied);
        tie_index_[t.gate] = -1;
    }
    ties_.clear();
    tie_values_ = values;
    tie_cycles_ = cycles;
    if (values != nullptr) {
        const std::size_t n = topo_->size();
        if (tie_index_.size() != n) tie_index_.assign(n, -1);
        for (GateId g = 0; g < n; ++g) {
            const Val3 v = (*values)[g];
            if (v == Val3::X) continue;
            tie_index_[g] = static_cast<std::int32_t>(ties_.size());
            ties_.push_back({g, v, cycles ? (*cycles)[g] : 0});
            force_flags_[g] |= kTied;
        }
    }
    tie_lanes_.resize(ties_.size());
    if (!ties_.empty()) {
        const bool current =
            cone_index_ != nullptr &&
            std::equal(ties_.begin(), ties_.end(), cone_index_->tied.begin(),
                       cone_index_->tied.end(),
                       [](const Tie& t, GateId g) { return t.gate == g; });
        if (!current) {
            std::vector<GateId> tied;
            tied.reserve(ties_.size());
            for (const Tie& t : ties_) tied.push_back(t.gate);
            cone_index_ = std::make_shared<const TieConeIndex>(*topo_, std::move(tied));
        }
        group_lanes_.resize(cone_index_->num_groups);
    }
    // Worker clones must simulate the same good machine.
    for (const std::unique_ptr<FaultSimulator>& w : workers_) w->share_good_ties(*this);
}

void FaultSimulator::share_good_ties(const FaultSimulator& from) {
    cone_index_ = from.cone_index_;
    set_good_ties(from.tie_values_, from.tie_cycles_);
}

std::vector<GateId> FaultSimulator::ties_in_cone(GateId g) const {
    std::vector<GateId> out;
    if (ties_.empty()) return out;
    const auto row = cone_index_->row(g);
    for (std::size_t t = 0; t < ties_.size(); ++t) {
        const std::uint32_t k = cone_index_->group[t];
        if ((row[k / 64] >> (k % 64)) & 1) out.push_back(ties_[t].gate);
    }
    return out;
}

void FaultSimulator::set_executor(exec::Pool* pool, unsigned max_workers) {
    executor_ = pool;
    executor_max_workers_ = max_workers;
    if (pool == nullptr) workers_.clear();
}

void FaultSimulator::clear_forces() {
    for (const GateId g : forced_gates_) {
        force_flags_[g] &= kTied;
        out_force_[g] = Lanes{};
    }
    forced_gates_.clear();
    for (const std::uint32_t e : forced_edges_) pin_force_[e] = Lanes{};
    forced_edges_.clear();
}

template <bool kPinForces>
FaultSimulator::Lanes FaultSimulator::eval_gate(GateId g) const noexcept {
    const Topology& topo = *topo_;
    const auto fi = topo.fanins(g);
    const std::size_t n = fi.size();
    const Lanes* pin_force = kPinForces ? pin_force_.data() + topo.fanin_offset(g) : nullptr;
    // Operand i as gate g sees it, pin faults applied.
    auto operand = [&](std::size_t i) -> Lanes {
        Lanes v = pats_[fi[i]];
        if constexpr (kPinForces) force(v, pin_force[i]);
        return v;
    };
    Lanes acc;
    bool invert = false;
    switch (topo.op(g)) {
        case GateOp::Const0: return broadcast<Lanes>(0, kAllOnes);
        case GateOp::Const1: return broadcast<Lanes>(kAllOnes, 0);
        case GateOp::Not: invert = true; [[fallthrough]];
        case GateOp::Buf:
            acc = n == 0 ? Lanes{} : operand(0);
            break;
        case GateOp::Nand: invert = true; [[fallthrough]];
        case GateOp::And:
            acc = broadcast<Lanes>(kAllOnes, 0);
            for (std::size_t i = 0; i < n; ++i) {
                const Lanes v = operand(i);
                for (std::size_t w = 0; w < kWords; ++w) {
                    acc.ones[w] &= v.ones[w];
                    acc.zeros[w] |= v.zeros[w];
                }
            }
            break;
        case GateOp::Nor: invert = true; [[fallthrough]];
        case GateOp::Or:
            acc = broadcast<Lanes>(0, kAllOnes);
            for (std::size_t i = 0; i < n; ++i) {
                const Lanes v = operand(i);
                for (std::size_t w = 0; w < kWords; ++w) {
                    acc.ones[w] |= v.ones[w];
                    acc.zeros[w] &= v.zeros[w];
                }
            }
            break;
        case GateOp::Xnor: invert = true; [[fallthrough]];
        case GateOp::Xor:
            acc = broadcast<Lanes>(0, kAllOnes);
            for (std::size_t i = 0; i < n; ++i) {
                const Lanes v = operand(i);
                for (std::size_t w = 0; w < kWords; ++w) {
                    const std::uint64_t a1 = acc.ones[w], a0 = acc.zeros[w];
                    acc.ones[w] = (a1 & v.zeros[w]) | (a0 & v.ones[w]);
                    acc.zeros[w] = (a1 & v.ones[w]) | (a0 & v.zeros[w]);
                }
            }
            break;
        default: return Lanes{};
    }
    if (invert) std::swap(acc.ones, acc.zeros);
    return acc;
}

FaultSimulator::LaneMask FaultSimulator::pass(const sim::InputSequence& seq,
                                              std::span<const Fault> faults) {
    if (faults.size() > kFaultsPerPass)
        throw std::invalid_argument("FaultSimulator::run: too many faults for one pass");
    const Topology& topo = *topo_;
    const auto inputs = topo.inputs();
    const auto seq_elems = topo.seq_elements();

    clear_forces();
    for (std::size_t j = 0; j < faults.size(); ++j) {
        const Fault& f = faults[j];
        const std::size_t word = (j + 1) / 64;
        const std::uint64_t bit = 1ULL << ((j + 1) % 64);
        if ((force_flags_[f.gate] & (kOutForced | kPinForced)) == 0)
            forced_gates_.push_back(f.gate);
        Lanes* mask;
        if (f.pin == kOutputPin) {
            force_flags_[f.gate] |= kOutForced;
            mask = &out_force_[f.gate];
        } else {
            force_flags_[f.gate] |= kPinForced;
            const std::uint32_t edge =
                topo.fanin_offset(f.gate) + static_cast<std::uint32_t>(f.pin);
            if (is_zero(pin_force_[edge])) forced_edges_.push_back(edge);
            mask = &pin_force_[edge];
        }
        (f.stuck == Val3::One ? mask->ones : mask->zeros)[word] |= bit;
    }

    // Lanes in use: the good machine plus one per fault.
    const std::size_t n_lanes = faults.size() + 1;
    LaneMask used{};
    for (std::size_t w = 0; w < kWords; ++w) {
        const std::size_t lo = w * 64;
        used[w] = n_lanes >= lo + 64 ? kAllOnes
                  : n_lanes > lo     ? (1ULL << (n_lanes - lo)) - 1
                                     : 0;
    }

    // Tie lanes: lane 0 always; faulty lanes only where the tied gate is
    // outside that fault's cone (there the machines agree line-for-line).
    // Faults on one component share a row, so consecutive ones are merged.
    if (!ties_.empty()) {
        const TieConeIndex& index = *cone_index_;
        std::fill(group_lanes_.begin(), group_lanes_.end(), LaneMask{});
        for (std::size_t j = 0; j < faults.size();) {
            const GateId site = faults[j].gate;
            LaneMask lanes{};
            for (; j < faults.size() && index.comp[faults[j].gate] == index.comp[site]; ++j)
                lanes[(j + 1) / 64] |= 1ULL << ((j + 1) % 64);
            const auto row = index.row(site);
            for (std::size_t w = 0; w < row.size(); ++w) {
                for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
                    LaneMask& in_cone =
                        group_lanes_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
                    for (std::size_t k = 0; k < kWords; ++k) in_cone[k] |= lanes[k];
                }
            }
        }
        for (std::size_t t = 0; t < ties_.size(); ++t) {
            const LaneMask& in_cone = group_lanes_[index.group[t]];
            Lanes& tl = tie_lanes_[t];
            for (std::size_t w = 0; w < kWords; ++w) {
                const std::uint64_t lanes = (~in_cone[w] | (w == 0 ? 1ULL : 0)) & used[w];
                tl.ones[w] = ties_[t].value == Val3::One ? lanes : 0;
                tl.zeros[w] = ties_[t].value == Val3::Zero ? lanes : 0;
            }
        }
    }
    std::size_t frame_index = 0;
    auto apply_tie = [&](GateId g, Lanes& p) {
        const auto t = static_cast<std::size_t>(tie_index_[g]);
        if (frame_index < ties_[t].cycle) return;
        for (std::size_t w = 0; w < kWords; ++w) {
            p.ones[w] |= tie_lanes_[t].ones[w];
            p.zeros[w] |= tie_lanes_[t].zeros[w];
        }
    };

    state_.assign(seq_elems.size(), Lanes{});
    LaneMask detected{};

    for (const sim::InputFrame& frame : seq) {
        if (frame.size() != inputs.size())
            throw std::invalid_argument("FaultSimulator::run: bad input frame size");
        // Seed sources.
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            Lanes p = broadcast<Lanes>(frame[i]);
            if (force_flags_[inputs[i]] & kOutForced) force(p, out_force_[inputs[i]]);
            pats_[inputs[i]] = p;
        }
        for (std::size_t i = 0; i < seq_elems.size(); ++i) {
            const GateId ff = seq_elems[i];
            Lanes p = state_[i];
            if (force_flags_[ff] & kTied) apply_tie(ff, p);
            if (force_flags_[ff] & kOutForced) force(p, out_force_[ff]);
            pats_[ff] = p;
        }
        // Levelized evaluation; the flag byte keeps plain gates on the
        // unforced kernel.
        for (const GateId g : eval_order_) {
            const std::uint8_t flags = force_flags_[g];
            if (flags == 0) {
                pats_[g] = eval_gate<false>(g);
                continue;
            }
            Lanes p = flags & kPinForced ? eval_gate<true>(g) : eval_gate<false>(g);
            if (flags & kTied) apply_tie(g, p);
            if (flags & kOutForced) force(p, out_force_[g]);
            pats_[g] = p;
        }
        // Detection: a faulty lane differs from the good lane at a PO while
        // both are binary.
        for (const GateId o : topo.outputs()) {
            const Lanes& p = pats_[o];
            const std::uint64_t* diff;
            if (p.ones[0] & 1)
                diff = p.zeros;
            else if (p.zeros[0] & 1)
                diff = p.ones;
            else
                continue;
            for (std::size_t w = 0; w < kWords; ++w) detected[w] |= diff[w];
        }
        // Capture next state (pin faults on sequential data pins included).
        for (std::size_t i = 0; i < seq_elems.size(); ++i) {
            const GateId ff = seq_elems[i];
            state_[i] = pats_[topo.fanins(ff)[0]];
            if (force_flags_[ff] & kPinForced)
                force(state_[i], pin_force_[topo.fanin_offset(ff)]);
        }
        ++frame_index;
    }
    for (std::size_t w = 0; w < kWords; ++w) detected[w] &= used[w];
    detected[0] &= ~1ULL;
    return detected;
}

std::vector<bool> FaultSimulator::run(const sim::InputSequence& seq,
                                      std::span<const Fault> faults) {
    std::vector<bool> detected(faults.size(), false);
    for_each_fault(pass(seq, faults), [&](std::size_t j) { detected[j] = true; });
    return detected;
}

bool FaultSimulator::detects(const sim::InputSequence& seq, const Fault& f) {
    return run(seq, {&f, 1})[0];
}

std::size_t FaultSimulator::drop_detected(const sim::InputSequence& seq, FaultList& list) {
    std::size_t dropped = 0;
    const std::vector<std::size_t> todo = list.undetected();
    const std::size_t passes = (todo.size() + kFaultsPerPass - 1) / kFaultsPerPass;
    if (executor_ != nullptr && passes > 1) {
        unsigned workers = executor_->size();
        if (executor_max_workers_ != 0) workers = std::min(workers, executor_max_workers_);
        if (workers > 1) return drop_detected_parallel(seq, list, todo, passes, workers);
    }
    for (std::size_t pos = 0; pos < todo.size(); pos += kFaultsPerPass) {
        // Pass-boundary governance: stopping between passes keeps the union
        // of already-dropped faults valid (remaining ones just stay
        // undetected, which is sound).
        if ((cancel_ != nullptr && cancel_->requested()) ||
            (budget_ != nullptr && budget_->check() != exec::RunStatus::Completed))
            break;
        if (failpoint_ != nullptr) failpoint_->poll(exec::FailSite::WorkItem);
        chunk_indices_.clear();
        chunk_.clear();
        for (std::size_t k = pos; k < std::min(pos + kFaultsPerPass, todo.size()); ++k) {
            chunk_indices_.push_back(todo[k]);
            chunk_.push_back(list.fault(todo[k]));
        }
        for_each_fault(pass(seq, chunk_), [&](std::size_t k) {
            list.set_status(chunk_indices_[k], FaultStatus::Detected);
            ++dropped;
        });
    }
    return dropped;
}

std::size_t FaultSimulator::drop_detected_parallel(const sim::InputSequence& seq,
                                                   FaultList& list,
                                                   std::span<const std::size_t> todo,
                                                   std::size_t passes, unsigned workers) {
    if ((cancel_ != nullptr && cancel_->requested()) ||
        (budget_ != nullptr && budget_->check() != exec::RunStatus::Completed))
        return 0;
    // Per-worker clones over the shared snapshot (worker 0 is this
    // simulator); built once and reused across calls.
    while (workers_.size() + 1 < workers) {
        auto clone = std::make_unique<FaultSimulator>(*topo_);
        clone->share_good_ties(*this);
        workers_.push_back(std::move(clone));
    }

    const std::size_t words = (todo.size() + 63) / 64;
    if (detected_words_ < words) {
        detected_bits_ = std::make_unique<std::atomic<std::uint64_t>[]>(words);
        detected_words_ = words;
    }
    for (std::size_t w = 0; w < words; ++w)
        detected_bits_[w].store(0, std::memory_order_relaxed);

    auto task = [&](unsigned worker, std::size_t pass) {
        // Governance lives on the primary simulator; workers read its sticky
        // flags only (no clock) and skip their pass once a stop is pending.
        if ((cancel_ != nullptr && cancel_->requested()) ||
            (budget_ != nullptr && budget_->deadline_exceeded()))
            return;
        if (failpoint_ != nullptr) failpoint_->poll(exec::FailSite::WorkItem);
        FaultSimulator& fs = worker == 0 ? *this : *workers_[worker - 1];
        const std::size_t begin = pass * kFaultsPerPass;
        const std::size_t end = std::min(begin + kFaultsPerPass, todo.size());
        fs.chunk_.clear();
        for (std::size_t k = begin; k < end; ++k) fs.chunk_.push_back(list.fault(todo[k]));
        for_each_fault(fs.pass(seq, fs.chunk_), [&](std::size_t j) {
            const std::size_t k = begin + j;
            detected_bits_[k / 64].fetch_or(1ULL << (k % 64), std::memory_order_relaxed);
        });
    };
    executor_->run(passes, exec::TaskView(task), workers);

    // Merge in fault-index order (todo is index-ordered): identical statuses
    // to the serial pass — detection is a union, credit order is canonical.
    std::size_t dropped = 0;
    for (std::size_t k = 0; k < todo.size(); ++k) {
        if (detected_bits_[k / 64].load(std::memory_order_relaxed) & (1ULL << (k % 64))) {
            list.set_status(todo[k], FaultStatus::Detected);
            ++dropped;
        }
    }
    return dropped;
}

std::size_t FaultSimulator::scratch_bytes() const noexcept {
    const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    std::size_t bytes = vec(eval_order_) + vec(force_flags_) + vec(out_force_) +
                        vec(pin_force_) + vec(forced_gates_) + vec(forced_edges_) +
                        vec(ties_) + vec(tie_lanes_) + vec(tie_index_) + vec(group_lanes_) +
                        vec(pats_) + vec(state_) + vec(chunk_indices_) + vec(chunk_) +
                        detected_words_ * sizeof(std::uint64_t);
    for (const auto& w : workers_) {
        if (w) bytes += sizeof(FaultSimulator) + w->scratch_bytes();
    }
    return bytes;
}

std::size_t FaultSimulator::memory_bytes() const noexcept {
    return scratch_bytes() + (cone_index_ ? cone_index_->memory_bytes() : 0);
}

}  // namespace seqlearn::fault
