#include "cnf/encoder.hpp"

#include <stdexcept>

namespace seqlearn::cnf {

using logic::GateOp;
using logic::Val3;

namespace {

// out <-> AND(ins); `big` is the caller's scratch for the long clause.
// With constant or duplicate literals the solver's top-level
// simplification cleans the clauses up.
void emit_and(Solver& s, Lit out, std::span<const Lit> ins, std::vector<Lit>& big) {
    big.clear();
    big.push_back(out);
    for (const Lit in : ins) {
        s.add_clause({~out, in});
        big.push_back(~in);
    }
    s.add_clause(big);
}

// out <-> OR(ins).
void emit_or(Solver& s, Lit out, std::span<const Lit> ins, std::vector<Lit>& big) {
    big.clear();
    big.push_back(~out);
    for (const Lit in : ins) {
        s.add_clause({out, ~in});
        big.push_back(in);
    }
    s.add_clause(big);
}

// a <-> b.
void emit_equal(Solver& s, Lit a, Lit b) {
    s.add_clause({~a, b});
    s.add_clause({a, ~b});
}

// out <-> a XOR b.
void emit_xor2(Solver& s, Lit out, Lit a, Lit b) {
    s.add_clause({~out, a, b});
    s.add_clause({~out, ~a, ~b});
    s.add_clause({out, ~a, b});
    s.add_clause({out, a, ~b});
}

}  // namespace

// ---------------------------------------------------------------------------
// BinaryUnroller

BinaryUnroller::BinaryUnroller(const netlist::Topology& topo, Solver& solver)
    : topo_(&topo), solver_(&solver) {}

void BinaryUnroller::encode(std::uint32_t frames, const Seeds& seeds,
                            const CaptureModel& capture) {
    if (frames == 0) throw std::invalid_argument("BinaryUnroller: frames must be >= 1");
    const netlist::Topology& topo = *topo_;
    Solver& s = *solver_;
    frames_ = frames;
    lits_.assign(static_cast<std::size_t>(frames) * topo.size(), Lit{});
    true_lit_ = pos(s.new_var());
    s.add_clause({true_lit_});

    // Per-seq-element index (into seq_elements()) for capture-group lookup.
    std::vector<std::uint32_t> seq_index(topo.size(), 0);
    const auto seq_elems = topo.seq_elements();
    for (std::size_t i = 0; i < seq_elems.size(); ++i)
        seq_index[seq_elems[i]] = static_cast<std::uint32_t>(i);

    // One free capture-enable per (group, frame boundary into frame t >= 1).
    std::vector<Lit> enables(static_cast<std::size_t>(frames) * capture.num_groups);
    for (std::uint32_t t = 1; t < frames; ++t) {
        for (std::uint32_t gi = 0; gi < capture.num_groups; ++gi)
            enables[static_cast<std::size_t>(t) * capture.num_groups + gi] =
                pos(s.new_var());
    }

    std::vector<Lit> ins, big;
    for (std::uint32_t t = 0; t < frames; ++t) {
        for (const GateId g : topo.schedule()) {
            const std::size_t idx = static_cast<std::size_t>(t) * topo.size() + g;
            if (topo.is_input(g)) {
                lits_[idx] = pos(s.new_var());
                continue;
            }
            if (topo.is_const(g)) {
                lits_[idx] = topo.op(g) == GateOp::Const1 ? true_lit_ : ~true_lit_;
                continue;
            }
            if (topo.is_seq(g)) {
                if (t == 0) {
                    lits_[idx] = pos(s.new_var());  // free initial state
                    continue;
                }
                const Lit d = lit(topo.fanins(g)[0], t - 1);
                const std::uint32_t group = capture.group_of.empty()
                                                ? CaptureModel::kExactCapture
                                                : capture.group_of[seq_index[g]];
                if (group == CaptureModel::kExactCapture) {
                    lits_[idx] = d;
                } else {
                    // May or may not tick this boundary: v = e ? d : prev.
                    const Lit v = pos(s.new_var());
                    const Lit e =
                        enables[static_cast<std::size_t>(t) * capture.num_groups + group];
                    const Lit prev = lit(g, t - 1);
                    s.add_clause({~e, ~d, v});
                    s.add_clause({~e, d, ~v});
                    s.add_clause({e, ~prev, v});
                    s.add_clause({e, prev, ~v});
                    lits_[idx] = v;
                }
                continue;
            }
            // Combinational operator.
            const auto fanins = topo.fanins(g);
            ins.clear();
            for (const GateId fi : fanins) ins.push_back(lit(fi, t));
            switch (topo.op(g)) {
                case GateOp::Buf: lits_[idx] = ins[0]; break;
                case GateOp::Not: lits_[idx] = ~ins[0]; break;
                case GateOp::And:
                case GateOp::Nand: {
                    const Lit v = pos(s.new_var());
                    emit_and(s, topo.op(g) == GateOp::And ? v : ~v, ins, big);
                    lits_[idx] = v;
                    break;
                }
                case GateOp::Or:
                case GateOp::Nor: {
                    const Lit v = pos(s.new_var());
                    emit_or(s, topo.op(g) == GateOp::Or ? v : ~v, ins, big);
                    lits_[idx] = v;
                    break;
                }
                case GateOp::Xor:
                case GateOp::Xnor: {
                    Lit acc = ins[0];
                    for (std::size_t k = 1; k < ins.size(); ++k) {
                        const Lit step = pos(s.new_var());
                        emit_xor2(s, step, acc, ins[k]);
                        acc = step;
                    }
                    lits_[idx] = topo.op(g) == GateOp::Xor ? acc : ~acc;
                    break;
                }
                case GateOp::Const0: lits_[idx] = ~true_lit_; break;
                case GateOp::Const1: lits_[idx] = true_lit_; break;
            }
        }

        // Seed learned facts for this frame (each proven for the real
        // machine, so asserting it only removes impossible executions).
        if (seeds.ties != nullptr) {
            for (GateId g = 0; g < topo.size(); ++g) {
                const Val3 v = seeds.ties->value(g);
                if (v == Val3::X || t < seeds.ties->cycle(g)) continue;
                s.add_clause({lit(g, t, v == Val3::One)});
            }
        }
        if (seeds.equivalences != nullptr && !seeds.equivalences->rep.empty()) {
            for (GateId g = 0; g < topo.size(); ++g) {
                const GateId rep = seeds.equivalences->rep[g];
                if (rep == netlist::kNoGate || rep == g) continue;
                emit_equal(s, lit(g, t),
                           lit(rep, t, !seeds.equivalences->inverted[g]));
            }
        }
    }
    if (seeds.db != nullptr) {
        for (const core::Relation& r : seeds.db->relations()) {
            for (std::uint32_t t = r.frame; t < frames; ++t) {
                s.add_clause({~lit(r.lhs.gate, t, r.lhs.value == Val3::One),
                              lit(r.rhs.gate, t, r.rhs.value == Val3::One)});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FaultMiter

FaultMiter::FaultMiter(const netlist::Topology& topo, std::uint32_t frames,
                       const core::TieSet* ties)
    : topo_(&topo), ties_(ties), frames_(frames) {
    if (frames == 0) throw std::invalid_argument("FaultMiter: frames must be >= 1");
    Solver& s = base_;
    true_lit_ = pos(s.new_var());
    s.add_clause({true_lit_});
    const Lit false_lit = ~true_lit_;
    const Rails one{true_lit_, false_lit}, zero{false_lit, true_lit_};
    const Rails x{false_lit, false_lit};

    const std::size_t n = topo.size();
    const auto inputs = topo.inputs();
    good_.assign(static_cast<std::size_t>(frames) * n, x);
    faulty_.assign(static_cast<std::size_t>(frames) * n, x);
    input_lits_.resize(static_cast<std::size_t>(frames) * inputs.size());

    for (std::uint32_t t = 0; t < frames; ++t) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const Lit b = pos(s.new_var());
            input_lits_[static_cast<std::size_t>(t) * inputs.size() + i] = b;
            good(inputs[i], t) = {b, ~b};
        }
        for (const GateId g : topo.schedule()) {
            if (topo.is_input(g)) continue;
            // Ties are applied like FaultSimulator's lane 0: the tied value
            // wins at frames >= its proof cycle.
            Rails& r = good(g, t);
            if (tied(g, t)) {
                r = ties->value(g) == Val3::One ? one : zero;
            } else if (topo.is_const(g)) {
                r = topo.op(g) == GateOp::Const1 ? one : zero;
            } else if (topo.is_seq(g)) {
                r = t == 0 ? x : good(topo.fanins(g)[0], t - 1);
            } else {
                ins_.clear();
                for (const GateId fi : topo.fanins(g)) ins_.push_back(good(fi, t));
                r = comb_rails(s, topo.op(g), ins_);
            }
        }
    }
}

// The folded AND (`is_or` false) or OR of `lits`; see the header comment.
Lit FaultMiter::fold(Solver& s, bool is_or, std::span<const Lit> lits) {
    const Lit decides = is_or ? true_lit_ : ~true_lit_;
    kept_.clear();
    for (const Lit l : lits) {
        if (l == decides) return decides;
        if (l != ~decides) kept_.push_back(l);
    }
    if (kept_.empty()) return ~decides;
    if (kept_.size() == 1) return kept_[0];
    const Lit v = pos(s.new_var());
    (is_or ? emit_or : emit_and)(s, v, kept_, clause_);
    return v;
}

// Dual-rail Kleene encoding of one combinational operator: monotone clauses
// on the is-one / is-zero rails, exactly logic::eval_op_indirect's algebra.
FaultMiter::Rails FaultMiter::comb_rails(Solver& s, GateOp op, std::span<const Rails> ins) {
    ones_.clear();
    zeros_.clear();
    for (const Rails& r : ins) {
        ones_.push_back(r.one);
        zeros_.push_back(r.zero);
    }
    switch (op) {
        case GateOp::Buf: return ins[0];
        case GateOp::Not: return {ins[0].zero, ins[0].one};
        case GateOp::And: return {fold(s, false, ones_), fold(s, true, zeros_)};
        case GateOp::Nand: return {fold(s, true, zeros_), fold(s, false, ones_)};
        case GateOp::Or: return {fold(s, true, ones_), fold(s, false, zeros_)};
        case GateOp::Nor: return {fold(s, false, zeros_), fold(s, true, ones_)};
        case GateOp::Xor:
        case GateOp::Xnor: {
            Rails acc = ins[0];
            for (std::size_t k = 1; k < ins.size(); ++k) {
                const Rails b = ins[k];
                const Lit p_and_n[] = {acc.one, b.zero};
                const Lit n_and_p[] = {acc.zero, b.one};
                const Lit p_and_p[] = {acc.one, b.one};
                const Lit n_and_n[] = {acc.zero, b.zero};
                const Lit one[] = {fold(s, false, p_and_n), fold(s, false, n_and_p)};
                const Lit zero[] = {fold(s, false, p_and_p), fold(s, false, n_and_n)};
                acc = {fold(s, true, one), fold(s, true, zero)};
            }
            if (op == GateOp::Xnor) return {acc.zero, acc.one};
            return acc;
        }
        case GateOp::Const0: return {~true_lit_, true_lit_};
        case GateOp::Const1: return {true_lit_, ~true_lit_};
    }
    return {~true_lit_, ~true_lit_};
}

bool FaultMiter::encode(const fault::Fault& f) {
    const netlist::Topology& topo = *topo_;

    // The faulty machine differs from the good one only inside the cone.
    cone_.walk(topo, f.gate);
    bool observable = false;
    for (const GateId o : topo.outputs()) observable |= cone_.contains(o);
    if (!observable) return false;

    solver_ = base_;
    Solver& s = solver_;
    const Lit false_lit = ~true_lit_;
    const Rails x{false_lit, false_lit};
    const Rails stuck = f.stuck == Val3::One ? Rails{true_lit_, false_lit}
                                             : Rails{false_lit, true_lit_};
    const bool out_fault = f.pin == fault::kOutputPin;

    // A term `a AND b` of the detection clause; a false rail drops it.
    detect_.clear();
    auto detect_term = [&](Lit a, Lit b) {
        if (a == false_lit || b == false_lit) return;
        const Lit d = pos(s.new_var());
        s.add_clause({~d, a});
        s.add_clause({~d, b});
        detect_.push_back(d);
    };

    for (std::uint32_t t = 0; t < frames_; ++t) {
        for (const GateId g : topo.schedule()) {
            // Faulty machine: copies only inside the cone; outside, the two
            // machines agree line for line.
            if (!cone_.contains(g)) continue;
            Rails& r = faulty(g, t);
            if (g == f.gate && out_fault) {
                r = stuck;
            } else if (topo.is_input(g) || topo.is_const(g)) {
                r = good(g, t);
            } else if (topo.is_seq(g)) {
                if (t == 0) r = x;
                else if (g == f.gate) r = stuck;  // pin fault on the data input
                else r = cone_rails(topo.fanins(g)[0], t - 1);
            } else {
                ins_.clear();
                bool differs = false;
                const auto fanins = topo.fanins(g);
                for (std::size_t k = 0; k < fanins.size(); ++k) {
                    const GateId fi = fanins[k];
                    const bool pin = g == f.gate && static_cast<std::int32_t>(k) == f.pin;
                    const Rails in = pin ? stuck : cone_rails(fi, t);
                    differs |= in != good(fi, t);
                    ins_.push_back(in);
                }
                // Same inputs, same rails — unless a tie overrides the good
                // gate: inside the cone the faulty machine ignores ties.
                r = differs || tied(g, t) ? comb_rails(s, topo.op(g), ins_) : good(g, t);
            }
        }

        // Detection terms: a cone PO binary in both machines with differing
        // values in some frame.
        for (const GateId o : topo.outputs()) {
            if (!cone_.contains(o)) continue;
            const Rails g_r = good(o, t);
            const Rails f_r = faulty(o, t);
            if (f_r == g_r) continue;
            detect_term(g_r.one, f_r.zero);  // good 1, faulty 0
            detect_term(g_r.zero, f_r.one);  // good 0, faulty 1
        }
    }
    s.add_clause(detect_);
    return true;
}

sim::InputSequence FaultMiter::witness() const {
    const std::size_t num_inputs = topo_->inputs().size();
    sim::InputSequence seq(frames_, sim::InputFrame(num_inputs, Val3::X));
    for (std::uint32_t t = 0; t < frames_; ++t) {
        for (std::size_t i = 0; i < num_inputs; ++i) {
            const Lit b = input_lits_[static_cast<std::size_t>(t) * num_inputs + i];
            const bool v = solver_.model_value(b.var()) != b.neg();
            seq[t][i] = v ? Val3::One : Val3::Zero;
        }
    }
    return seq;
}

}  // namespace seqlearn::cnf
