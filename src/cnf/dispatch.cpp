#include "cnf/dispatch.hpp"

#include "cnf/encoder.hpp"

namespace seqlearn::cnf {

CnfVerdict prove_fault(const netlist::Topology& topo, const fault::Fault& f,
                       std::uint32_t frames, const core::TieSet* ties,
                       const exec::CancelFlag* cancel, exec::Budget* budget) {
    CnfVerdict v;
    v.frames = frames;
    Solver solver;
    solver.set_governance(cancel, budget);
    FaultMiter miter(topo, solver);
    if (!miter.encode(f, frames, ties)) {
        // The fault's cone reaches no primary output: untestable for every
        // sequence length, no solve needed.
        v.kind = CnfVerdict::Kind::Untestable;
        v.proof = fault::UntestableProof::Structural;
        return v;
    }
    const SolveResult r = solver.solve();
    v.conflicts = solver.conflicts();
    v.run = r.run;
    switch (r.status) {
        case SolveStatus::Unsat:
            v.kind = CnfVerdict::Kind::Untestable;
            v.proof = fault::UntestableProof::BoundedCnf;
            break;
        case SolveStatus::Sat:
            v.kind = CnfVerdict::Kind::Test;
            v.test = miter.witness(solver);
            break;
        case SolveStatus::Stopped:
            v.kind = CnfVerdict::Kind::Unknown;
            break;
    }
    return v;
}

bool route_to_sat(const netlist::Topology& topo, const fault::Fault& f,
                  std::uint32_t frames, const core::TieSet* ties,
                  const guide::Testability* tst) {
    // Fault cone (forward reachability through comb and seq sinks) — the
    // same closure the miter encodes, so its size bounds the CNF size.
    std::vector<std::uint8_t> in_cone(topo.size(), 0);
    std::vector<netlist::GateId> stack{f.gate};
    in_cone[f.gate] = 1;
    std::size_t cone = 0;
    std::size_t tied_in_cone = 0;
    std::uint32_t min_level = topo.level(f.gate);
    std::uint32_t max_level = min_level;
    while (!stack.empty()) {
        const netlist::GateId g = stack.back();
        stack.pop_back();
        ++cone;
        min_level = std::min(min_level, topo.level(g));
        max_level = std::max(max_level, topo.level(g));
        if (ties != nullptr && ties->value(g) != logic::Val3::X) ++tied_in_cone;
        for (const netlist::GateId h : topo.fanouts(g)) {
            if (in_cone[h] == 0) {
                in_cone[h] = 1;
                stack.push_back(h);
            }
        }
    }
    // Estimated CNF load: clauses scale with cone x frames. Tie-dense cones
    // prune the SAT search (units everywhere) and are exactly where the
    // structural engine burns its backtrack budget, so they buy a larger
    // cap. Deep level spans favor the frame-sim engine's guided search.
    const std::uint64_t load = static_cast<std::uint64_t>(cone) * frames;
    const double tie_density =
        cone == 0 ? 0.0 : static_cast<double>(tied_in_cone) / static_cast<double>(cone);
    const std::uint32_t depth_span = max_level - min_level;
    std::uint64_t cap = 40000;
    if (tie_density >= 0.10) cap *= 4;
    if (depth_span > 64) cap /= 2;
    if (tst != nullptr) {
        // SCOAP features (guided campaigns only). Hardness saturated at
        // kInf marks an untestable-looking fault: the bounded-UNSAT proof
        // is the cheapest way to resolve it, so double the cap. Merely
        // hard-but-finite faults (deep in the cost tail) are where the
        // guided engine spends its backtrack budget — give them half a
        // notch more CNF headroom instead of none.
        const std::uint32_t h = tst->hardness(f);
        if (h >= guide::Testability::kInf) cap *= 2;
        else if (h >= 4 * guide::Testability::kSeqStep) cap += cap / 2;
    }
    return load <= cap;
}

}  // namespace seqlearn::cnf
