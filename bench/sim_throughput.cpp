// Micro-benchmarks of the simulation substrate: the event-driven learning
// simulator, the 64-lane parallel-pattern simulator, and the 255-fault
// parallel fault simulator (vs. its serial equivalent — the ablation for
// the PPSFP design choice).

#include "fault/collapse.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/topology.hpp"
#include "sim/frame_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "util/rng.hpp"
#include "workload/suite.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace seqlearn;
using logic::Val3;
using netlist::Netlist;

const Netlist& bench_circuit() {
    static const Netlist nl = workload::suite_circuit("gen5378");
    return nl;
}

void BM_FrameSimStemInjection(benchmark::State& state) {
    const Netlist& nl = bench_circuit();
    sim::FrameSimulator fsim(nl, sim::SeqGating::all_open(nl));
    const auto stems = nl.stems();
    std::size_t i = 0;
    sim::FrameSimOptions opt;
    opt.max_frames = 50;
    // The learning hot path: one frame-0 injection per run, result buffers
    // reused across runs (zero heap allocations in steady state).
    sim::FrameSimResult res;
    for (auto _ : state) {
        const sim::Injection inj{0, stems[i % stems.size()], Val3::One};
        fsim.run_into({&inj, 1}, opt, res);
        benchmark::DoNotOptimize(res.implied.size());
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameSimStemInjection);

void BM_ParallelPatterns(benchmark::State& state) {
    const Netlist& nl = bench_circuit();
    sim::ParallelSim psim(nl);
    util::Rng rng(1);
    std::vector<logic::Pattern> pats(nl.size());
    for (auto _ : state) {
        psim.eval_random(pats, rng);
        benchmark::DoNotOptimize(pats.back());
    }
    // 64 patterns per evaluation.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ParallelPatterns);

sim::InputSequence random_sequence(const Netlist& nl, std::size_t len, util::Rng& rng) {
    sim::InputSequence seq(len, sim::InputFrame(nl.inputs().size(), Val3::X));
    for (auto& frame : seq)
        for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
    return seq;
}

void BM_FaultSimParallelPass(benchmark::State& state) {
    const Netlist& nl = bench_circuit();
    const netlist::Topology topo(nl);
    fault::FaultSimulator fsim(topo);
    const auto reps = fault::collapse(nl).representatives();
    util::Rng rng(2);
    const auto seq = random_sequence(nl, 20, rng);
    const std::span<const fault::Fault> chunk(reps.data(),
                                              std::min(fault::kFaultsPerPass, reps.size()));
    for (auto _ : state) {
        const auto det = fsim.run(seq, chunk);
        benchmark::DoNotOptimize(det.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_FaultSimParallelPass);

void BM_FaultSimSerial(benchmark::State& state) {
    const Netlist& nl = bench_circuit();
    const netlist::Topology topo(nl);
    fault::FaultSimulator fsim(topo);
    const auto reps = fault::collapse(nl).representatives();
    util::Rng rng(2);
    const auto seq = random_sequence(nl, 20, rng);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fsim.detects(seq, reps[i % std::min(fault::kFaultsPerPass, reps.size())]));
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultSimSerial);

}  // namespace

BENCHMARK_MAIN();
