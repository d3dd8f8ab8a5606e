// Tests for the fault substrate: universe generation, equivalence
// collapsing, the status list, and the 255-fault-per-pass sequential fault
// simulator cross-validated against netlist-surgery reference simulation —
// on s27 and on generated circuits with more than one pass of faults (pin
// and output faults, a partial last pass, all-X frames, learned ties
// checked serial against pooled).

#include "fault/collapse.hpp"
#include "fault/fault.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/structure.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/circuit_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace seqlearn::fault {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using sim::InputFrame;
using sim::InputSequence;

constexpr const char* kS27 = R"(
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
)";

Netlist make_s27() { return netlist::read_bench_string(kS27, "s27"); }

InputSequence random_sequence(const Netlist& nl, std::size_t len, util::Rng& rng) {
    InputSequence seq(len, InputFrame(nl.inputs().size(), Val3::X));
    for (auto& frame : seq) {
        for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
    }
    return seq;
}

// Reference detection: simulate good and surgically-faulted netlists and
// compare primary outputs frame by frame (both binary, different).
bool reference_detects(const Netlist& nl, const Fault& f, const InputSequence& seq) {
    const Netlist bad = apply_fault_copy(nl, f);
    const auto good = sim::simulate_sequence(nl, seq);
    const auto faulty = sim::simulate_sequence(bad, seq);
    for (std::size_t t = 0; t < seq.size(); ++t) {
        for (std::size_t o = 0; o < good.outputs[t].size(); ++o) {
            const Val3 g = good.outputs[t][o];
            const Val3 b = faulty.outputs[t][o];
            if (g != Val3::X && b != Val3::X && g != b) return true;
        }
    }
    return false;
}

TEST(FaultUniverse, SizeMatchesStructure) {
    const Netlist nl = make_s27();
    std::size_t branch_pins = 0;
    for (GateId id = 0; id < nl.size(); ++id) {
        for (const GateId f : nl.fanins(id)) {
            if (nl.fanouts(f).size() > 1) ++branch_pins;
        }
    }
    const auto universe = fault_universe(nl);
    EXPECT_EQ(universe.size(), 2 * (nl.size() + branch_pins));
    // No duplicates.
    auto sorted = universe;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

TEST(FaultUniverse, FanoutFreePinsCarryNoFaults) {
    NetlistBuilder b("ff");
    b.input("a").input("bb");
    b.gate(GateType::And, "g", {"a", "bb"});
    b.output("g");
    const Netlist nl = b.build();
    const auto universe = fault_universe(nl);
    EXPECT_EQ(universe.size(), 6u);  // 3 gates x 2, no branch faults
    for (const Fault& f : universe) EXPECT_EQ(f.pin, kOutputPin);
}

TEST(FaultToString, Formats) {
    const Netlist nl = make_s27();
    EXPECT_EQ(to_string(nl, Fault{nl.find("G14"), kOutputPin, Val3::One}), "G14 s-a-1");
    EXPECT_EQ(to_string(nl, Fault{nl.find("G9"), 1, Val3::Zero}), "G9.in1 s-a-0");
}

TEST(Collapse, SingleAndGate) {
    NetlistBuilder b("and2");
    b.input("a").input("bb");
    b.gate(GateType::And, "g", {"a", "bb"});
    b.output("g");
    const Netlist nl = b.build();
    const CollapsedFaults cf = collapse(nl);
    EXPECT_EQ(cf.universe_size(), 6u);
    // {a0,b0,g0} collapse; a1, b1, g1 stay separate -> 4 classes.
    EXPECT_EQ(cf.size(), 4u);
    const Fault a0{nl.find("a"), kOutputPin, Val3::Zero};
    const Fault b0{nl.find("bb"), kOutputPin, Val3::Zero};
    const Fault g0{nl.find("g"), kOutputPin, Val3::Zero};
    EXPECT_EQ(cf.rep_of(a0), cf.rep_of(g0));
    EXPECT_EQ(cf.rep_of(b0), cf.rep_of(g0));
    const Fault a1{nl.find("a"), kOutputPin, Val3::One};
    const Fault g1{nl.find("g"), kOutputPin, Val3::One};
    EXPECT_NE(cf.rep_of(a1), cf.rep_of(g1));
}

TEST(Collapse, InverterChainFoldsToTwoClasses) {
    NetlistBuilder b("chain");
    b.input("a");
    b.gate(GateType::Not, "n1", {"a"});
    b.gate(GateType::Not, "n2", {"n1"});
    b.output("n2");
    const Netlist nl = b.build();
    const CollapsedFaults cf = collapse(nl);
    EXPECT_EQ(cf.universe_size(), 6u);
    EXPECT_EQ(cf.size(), 2u);
    const Fault a0{nl.find("a"), kOutputPin, Val3::Zero};
    const Fault n1_1{nl.find("n1"), kOutputPin, Val3::One};
    const Fault n2_0{nl.find("n2"), kOutputPin, Val3::Zero};
    EXPECT_EQ(cf.rep_of(a0), cf.rep_of(n1_1));
    EXPECT_EQ(cf.rep_of(a0), cf.rep_of(n2_0));
}

TEST(Collapse, NandPolarity) {
    NetlistBuilder b("nand2");
    b.input("a").input("bb");
    b.gate(GateType::Nand, "g", {"a", "bb"});
    b.output("g");
    const Netlist nl = b.build();
    const CollapsedFaults cf = collapse(nl);
    // in s-a-0 == out s-a-1 for NAND.
    const Fault a0{nl.find("a"), kOutputPin, Val3::Zero};
    const Fault g1{nl.find("g"), kOutputPin, Val3::One};
    EXPECT_EQ(cf.rep_of(a0), cf.rep_of(g1));
}

TEST(Collapse, XorHasNoEquivalences) {
    NetlistBuilder b("xor2");
    b.input("a").input("bb");
    b.gate(GateType::Xor, "g", {"a", "bb"});
    b.output("g");
    const Netlist nl = b.build();
    EXPECT_EQ(collapse(nl).size(), 6u);
}

TEST(Collapse, BranchFaultsStayDistinctFromStem) {
    // A stem feeding an AND and an OR: branch faults collapse into the
    // consumers' output faults, not into the stem fault.
    NetlistBuilder b("branch");
    b.input("a").input("bb").input("c");
    b.gate(GateType::Buf, "s", {"a"});
    b.gate(GateType::And, "g1", {"s", "bb"});
    b.gate(GateType::Or, "g2", {"s", "c"});
    b.output("g1").output("g2");
    const Netlist nl = b.build();
    const CollapsedFaults cf = collapse(nl);
    const Fault stem0{nl.find("s"), kOutputPin, Val3::Zero};
    const Fault branch_and_0{nl.find("g1"), 0, Val3::Zero};
    const Fault g1_0{nl.find("g1"), kOutputPin, Val3::Zero};
    EXPECT_EQ(cf.rep_of(branch_and_0), cf.rep_of(g1_0));
    EXPECT_NE(cf.rep_of(stem0), cf.rep_of(branch_and_0));
}

// Detection equivalence: every fault must be detected by exactly the
// sequences that detect its class representative.
TEST(Collapse, ClassMembersShareDetection) {
    const Netlist nl = make_s27();
    const CollapsedFaults cf = collapse(nl);
    const auto universe = fault_universe(nl);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    util::Rng rng(2024);
    for (int trial = 0; trial < 4; ++trial) {
        const InputSequence seq = random_sequence(nl, 6, rng);
        for (const Fault& f : universe) {
            const Fault& rep = cf.rep_of(f);
            if (rep == f) continue;
            EXPECT_EQ(fsim.detects(seq, f), fsim.detects(seq, rep))
                << to_string(nl, f) << " vs rep " << to_string(nl, rep);
        }
    }
}

TEST(FaultList, CountsAndCoverage) {
    FaultList list({Fault{0, kOutputPin, Val3::Zero}, Fault{0, kOutputPin, Val3::One},
                    Fault{1, kOutputPin, Val3::Zero}, Fault{1, kOutputPin, Val3::One}});
    list.set_status(0, FaultStatus::Detected);
    list.set_status(1, FaultStatus::Untestable);
    list.set_status(2, FaultStatus::Aborted);
    const auto c = list.counts();
    EXPECT_EQ(c.total, 4u);
    EXPECT_EQ(c.detected, 1u);
    EXPECT_EQ(c.untestable, 1u);
    EXPECT_EQ(c.aborted, 1u);
    EXPECT_EQ(c.undetected, 1u);
    EXPECT_DOUBLE_EQ(list.fault_coverage(), 0.25);
    EXPECT_DOUBLE_EQ(list.test_coverage(), 1.0 / 3.0);
    EXPECT_EQ(list.undetected(), (std::vector<std::size_t>{3}));
    EXPECT_EQ(list.aborted(), (std::vector<std::size_t>{2}));
}

// The parallel fault simulator must agree with netlist-surgery reference
// simulation for every fault in the universe.
TEST(FaultSim, AgreesWithSurgeryReferenceOnS27) {
    const Netlist nl = make_s27();
    const auto universe = fault_universe(nl);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    util::Rng rng(7);
    for (int trial = 0; trial < 3; ++trial) {
        const InputSequence seq = random_sequence(nl, 8, rng);
        for (const Fault& f : universe) {
            EXPECT_EQ(fsim.detects(seq, f), reference_detects(nl, f, seq))
                << to_string(nl, f) << " trial " << trial;
        }
    }
}

TEST(FaultSim, ParallelPassMatchesSerialRuns) {
    const Netlist nl = make_s27();
    const auto universe = fault_universe(nl);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    util::Rng rng(15);
    const InputSequence seq = random_sequence(nl, 10, rng);
    // One pass over the first faults (up to a full pass) vs. per-fault runs.
    const std::size_t n = std::min<std::size_t>(universe.size(), kFaultsPerPass);
    const std::span<const Fault> chunk(universe.data(), n);
    const auto parallel = fsim.run(seq, chunk);
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(parallel[j], fsim.detects(seq, universe[j])) << to_string(nl, universe[j]);
    }
}

TEST(FaultSim, XInputsNeverProduceFalseDetections) {
    // With all-X stimuli nothing is observable, so nothing may be detected.
    const Netlist nl = make_s27();
    const auto universe = fault_universe(nl);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    const InputSequence seq(5, InputFrame(nl.inputs().size(), Val3::X));
    for (const Fault& f : universe) {
        EXPECT_FALSE(fsim.detects(seq, f)) << to_string(nl, f);
    }
}

TEST(FaultSim, DropDetectedMatchesIndividualDetection) {
    const Netlist nl = make_s27();
    const CollapsedFaults cf = collapse(nl);
    FaultList list(cf.representatives());
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    util::Rng rng(31);
    const InputSequence seq = random_sequence(nl, 12, rng);
    const std::size_t dropped = fsim.drop_detected(seq, list);
    std::size_t expect_dropped = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
        const bool det = fsim.detects(seq, list.fault(i));
        expect_dropped += det;
        EXPECT_EQ(list.status(i) == FaultStatus::Detected, det);
    }
    EXPECT_EQ(dropped, expect_dropped);
    EXPECT_GT(dropped, 0u);  // a 12-frame random sequence detects something
}

TEST(FaultSim, DetectsObviousFault) {
    // y = AND(a, b), y observed: a s-a-0 detected by a=b=1.
    NetlistBuilder b("and2");
    b.input("a").input("bb");
    b.gate(GateType::And, "y", {"a", "bb"});
    b.output("y");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    const InputSequence seq{{Val3::One, Val3::One}};
    EXPECT_TRUE(fsim.detects(seq, Fault{nl.find("a"), kOutputPin, Val3::Zero}));
    EXPECT_FALSE(fsim.detects(seq, Fault{nl.find("a"), kOutputPin, Val3::One}));
    const InputSequence seq01{{Val3::Zero, Val3::One}};
    EXPECT_TRUE(fsim.detects(seq01, Fault{nl.find("a"), kOutputPin, Val3::One}));
}

TEST(FaultSim, SequentialFaultNeedsPropagationFrames) {
    // Pipeline: fault at the head shows at the PO only after 2 frames.
    NetlistBuilder b("pipe");
    b.input("i");
    b.dff("f1", "i");
    b.dff("f2", "f1");
    b.output("f2");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    const Fault f{nl.find("i"), kOutputPin, Val3::Zero};
    const InputSequence short_seq{{Val3::One}, {Val3::One}};
    EXPECT_FALSE(fsim.detects(short_seq, f));
    const InputSequence long_seq{{Val3::One}, {Val3::One}, {Val3::One}};
    EXPECT_TRUE(fsim.detects(long_seq, f));
}

TEST(FaultSim, ParallelDropDetectedMatchesSerial) {
    // More than one pass, random sequences, serial vs pooled drop_detected
    // over per-worker clones: every status and drop count must agree
    // (detection is a union merged in fault-index order).
    const Netlist nl = testing::random_circuit(77, 8, 6, 200);
    const netlist::Topology topo(nl);
    const CollapsedFaults collapsed = collapse(nl);
    ASSERT_GT(collapsed.size(), kFaultsPerPass);  // at least two passes

    FaultSimulator serial(topo);
    exec::Pool pool(4);
    FaultSimulator parallel(topo);
    parallel.set_executor(&pool);

    FaultList serial_list(collapsed.representatives());
    FaultList parallel_list(collapsed.representatives());
    util::Rng rng(1234);
    for (int round = 0; round < 6; ++round) {
        InputSequence seq(8, InputFrame(nl.inputs().size(), Val3::X));
        for (auto& frame : seq)
            for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
        const std::size_t a = serial.drop_detected(seq, serial_list);
        const std::size_t b = parallel.drop_detected(seq, parallel_list);
        EXPECT_EQ(a, b) << "round " << round;
    }
    EXPECT_GT(serial_list.counts().detected, 0u);
    for (std::size_t i = 0; i < serial_list.size(); ++i) {
        EXPECT_EQ(serial_list.status(i), parallel_list.status(i)) << i;
    }
}

TEST(FaultSim, ParallelDropForwardsGoodTiesToClones) {
    // set_good_ties after clones exist must reconfigure every worker: tie a
    // gate and check parallel statuses still match a serial simulator with
    // the same ties.
    const Netlist nl = testing::random_circuit(31, 7, 5, 200);
    const netlist::Topology topo(nl);
    const CollapsedFaults collapsed = collapse(nl);
    ASSERT_GT(collapsed.size(), kFaultsPerPass);  // at least two passes

    std::vector<Val3> ties(nl.size(), Val3::X);
    std::vector<std::uint32_t> cycles(nl.size(), 0);
    ties[nl.seq_elements()[0]] = Val3::Zero;

    exec::Pool pool(4);
    FaultSimulator parallel(topo);
    parallel.set_executor(&pool);
    {
        // Force clone creation with tie-free state first.
        FaultList warmup(collapsed.representatives());
        InputSequence seq(4, InputFrame(nl.inputs().size(), Val3::One));
        parallel.drop_detected(seq, warmup);
    }
    parallel.set_good_ties(&ties, &cycles);

    FaultSimulator serial(topo);
    serial.set_good_ties(&ties, &cycles);

    FaultList serial_list(collapsed.representatives());
    FaultList parallel_list(collapsed.representatives());
    util::Rng rng(77);
    for (int round = 0; round < 4; ++round) {
        InputSequence seq(8, InputFrame(nl.inputs().size(), Val3::X));
        for (auto& frame : seq)
            for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
        EXPECT_EQ(serial.drop_detected(seq, serial_list),
                  parallel.drop_detected(seq, parallel_list));
    }
    for (std::size_t i = 0; i < serial_list.size(); ++i) {
        EXPECT_EQ(serial_list.status(i), parallel_list.status(i)) << i;
    }
}

// --- the wide kernel against the surgery oracle -----------------------------

// Seeded generated circuits with more than one pass of collapsed faults,
// not a whole number of passes (the last pass is partial).
Netlist wide_circuit(std::uint64_t seed) {
    workload::GenParams p;
    p.name = "wide";
    p.seed = seed;
    p.n_inputs = 8;
    p.n_outputs = 8;
    p.n_ffs = 12;
    p.n_gates = 150;
    return workload::generate(p);
}

// Random binary frames, with all-X frames at the positions in `x_frames`.
InputSequence sequence_with_x_frames(const Netlist& nl, std::size_t len,
                                     std::initializer_list<std::size_t> x_frames,
                                     util::Rng& rng) {
    InputSequence seq = random_sequence(nl, len, rng);
    for (const std::size_t t : x_frames) std::fill(seq[t].begin(), seq[t].end(), Val3::X);
    return seq;
}

TEST(FaultSimWide, AgreesWithSurgeryReferenceOnGeneratedCircuits) {
    for (const std::uint64_t seed : {11ULL, 12ULL}) {
        const Netlist nl = wide_circuit(seed);
        const netlist::Topology topo(nl);
        const std::vector<Fault> faults = collapse(nl).representatives();
        ASSERT_GT(faults.size(), kFaultsPerPass) << "seed " << seed;
        ASSERT_NE(faults.size() % kFaultsPerPass, 0u) << "seed " << seed;
        const auto pin_faults = std::count_if(faults.begin(), faults.end(),
                                              [](const Fault& f) { return f.pin != kOutputPin; });
        ASSERT_GT(pin_faults, 0) << "seed " << seed;
        ASSERT_LT(static_cast<std::size_t>(pin_faults), faults.size()) << "seed " << seed;

        FaultSimulator fsim(topo);
        util::Rng rng(seed);
        const std::vector<InputSequence> seqs{
            random_sequence(nl, 10, rng),
            sequence_with_x_frames(nl, 10, {0, 3, 4}, rng),
            InputSequence(6, InputFrame(nl.inputs().size(), Val3::X)),
        };
        for (std::size_t s = 0; s < seqs.size(); ++s) {
            FaultList list(faults);
            const std::size_t dropped = fsim.drop_detected(seqs[s], list);
            std::size_t expect_dropped = 0;
            std::size_t last_word_hits = 0;  // lanes 192..255 of a pass
            for (std::size_t i = 0; i < faults.size(); ++i) {
                const bool ref = reference_detects(nl, faults[i], seqs[s]);
                expect_dropped += ref;
                if (ref && i % kFaultsPerPass >= 191) ++last_word_hits;
                EXPECT_EQ(list.status(i) == FaultStatus::Detected, ref)
                    << to_string(nl, faults[i]) << " seed " << seed << " seq " << s;
                EXPECT_EQ(fsim.detects(seqs[s], faults[i]), ref)
                    << to_string(nl, faults[i]) << " seed " << seed << " seq " << s;
            }
            EXPECT_EQ(dropped, expect_dropped) << "seed " << seed << " seq " << s;
            if (s + 1 < seqs.size()) {
                EXPECT_GT(last_word_hits, 0u) << "seed " << seed << " seq " << s;
                // The partial last pass detects something too.
                const std::size_t last_pass = faults.size() / kFaultsPerPass * kFaultsPerPass;
                bool last_pass_hit = false;
                for (std::size_t i = last_pass; i < faults.size(); ++i)
                    last_pass_hit |= list.status(i) == FaultStatus::Detected;
                EXPECT_TRUE(last_pass_hit) << "seed " << seed << " seq " << s;
            } else {
                EXPECT_EQ(dropped, 0u) << "all-X stimuli detect nothing";
            }
        }
    }
}

TEST(FaultSimWide, FullPassMatchesPerFaultRuns) {
    // Exactly kFaultsPerPass faults in one run(): every lane, the last one
    // included, must report what a single-fault run reports.
    const Netlist nl = wide_circuit(13);
    const netlist::Topology topo(nl);
    const std::vector<Fault> faults = fault_universe(nl);
    ASSERT_GE(faults.size(), kFaultsPerPass);
    const std::span<const Fault> chunk(faults.data(), kFaultsPerPass);
    FaultSimulator fsim(topo);
    util::Rng rng(13);
    const InputSequence seq = sequence_with_x_frames(nl, 12, {5}, rng);
    const std::vector<bool> det = fsim.run(seq, chunk);
    ASSERT_EQ(det.size(), kFaultsPerPass);
    EXPECT_GT(std::count(det.begin(), det.end(), true), 0);
    for (std::size_t j = 0; j < chunk.size(); ++j)
        EXPECT_EQ(det[j], fsim.detects(seq, chunk[j])) << to_string(nl, chunk[j]);
}

TEST(FaultSimWide, LearnedTiesAgreeSerialPooledAndPerFault) {
    // No surgery oracle models ties; instead the tie-aware pass must agree
    // with itself across every route in: serial and pooled drop_detected,
    // and single-fault detects(). Ties only refine X, so everything the
    // plain simulator detects stays detected.
    const Netlist nl = wide_circuit(11);
    const netlist::Topology topo(nl);
    const std::vector<Fault> faults = collapse(nl).representatives();
    ASSERT_GT(faults.size(), kFaultsPerPass);
    const core::LearnResult learned = testing::learn(nl);
    const auto& ties = learned.ties.dense();
    ASSERT_GT(std::count_if(ties.begin(), ties.end(), [](Val3 v) { return v != Val3::X; }), 0);

    FaultSimulator plain(topo);
    FaultSimulator serial(topo);
    serial.set_good_ties(&ties, &learned.ties.dense_cycles());
    exec::Pool pool(4);
    FaultSimulator pooled(topo);
    pooled.set_executor(&pool);
    pooled.set_good_ties(&ties, &learned.ties.dense_cycles());

    util::Rng rng(99);
    for (int round = 0; round < 3; ++round) {
        const InputSequence seq = sequence_with_x_frames(nl, 8, {1}, rng);
        FaultList plain_list(faults);
        FaultList serial_list(faults);
        FaultList pooled_list(faults);
        plain.drop_detected(seq, plain_list);
        EXPECT_EQ(serial.drop_detected(seq, serial_list),
                  pooled.drop_detected(seq, pooled_list))
            << "round " << round;
        for (std::size_t i = 0; i < faults.size(); ++i) {
            const bool det = serial_list.status(i) == FaultStatus::Detected;
            EXPECT_EQ(pooled_list.status(i), serial_list.status(i)) << i;
            EXPECT_EQ(serial.detects(seq, faults[i]), det) << to_string(nl, faults[i]);
            if (plain_list.status(i) == FaultStatus::Detected) {
                EXPECT_TRUE(det) << to_string(nl, faults[i]);
            }
        }
        // Full tied run() passes report what the per-fault runs report.
        for (std::size_t pos = 0; pos < faults.size(); pos += kFaultsPerPass) {
            const std::span<const Fault> chunk(
                faults.data() + pos, std::min(kFaultsPerPass, faults.size() - pos));
            const std::vector<bool> det = serial.run(seq, chunk);
            for (std::size_t j = 0; j < chunk.size(); ++j)
                EXPECT_EQ(det[j], serial.detects(seq, chunk[j])) << to_string(nl, chunk[j]);
        }
    }
}

// --- the tie-cone index against a forward-BFS oracle ------------------------

// A seeded random tie set: about `density` of the gates tied to a random
// binary value from a proof cycle in 0..2. The facts are not sound for the
// circuit, which the simulator's lane semantics do not depend on.
struct RandomTies {
    std::vector<Val3> values;
    std::vector<std::uint32_t> cycles;
};

RandomTies random_ties(std::size_t n, double density, util::Rng& rng) {
    RandomTies t{std::vector<Val3>(n, Val3::X), std::vector<std::uint32_t>(n, 0)};
    for (std::size_t g = 0; g < n; ++g) {
        if (!rng.chance(density)) continue;
        t.values[g] = rng.chance(0.5) ? Val3::One : Val3::Zero;
        t.cycles[g] = static_cast<std::uint32_t>(rng.below(3));
    }
    return t;
}

// The oracle: the tied gates a forward walk from `g` reaches.
std::vector<GateId> bfs_ties_in_cone(const netlist::Topology& topo, const RandomTies& ties,
                                     GateId g, netlist::ForwardCone& cone) {
    cone.walk(topo, g);
    std::vector<GateId> out;
    for (GateId h = 0; h < topo.size(); ++h) {
        if (ties.values[h] != Val3::X && cone.contains(h)) out.push_back(h);
    }
    return out;
}

// Every full run() pass over `faults` against single-fault runs.
void expect_passes_match_per_fault(FaultSimulator& fsim, const Netlist& nl,
                                   const std::vector<Fault>& faults, const InputSequence& seq,
                                   const std::string& where) {
    for (std::size_t pos = 0; pos < faults.size(); pos += kFaultsPerPass) {
        const std::span<const Fault> chunk(faults.data() + pos,
                                           std::min(kFaultsPerPass, faults.size() - pos));
        const std::vector<bool> det = fsim.run(seq, chunk);
        for (std::size_t j = 0; j < chunk.size(); ++j)
            EXPECT_EQ(det[j], fsim.detects(seq, chunk[j])) << to_string(nl, chunk[j]) << where;
    }
}

TEST(TieConeIndex, MatchesForwardBfsOnGeneratedCircuits) {
    std::size_t in_cone = 0, outside = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        workload::GenParams p;
        p.name = "tiecone";
        p.seed = seed;
        p.n_ffs = 4 + seed % 9;
        p.n_gates = 60 + 5 * seed;
        const Netlist nl = workload::generate(p);
        const netlist::Topology topo(nl);
        const std::vector<Fault> faults = collapse(nl).representatives();
        util::Rng rng(seed);
        FaultSimulator fsim(topo);
        netlist::ForwardCone cone;
        for (const double density : {0.05, 0.3}) {
            const RandomTies ties = random_ties(topo.size(), density, rng);
            fsim.set_good_ties(&ties.values, &ties.cycles);
            const std::string where = " seed " + std::to_string(seed) + " density " +
                                      std::to_string(density);
            for (const Fault& f : faults) {
                const std::vector<GateId> expect = bfs_ties_in_cone(topo, ties, f.gate, cone);
                EXPECT_EQ(fsim.ties_in_cone(f.gate), expect) << to_string(nl, f) << where;
                in_cone += expect.size();
                outside += static_cast<std::size_t>(
                    std::count_if(ties.values.begin(), ties.values.end(),
                                  [](Val3 v) { return v != Val3::X; })) - expect.size();
            }
            expect_passes_match_per_fault(fsim, nl, faults,
                                          sequence_with_x_frames(nl, 8, {1}, rng), where);
            fsim.set_good_ties(nullptr, nullptr);
        }
    }
    // Both sides of the lane rule were exercised.
    EXPECT_GT(in_cone, 0u);
    EXPECT_GT(outside, 0u);
}

TEST(TieConeIndex, KeptForTheSameTiedGatesAndRebuiltForOthers) {
    // One simulator walks through tie sets (same gates with other values,
    // detached, different gates); each step must simulate exactly like a
    // fresh simulator given that set alone, serially and pooled.
    const Netlist nl = wide_circuit(17);
    const netlist::Topology topo(nl);
    const std::vector<Fault> faults = collapse(nl).representatives();
    util::Rng rng(17);
    const RandomTies first = random_ties(topo.size(), 0.2, rng);
    RandomTies flipped = first;
    for (Val3& v : flipped.values) {
        if (v != Val3::X) v = logic::v3_not(v);
    }
    const RandomTies other = random_ties(topo.size(), 0.2, rng);

    exec::Pool pool(3);
    FaultSimulator reused(topo);
    reused.set_executor(&pool);
    const InputSequence seq = sequence_with_x_frames(nl, 10, {2}, rng);
    const RandomTies* const steps[] = {&first, &flipped, nullptr, &first, &other};
    for (const RandomTies* ties : steps) {
        if (ties != nullptr) {
            reused.set_good_ties(&ties->values, &ties->cycles);
        } else {
            reused.set_good_ties(nullptr, nullptr);
        }
        FaultSimulator fresh(topo);
        if (ties != nullptr) fresh.set_good_ties(&ties->values, &ties->cycles);
        FaultList reused_list(faults);
        FaultList fresh_list(faults);
        EXPECT_EQ(reused.drop_detected(seq, reused_list), fresh.drop_detected(seq, fresh_list));
        for (std::size_t i = 0; i < faults.size(); ++i) {
            EXPECT_EQ(reused_list.status(i), fresh_list.status(i)) << to_string(nl, faults[i]);
            EXPECT_EQ(reused.ties_in_cone(faults[i].gate), fresh.ties_in_cone(faults[i].gate));
        }
    }
}

}  // namespace
}  // namespace seqlearn::fault
