// Wall-clock governance on a real workload (gen5378, the paper's s5378
// stand-in): a deadline-bounded learn() must stop promptly and return a
// usable partial result, and a budgeted run plus a checkpointed resume must
// reproduce the one-shot goldens bit-identically at every thread count. Kept out of the TSan job: gen5378 is too large to simulate
// under TSan's slowdown (the small-circuit robustness_test covers the same
// code paths there).

#include "core/db_io.hpp"
#include "core/seq_learn.hpp"
#include "netlist/topology.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <tuple>
#include <vector>

namespace seqlearn::core {
namespace {

// relation_hash comes from the library (core/impl_db.hpp) so these
// robustness/governance digests stay pinned to the serving protocol's.

TEST(Governance, DeadlineStopsPromptlyWithUsablePartialResult) {
    const netlist::Netlist nl = workload::suite_circuit("gen5378");
    const netlist::Topology topo(nl);

    // A full pass takes ~0.15s in Release, the first ~0.09s of it in the
    // single-node pass; the deadline must cut it off mid-stream in that
    // pass. Debug and instrumented builds run many times slower, so they get
    // a later deadline (under ASan the equivalence phase before the first
    // stem boundary alone takes ~90ms) and a generous stop allowance.
#ifdef NDEBUG
    constexpr long kDeadlineMs = 40;
#else
    constexpr long kDeadlineMs = 200;
#endif
    LearnConfig cfg;
    cfg.threads = 1;
    cfg.budget.deadline = std::chrono::milliseconds(kDeadlineMs);

    const auto t0 = std::chrono::steady_clock::now();
    const LearnResult r = learn(nl, topo, cfg);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);

    ASSERT_EQ(r.outcome.status, exec::RunStatus::DeadlineExceeded)
        << "elapsed " << elapsed.count() << "ms — full pass finished under the "
        << "deadline? rebalance the test budget";
    EXPECT_EQ(r.outcome.diagnostic, "wall-clock deadline");
    // The acceptance bound: stop within 50ms of the deadline. Polling happens
    // at stem boundaries, so the tolerance is one 32-stem batch plus
    // scheduling noise; debug/instrumented builds get a generous allowance.
#ifdef NDEBUG
    constexpr long kToleranceMs = 50;
#else
    constexpr long kToleranceMs = 1000;
#endif
    EXPECT_LE(elapsed.count(), kDeadlineMs + kToleranceMs);

    // The partial result is usable: a sound prefix with a resume cursor,
    // stopped inside the single-node pass.
    EXPECT_TRUE(r.cursor.valid);
    EXPECT_FALSE(r.cursor.in_multi);
    EXPECT_GT(r.stats.stems_processed, 0u);
    EXPECT_LT(r.stats.stems_processed, r.stats.stems);
}

TEST(Governance, BudgetedRunPlusResumeMatchesOneShotAcrossExecConfigs) {
    const netlist::Netlist nl = workload::suite_circuit("gen5378");
    const netlist::Topology topo(nl);

    LearnConfig serial;
    serial.threads = 1;
    const LearnResult golden = learn(nl, topo, serial);
    ASSERT_TRUE(golden.outcome.ok());

    // Stop partway through the single-node pass, checkpoint, resume under
    // each execution config; every combined run must land on the goldens.
    LearnConfig budgeted = serial;
    budgeted.budget.max_items = 300;
    const LearnResult partial = learn(nl, topo, budgeted);
    ASSERT_EQ(partial.outcome.status, exec::RunStatus::LimitReached);
    ASSERT_TRUE(partial.cursor.valid);
    EXPECT_FALSE(partial.cursor.in_multi);
    EXPECT_EQ(partial.cursor.unit, 300u);  // items = stems observed, in order
    // Some of those stems are skipped (already tied / constant), so the
    // processed count is at most the item count.
    EXPECT_LE(partial.stats.stems_processed, 300u);
    EXPECT_GT(partial.stats.stems_processed, 0u);
    const LearnCheckpoint ckpt = make_checkpoint(nl, partial);

    // One cell exercises the full text round trip; the rest resume from the
    // in-memory checkpoint (the serialization is identical — db_io_test
    // proves field fidelity, this proves result fidelity at scale).
    std::stringstream ss;
    save_checkpoint(ss, nl, ckpt);
    const LearnCheckpoint reloaded = load_checkpoint(ss, nl);

    bool first = true;
    for (const unsigned threads : {1u, 2u, 8u}) {
        LearnConfig cfg;
        cfg.threads = threads;
        const LearnResult resumed = resume_learn(nl, topo, cfg, first ? reloaded : ckpt);
        first = false;
        const std::string ctx = "threads=" + std::to_string(threads);
        EXPECT_TRUE(resumed.outcome.ok()) << ctx;
        EXPECT_EQ(relation_hash(resumed.db), relation_hash(golden.db)) << ctx;
        EXPECT_EQ(resumed.db.size(), golden.db.size()) << ctx;
        EXPECT_EQ(resumed.ties.dense(), golden.ties.dense()) << ctx;
        EXPECT_EQ(resumed.ties.dense_cycles(), golden.ties.dense_cycles()) << ctx;
        EXPECT_EQ(resumed.stats.multi_relations, golden.stats.multi_relations) << ctx;
        EXPECT_EQ(resumed.stats.multi_ties, golden.stats.multi_ties) << ctx;
        EXPECT_EQ(resumed.stats.stems_processed, golden.stats.stems_processed) << ctx;
    }
}

}  // namespace
}  // namespace seqlearn::core
