// The three in-process workloads: flow_guided, flow_retimed and
// learn_industrial.
//
// Each one generates a suite of circuits from the run seed and hands the
// library only their .bench text. Set-up (parse + Design build of the whole
// suite) is timed on its own, once before every pass. The measured part
// repeats passes over the suite until the run's measuring time is used up
// (at least two passes); flow_s is the mean over the suite of each
// circuit's best time.
//
// Why a suite and not one big circuit: runs with different seeds must agree
// within the regression bounds, and one generated circuit's cost depends on
// its random structure far more than that. A mean over a couple of hundred
// small circuits of the same recipe is stable across seeds to a few percent.
//
// Every circuit's output is checked on every pass, and its digest must
// repeat exactly on later passes. Layer counters are summed over the suite
// on the first pass.

#include "bench.hpp"

#include "api/design.hpp"
#include "api/session.hpp"
#include "core/impl_db.hpp"
#include "netlist/bench_io.hpp"
#include "workload/circuit_gen.hpp"
#include "workload/retime.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace seqbench {

using namespace seqlearn;

namespace {

constexpr std::size_t kMinPasses = 2;

/// Every stage is pinned to one worker thread: the library's default of 0
/// means hardware_concurrency, which would make timings depend on the host.
api::SessionConfig one_thread() {
    api::SessionConfig cfg;
    cfg.threads = 1;
    cfg.learn.threads = 1;
    cfg.atpg.threads = 1;
    return cfg;
}

core::LearnConfig learn_config() {
    core::LearnConfig cfg;
    cfg.threads = 1;
    cfg.sat_frames = 4;  // SAT failed-literal probes over a 4-frame unrolling
    return cfg;
}

struct Suite {
    std::vector<std::string> names;
    std::vector<std::string> texts;
    std::vector<api::DesignPtr> designs;

    double size() const { return static_cast<double>(texts.size()); }
};

template <class Gen>
Suite make_suite(std::size_t n, Gen gen) {
    Suite s;
    for (std::size_t i = 0; i < n; ++i) {
        const netlist::Netlist nl = gen(i);
        s.names.push_back(nl.name());
        s.texts.push_back(netlist::write_bench_string(nl));
    }
    return s;
}

/// Parse and build times of the whole suite, one entry per set-up.
struct SetupTimes {
    std::vector<double> parse_s, build_s, total_s;
};

/// Parse + build the whole suite once, replacing its Designs. Set-up spans
/// belong to operation 0.
void set_up(Run& run, Suite& suite, SetupTimes& times) {
    Scope setup(run.tracer, "bench.setup", 0);
    suite.designs.clear();
    double parse = 0.0, build = 0.0;
    for (std::size_t i = 0; i < suite.texts.size(); ++i) {
        const std::int64_t t0 = now_ns();
        netlist::BenchReadResult parsed;
        {
            Scope s(run.tracer, "netlist.parse", 0);
            parsed = netlist::read_bench_string_diag(suite.texts[i], suite.names[i]);
        }
        if (!parsed.ok()) throw std::runtime_error(suite.names[i] + " failed to parse");
        const std::int64_t t1 = now_ns();
        {
            Scope s(run.tracer, "api.build", 0);
            suite.designs.push_back(api::DesignBuilder(std::move(*parsed.netlist)).build());
        }
        const std::int64_t t2 = now_ns();
        parse += static_cast<double>(t1 - t0) * 1e-9;
        build += static_cast<double>(t2 - t1) * 1e-9;
    }
    times.parse_s.push_back(parse);
    times.build_s.push_back(build);
    times.total_s.push_back(parse + build);
}

/// Report the medians of the set-ups and the suite's size.
void report_setup(Run& run, const Suite& suite, const SetupTimes& times) {
    run.e2e.set("setup_s", median(times.total_s), "s");
    run.calibrated.push_back("setup_s");
    run.layer.set("netlist.parse_s", median(times.parse_s), "s");
    run.layer.set("api.build_s", median(times.build_s), "s");
    for (const api::DesignPtr& d : suite.designs) {
        run.layer.add("netlist.gates", static_cast<double>(d->netlist().size()));
        run.layer.add("api.design_bytes", static_cast<double>(d->memory_bytes()));
    }
}

/// Suite-wide sums that are the bases of ratio metrics (not reported).
struct Bases {
    double faults = 0.0;        ///< collapsed faults
    double validated = 0.0;     ///< faults the independent validation detects
    double credited = 0.0;      ///< campaign detections not owed to the warmup
    double fault_frames = 0.0;  ///< collapsed faults x test frames, summed per circuit
};

/// What one checked circuit flow produced.
struct Rep {
    std::uint64_t digest = 0;  ///< must repeat exactly on every pass
    bool ok = true;
};

/// `flow(op, design, bases)` runs and checks one circuit (a DesignPtr);
/// `bases` is non-null on the first pass only, when counters are summed.
///
/// flow_s is the mean over the suite of each circuit's fastest time among
/// the passes. The host this runs on slows down by 10-30% for stretches of
/// seconds at a time; the best of several passes spaced seconds apart is
/// far steadier from run to run than any single pass or a median of passes.
///
/// The suite is set up again before every pass, and setup_s is the median
/// of these set-ups. Spread over the run, they see the host at different
/// speeds; back to back, they would all see the same one. Set-up time does
/// not count against the measuring time.
template <class Flow>
void measure(Run& run, Suite& suite, Bases& bases, Flow flow) {
    const std::size_t n = suite.texts.size();
    std::int64_t deadline = now_ns() + static_cast<std::int64_t>(run.seconds * 1e9);
    SetupTimes setup;
    std::vector<std::uint64_t> digests(n);
    std::vector<double> best_s(n, 1e300);
    // Traced run: circuit i is traced on passes where (i + pass) is even,
    // so each circuit is timed both ways and the overhead is a paired
    // difference of its mean traced and untraced times.
    std::vector<double> sum_s[2] = {std::vector<double>(n), std::vector<double>(n)};
    std::vector<std::size_t> count[2] = {std::vector<std::size_t>(n), std::vector<std::size_t>(n)};
    std::size_t traced_ops = 0;
    std::int64_t last_calibration = now_ns();
    for (std::size_t pass = 0; pass < kMinPasses || now_ns() < deadline; ++pass) {
        run.tracer.enabled = run.trace;
        const std::int64_t setup_start = now_ns();
        set_up(run, suite, setup);
        deadline += now_ns() - setup_start;
        for (std::size_t i = 0; i < n; ++i) {
            if (now_ns() - last_calibration > 1'000'000'000) {
                calibrate(run);
                last_calibration = now_ns();
            }
            const std::uint64_t op = pass * n + i + 1;
            const bool traced = run.trace && (i + pass) % 2 == 0;
            run.tracer.enabled = traced;
            const std::int64_t t0 = now_ns();
            Rep r;
            {
                Scope root(run.tracer, "bench.flow", op);
                r = flow(op, suite.designs[i], pass == 0 ? &bases : nullptr);
            }
            const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
            best_s[i] = std::min(best_s[i], dt);
            sum_s[traced][i] += dt;
            ++count[traced][i];
            traced_ops += traced ? 1 : 0;
            ++run.attempted;
            if (pass == 0) digests[i] = r.digest;
            if (!r.ok) {
                ++run.failed;
                ++run.wrong;
            } else if (r.digest != digests[i]) {
                run.fail(suite.names[i] + ": pass " + std::to_string(pass + 1) +
                         " output differs from the first pass");
            }
        }
    }
    run.tracer.enabled = run.trace;
    report_setup(run, suite, setup);
    double best = 0.0;
    for (const double b : best_s) best += b;
    run.e2e.set("flow_s", best / suite.size(), "s");
    run.calibrated.push_back("flow_s");
    if (!run.trace) return;
    double overhead = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        overhead += sum_s[1][i] / static_cast<double>(count[1][i]) -
                    sum_s[0][i] / static_cast<double>(count[0][i]);
    }
    run.layer.set("bench.trace_overhead_ms", overhead / suite.size() * 1e3, "ms");
    for (const auto& [layer, self_s] : run.tracer.self_seconds_by_layer(1))
        run.layer.set(layer + ".self_s", self_s / static_cast<double>(traced_ops), "s");
}

/// Mean duration of the traced spans named `name` (seconds per call).
double mean_span(const Run& run, const char* name) {
    const std::vector<double> d = run.tracer.durations(name);
    double sum = 0.0;
    for (const double x : d) sum += x;
    return d.empty() ? 0.0 : sum / static_cast<double>(d.size());
}

void reject(Run& run, Rep& r, const api::Design& d, const std::string& what) {
    r.ok = false;
    run.note(d.name() + ": " + what);
}

/// Checks shared by both ATPG flows, and their counters on the first pass.
void check_campaign(Run& run, const api::Design& d, const api::AtpgReport& rep,
                    const api::FaultSimReport& v, Rep& r, Bases* bases) {
    const atpg::AtpgOutcome& o = rep.outcome;
    const fault::FaultList::Counts c = rep.list.counts();
    if (!o.run.ok()) reject(run, r, d, "campaign did not complete");
    if (!v.outcome.ok()) reject(run, r, d, "validation did not complete");
    if (o.invalid_tests != 0)
        reject(run, r, d, std::to_string(o.invalid_tests) + " invalid tests");
    // Independent validation may detect more than the campaign credited
    // (it simulates every test against every fault), never fewer.
    if (v.total != c.total || v.detected < c.detected)
        reject(run, r, d, "validation detected " + std::to_string(v.detected) +
                              " < campaign " + std::to_string(c.detected));
    r.digest = api::campaign_digest(rep);
    if (bases == nullptr) return;

    bases->faults += static_cast<double>(c.total);
    bases->validated += static_cast<double>(v.detected);
    bases->credited += static_cast<double>(
        c.detected - std::min(c.detected, o.detected_by_warmup + o.detected_by_bootstrap));
    bases->fault_frames += static_cast<double>(c.total * o.pattern_frames);
    Metrics& m = run.layer;
    m.add("pattern_frames", static_cast<double>(o.pattern_frames));
    m.add("atpg.gen_calls", static_cast<double>(o.gen_calls));
    m.add("atpg.backtracks", static_cast<double>(o.total_backtracks));
    m.add("atpg.aborted", static_cast<double>(c.aborted));
    m.add("atpg.invalid_tests", static_cast<double>(o.invalid_tests));
    m.add("atpg.untestable_by_tie", static_cast<double>(o.untestable_by_tie));
    m.add("atpg.untestable_by_proof", static_cast<double>(o.untestable_by_proof));
    m.add("cnf.sat_targeted", static_cast<double>(o.sat_targeted));
    m.add("cnf.witnesses", static_cast<double>(o.sat_witnesses));
    m.add("cnf.untestable_bounded", static_cast<double>(o.untestable_by_cnf));
    m.add("guide.warmup_dropped", static_cast<double>(o.detected_by_warmup));
    m.add("guide.warmup_kept", static_cast<double>(o.warmup_sequences));
    m.add("guide.compaction_before", static_cast<double>(o.compaction_before));
    m.add("guide.compaction_after", static_cast<double>(o.compaction_after));
}

/// Ratios and per-call timings of the ATPG flows. Rates divide the mean
/// work per circuit by the mean traced call time.
void report_campaigns(Run& run, const Suite& suite, const Bases& b) {
    Metrics& m = run.layer;
    m.set("fault_coverage", b.validated / b.faults, "ratio");
    const double gen_calls = m.find("atpg.gen_calls")->value;
    m.set("atpg.gen_yield", gen_calls > 0 ? b.credited / gen_calls : 0.0, "ratio");
    if (!run.trace) return;
    const double campaign_s = mean_span(run, "atpg.campaign");
    const double validate_s = mean_span(run, "fault.validate");
    m.set("atpg.campaign_s", campaign_s, "s");
    m.set("fault.validate_s", validate_s, "s");
    m.set("fault.fault_frames_per_s", b.fault_frames / suite.size() / validate_s, "1/s");
    m.set("cnf.proofs_per_s", m.find("cnf.sat_targeted")->value / suite.size() / campaign_s,
          "1/s");
}

/// Learn-stage checks and counters shared by flow_retimed and
/// learn_industrial; returns the relation hash.
std::uint64_t check_learn(Run& run, const api::Design& d, const core::LearnResult& res,
                          Rep& r, Bases* bases) {
    if (!res.outcome.ok()) reject(run, r, d, "learning did not complete");
    if (bases != nullptr) {
        const core::LearnStats& s = res.stats;
        Metrics& m = run.layer;
        m.add("learned_relations", static_cast<double>(res.db.size()));
        m.add("learned_ties", static_cast<double>(res.ties.count()));
        m.add("core.ties", static_cast<double>(res.ties.count()));
        m.add("core.stems_processed", static_cast<double>(s.stems_processed));
        m.add("core.ff_ff_relations", static_cast<double>(s.ff_ff_relations));
        m.add("core.multi_relations", static_cast<double>(s.multi_relations));
        m.add("cnf.sat_probes", static_cast<double>(s.sat_probes));
        m.add("cnf.sat_relations", static_cast<double>(s.sat_relations));
    }
    return core::relation_hash(res.db);
}

void report_learning(Run& run, const Suite& suite) {
    if (!run.trace) return;
    const double learn_s = mean_span(run, "core.learn");
    run.layer.set("core.learn_s", learn_s, "s");
    run.layer.set("core.stems_per_s",
                  run.layer.find("core.stems_processed")->value / suite.size() / learn_s, "1/s");
}

std::size_t suite_size(const Run& run, std::size_t full) {
    return run.scale == Scale::Tiny ? 4 : full;
}

}  // namespace

void run_flow_guided(Run& run) {
    // ISCAS-like generator circuits (workload::iscas_like); the suite size
    // and circuit size are set so one pass takes a few seconds.
    Suite suite = make_suite(suite_size(run, 160), [&](std::size_t i) {
        return workload::generate(workload::iscas_like(
            "flow_guided_" + std::to_string(i), 12, 80, mix_seed(run.seed, 100 + i)));
    });

    // The guided recipe: SCOAP guidance, a 128-sequence random warmup,
    // compaction with random fill, frame-sim backend, backtrack limit 12,
    // windows {1, 2}, no learned data.
    atpg::AtpgConfig cfg;
    cfg.threads = 1;
    cfg.mode = atpg::LearnMode::None;
    cfg.identify_untestable = false;
    cfg.backtrack_limit = 12;
    cfg.windows = {1, 2};
    cfg.backend = cnf::Backend::FrameSim;
    cfg.guidance = guide::Guidance::Scoap;
    cfg.rand_warmup = 128;
    cfg.compact = true;
    cfg.fill = guide::FillMode::Random;

    Bases bases;
    measure(run, suite, bases, [&](std::uint64_t op, const api::DesignPtr& d, Bases* b) {
        Rep r;
        api::Session session(d, one_thread());
        const api::AtpgReport* rep;
        {
            Scope s(run.tracer, "atpg.campaign", op);
            rep = &session.atpg(cfg);
        }
        api::FaultSimReport v;
        {
            Scope s(run.tracer, "fault.validate", op);
            v = session.fault_sim();
        }
        check_campaign(run, *d, *rep, v, r, b);
        return r;
    });
    report_campaigns(run, suite, bases);
}

void run_flow_retimed(Run& run) {
    // The rt510a/rt832 recipe, scaled down: an FSM-flavoured base circuit
    // with dense state feedback, forward-retimed so the moved registers
    // encode correlated state (low density of encoding, invalid states).
    Suite suite = make_suite(suite_size(run, 160), [&](std::size_t i) {
        workload::GenParams p;
        p.name = "flow_retimed_" + std::to_string(i);
        p.seed = mix_seed(run.seed, 100 + i);
        p.n_inputs = 5;
        p.n_outputs = 6;
        p.n_ffs = 8;
        p.n_gates = 50;
        p.locality = 0.8;
        p.shadow_ff_fraction = 0.0;
        p.xor_fraction = 0.05;
        return workload::forward_retime(workload::generate(p), 8, mix_seed(run.seed, 10000 + i));
    });

    // Learned data drives the campaign (ForbiddenValue mode); ties prove
    // faults untestable before SAT; the auto router sends the rest to the
    // CNF backend, bounded at K = 2 frames.
    atpg::AtpgConfig cfg;
    cfg.threads = 1;
    cfg.mode = atpg::LearnMode::ForbiddenValue;
    cfg.identify_untestable = true;
    cfg.backend = cnf::Backend::Auto;
    cfg.sat_frames = 2;

    Bases bases;
    measure(run, suite, bases, [&](std::uint64_t op, const api::DesignPtr& d, Bases* b) {
        Rep r;
        api::Session session(d, one_thread());
        const core::LearnResult* learned;
        {
            Scope s(run.tracer, "core.learn", op);
            learned = &session.learn(learn_config());
        }
        const std::uint64_t rel = check_learn(run, *d, *learned, r, b);
        const api::AtpgReport* rep;
        {
            Scope s(run.tracer, "atpg.campaign", op);
            rep = &session.atpg(cfg);
        }
        api::FaultSimReport v;
        {
            Scope s(run.tracer, "fault.validate", op);
            v = session.fault_sim();
        }
        check_campaign(run, *d, *rep, v, r, b);
        r.digest ^= rel * 0x9e3779b97f4a7c15ULL;
        return r;
    });
    report_campaigns(run, suite, bases);
    report_learning(run, suite);
}

void run_learn_industrial(Run& run) {
    // The ind20k recipe, scaled down: ISCAS-like logic over three clock
    // domains, 5% latches, 10% of the flip-flops with an unconstrained set
    // or reset line.
    Suite suite = make_suite(suite_size(run, 240), [&](std::size_t i) {
        workload::GenParams p = workload::iscas_like("learn_industrial_" + std::to_string(i),
                                                     24, 300, mix_seed(run.seed, 100 + i));
        p.clock_domains = 3;
        p.latch_fraction = 0.05;
        p.sr_fraction = 0.10;
        return workload::generate(p);
    });

    Bases bases;
    measure(run, suite, bases, [&](std::uint64_t op, const api::DesignPtr& d, Bases* b) {
        Rep r;
        api::Session session(d, one_thread());
        const core::LearnResult* learned;
        {
            Scope s(run.tracer, "core.learn", op);
            learned = &session.learn(learn_config());
        }
        r.digest = check_learn(run, *d, *learned, r, b);

        std::ostringstream out(std::ios::binary);
        {
            Scope s(run.tracer, "core.snapshot_save", op);
            session.save_db_binary(out);
        }
        std::string blob = std::move(out).str();
        if (b != nullptr) run.layer.add("core.snapshot_bytes", static_cast<double>(blob.size()));
        if (run.inject == Inject::TamperSnapshot && op == 2) {
            // Flip a bit in the first edge record's frame field (offset 48
            // is the first adjacency list: lhs key, count, target, frame).
            blob.at(60) = static_cast<char>(blob.at(60) ^ 0x01);
        }

        // Reload into a fresh Design over a copy of the same netlist.
        try {
            std::unique_ptr<api::DesignBuilder> builder;
            {
                Scope s(run.tracer, "api.netlist_copy", op);
                builder = std::make_unique<api::DesignBuilder>(netlist::Netlist(d->netlist()));
            }
            {
                Scope s(run.tracer, "core.snapshot_load", op);
                std::istringstream in(blob, std::ios::binary);
                builder->load_db(in);
            }
            api::DesignPtr fresh;
            {
                Scope s(run.tracer, "api.build", op);
                fresh = builder->build();
            }
            const core::LearnedSnapshot* snap = fresh->learned();
            if (snap == nullptr || core::relation_hash(snap->db()) != r.digest ||
                snap->ties().count() != learned->ties.count())
                reject(run, r, *d, "reloaded snapshot differs from the learned data");
        } catch (const std::exception& e) {
            reject(run, r, *d, std::string("snapshot reload failed: ") + e.what());
        }
        return r;
    });
    report_learning(run, suite);
    if (run.trace) {
        run.layer.set("core.snapshot_save_s", mean_span(run, "core.snapshot_save"), "s");
        run.layer.set("core.snapshot_load_s", mean_span(run, "core.snapshot_load"), "s");
    }
}

}  // namespace seqbench
