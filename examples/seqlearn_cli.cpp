// seqlearn_cli — drive the library from the command line on .bench files.
//
//   seqlearn_cli stats  <circuit.bench | suite:NAME> [--json]
//   seqlearn_cli learn  <circuit.bench | suite:NAME> [knobs] [--checkpoint FILE]
//                       [--resume FILE] [--save-db FILE] [--db-format text|binary]
//                       [--progress] [--json]
//   seqlearn_cli atpg   <circuit.bench | suite:NAME> [knobs] [--load-db FILE]
//                       [--save-db FILE] [--db-format text|binary] [--progress]
//                       [--json]
//   seqlearn_cli gen    <out.bench | -> [--gates N] [--ffs N] [--inputs N]
//                       [--outputs N] [--seed N] [--name NAME]
//   seqlearn_cli serve  [--port N] [--max-sessions N] [--cache-mb N]
//                       [--threads N] [--drain-ms N] [--max-frame-mb N]
//                       [--max-conns N] [--idle-timeout-ms N]
//                       [--write-timeout-ms N] [--store DIR] [--store-mb N]
//                       [--chaos SITE:NTH]
//
// The knobs of learn and atpg are the rows of the option table in
// src/server/options.cpp (README "Options"): each flag is "--" + the
// daemon's request key with '_' spelled '-'. Every argument is checked
// before a circuit is loaded, and a malformed one is a usage error with the
// daemon's message for the same key. Removed flags say what replaced them.
//
// "suite:NAME" loads a built-in experiment circuit (e.g. suite:rt510a);
// anything else is parsed as an ISCAS-89 .bench file by the streaming
// reader, with every parse warning reported on stderr. --save-db writes the
// learned data as "text" (archival, name-keyed) or "binary" (fast-loading,
// digest-bound); --load-db sniffs either. --checkpoint saves a
// budget-stopped learn for --resume. --json prints one JSON object:
// Session::stats(), the parse diagnostics, each stage's "outcome" and, for
// atpg, the pattern shape, the strategy provenance and, with a SAT backend,
// every proved fault. serve runs the daemon of README "Serving" and prints
// {"serving": {"port": N, ...}} once listening.
//
// Exit codes, one per failure class (scripts branch on them):
//   0  success (stage ran to completion)
//   2  usage error (bad command line)
//   3  input parse errors (all reported, line-numbered, before exiting)
//   4  budget exhausted (deadline / item limit / memory cap; partial
//      results were produced and saved where requested)
//   5  stage cancelled
//   6  internal failure (captured exception; state was not corrupted)

#include "api/session.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/structure.hpp"
#include "server/json.hpp"
#include "server/options.hpp"
#include "server/server.hpp"
#include "workload/circuit_gen.hpp"
#include "workload/suite.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace seqlearn;
using server::diagnostics_json;
using server::JsonValue;
using server::json_escape;
using server::outcome_json;

// --- arguments --------------------------------------------------------------

constexpr std::string_view kDbFormats[] = {"text", "binary"};

/// Each command's own flags; every other flag must be a knob of the stage it
/// runs. Removed flags stay listed to say what replaced them.
std::vector<server::Option> flags_of(std::string_view cmd) {
    using enum server::OptionType;
    using server::kMaxMillis;
    const auto count = [](std::string_view key, std::int64_t min, std::int64_t max) {
        return server::Option{.key = key, .type = Integer, .min = min, .max = max};
    };
    const server::Option json{.key = "json", .type = Switch};
    const server::Option progress{.key = "progress", .type = Switch};
    const server::Option db_format{.key = "db_format", .type = Enum, .spellings = kDbFormats};
    std::vector<server::Option> flags;
    if (cmd == "stats")
        flags = {json};
    else if (cmd == "learn")
        flags = {json, progress, {.key = "save_db"}, db_format, {.key = "checkpoint"},
                 {.key = "resume"}};
    else if (cmd == "atpg")
        flags = {json, progress, {.key = "save_db"}, db_format, {.key = "load_db"}};
    else if (cmd == "gen")
        flags = {{.key = "name"}, count("gates", 1, 100000000), count("ffs", 0, 10000000),
                 count("inputs", 1, 1000000), count("outputs", 0, 1000000),
                 count("seed", 0, server::kMaxCount)};
    else
        flags = {count("port", 0, 65535), count("max_sessions", 1, 4096),
                 count("cache_mb", 0, 1 << 30), count("threads", 0, server::kMaxThreads),
                 count("drain_ms", 0, kMaxMillis), count("max_frame_mb", 1, 4096),
                 count("max_conns", 0, 1 << 20), count("idle_timeout_ms", 0, kMaxMillis),
                 count("write_timeout_ms", 0, kMaxMillis), {.key = "chaos"}, {.key = "store"},
                 count("store_mb", 0, 1 << 30)};
    for (const auto& [key, hint] : {std::pair<std::string_view, std::string_view>{
                                        "out", "--out was removed; use --save-db FILE"},
                                    {"learned", "--learned was removed; use --load-db FILE"},
                                    {"batch_lanes", "learning always runs 64-lane batches"},
                                    {"random", "--random was removed; use --rand-warmup N"}})
        flags.push_back({.key = key, .type = Removed, .hint = hint});
    return flags;
}

/// What the command line gave: its own flags, and the run configuration.
struct Args {
    JsonValue flags;
    api::SessionConfig run;
};

const std::string* text_flag(const Args& args, std::string_view key) {
    const JsonValue* v = args.flags.get(key);
    return v != nullptr ? &v->as_string() : nullptr;
}

/// An Integer flag (checked against its range) into a numeric field; `shift`
/// scales MiB flags to bytes.
template <class T>
void take(const Args& args, std::string_view key, T& field, int shift = 0) {
    if (const JsonValue* v = args.flags.get(key))
        field = static_cast<T>(static_cast<std::int64_t>(v->as_number()) << shift);
}

const char* proof_name(fault::UntestableProof p) {
    switch (p) {
        case fault::UntestableProof::None: return "none";
        case fault::UntestableProof::TieGate: return "tie";
        case fault::UntestableProof::Combinational: return "combinational";
        case fault::UntestableProof::Structural: return "structural";
        case fault::UntestableProof::BoundedCnf: return "bounded_cnf";
    }
    return "?";
}

/// One JSON document: stats() for everything computed so far plus the parse
/// diagnostics — the machine-readable twin of the human reports below. An
/// atpg run passes its `report` and `cfg`: the strategy provenance (which
/// ordering / guidance / warmup / fill produced the patterns), the warmup
/// counters and, when the campaign used the CNF backend, the "untestable"
/// section with one entry per proved fault.
void print_json(api::Session& session, const netlist::Diagnostics& diags,
                const api::AtpgReport* report = nullptr,
                const atpg::AtpgConfig* cfg = nullptr) {
    const api::SessionStats s = session.stats();
    std::string out = "{\n";
    out += "  \"circuit\": \"" + json_escape(session.netlist().name()) + "\",\n";
    out += "  \"diagnostics\": " + diagnostics_json(diags) + ",\n";
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  \"inputs\": %zu, \"outputs\": %zu, \"flip_flops\": %zu, "
                  "\"latches\": %zu, \"gates\": %zu,\n"
                  "  \"stems\": %zu, \"levels\": %zu, \"clock_classes\": %zu, "
                  "\"collapsed_faults\": %zu,\n",
                  s.circuit.inputs, s.circuit.outputs, s.circuit.flip_flops,
                  s.circuit.latches, s.circuit.combinational, s.stems, s.levels,
                  s.clock_classes, s.collapsed_faults);
    out += buf;
    out += std::string("  \"learned\": ") + (s.learned ? "true" : "false");
    if (s.learned) {
        std::snprintf(buf, sizeof buf,
                      ",\n  \"learn\": {\"relations\": %zu, \"ties\": %zu, "
                      "\"ff_ff_relations\": %zu, \"gate_ff_relations\": %zu, "
                      "\"comb_relations\": %zu, \"equiv_classes\": %zu, "
                      "\"multi_relations\": %zu, \"stems_processed\": %zu, "
                      "\"sat_probes\": %zu, \"sat_ties\": %zu, \"sat_relations\": %zu, "
                      "\"cancelled\": %s, \"cpu_seconds\": %.3f}",
                      s.relations, s.ties, s.learn.ff_ff_relations,
                      s.learn.gate_ff_relations, s.learn.comb_relations,
                      s.learn.equiv_classes, s.learn.multi_relations,
                      s.learn.stems_processed, s.learn.sat_probes, s.learn.sat_ties,
                      s.learn.sat_relations, s.learn_outcome.ok() ? "false" : "true",
                      s.learn.cpu_seconds);
        out += buf;
        // Trim the closing brace and append the structured outcome.
        out.pop_back();
        out += ", \"outcome\": " + outcome_json(s.learn_outcome) + "}";
    }
    if (s.atpg_run) {
        std::snprintf(buf, sizeof buf,
                      ",\n  \"atpg\": {\"total\": %zu, \"detected\": %zu, "
                      "\"untestable\": %zu, \"aborted\": %zu, \"undetected\": %zu, "
                      "\"test_coverage\": %.4f, \"tests\": %zu}",
                      s.faults.total, s.faults.detected, s.faults.untestable,
                      s.faults.aborted, s.faults.undetected, s.test_coverage, s.tests);
        out += buf;
        out.pop_back();
        {
            // Pattern shape: count mirrors "tests"; compaction_ratio is
            // patterns-out / patterns-in (1.0 when compaction never ran).
            const double ratio =
                s.compaction_before > 0 ? static_cast<double>(s.compaction_after) /
                                              static_cast<double>(s.compaction_before)
                                        : 1.0;
            std::snprintf(buf, sizeof buf,
                          ", \"patterns\": {\"count\": %zu, \"total_frames\": %zu, "
                          "\"compaction_before\": %zu, \"compaction_after\": %zu, "
                          "\"compaction_ratio\": %.4f}",
                          s.tests, s.pattern_frames, s.compaction_before,
                          s.compaction_after, ratio);
            out += buf;
        }
        if (report != nullptr && cfg != nullptr) {
            std::snprintf(buf, sizeof buf,
                          ", \"order\": \"%s\", \"guidance\": \"%s\", \"fill\": \"%s\", "
                          "\"compact\": %s, \"rand_warmup\": %zu, \"warmup_detected\": %zu, "
                          "\"warmup_sequences\": %zu",
                          std::string(guide::order_name(cfg->order)).c_str(),
                          std::string(guide::guidance_name(cfg->guidance)).c_str(),
                          std::string(guide::fill_name(cfg->fill)).c_str(),
                          cfg->compact ? "true" : "false", cfg->rand_warmup,
                          report->outcome.detected_by_warmup,
                          report->outcome.warmup_sequences);
            out += buf;
        }
        if (report != nullptr && cfg != nullptr && cfg->backend != cnf::Backend::FrameSim) {
            const atpg::AtpgOutcome& o = report->outcome;
            std::snprintf(buf, sizeof buf,
                          ", \"sat_targeted\": %zu, \"sat_witnesses\": %zu, "
                          "\"untestable_by_cnf\": %zu",
                          o.sat_targeted, o.sat_witnesses, o.untestable_by_cnf);
            out += buf;
            out += ", \"untestable\": [";
            bool first = true;
            for (const atpg::AtpgOutcome::UntestableRecord& rec : o.untestable_records) {
                if (!first) out += ", ";
                first = false;
                out += "{\"fault\": \"" +
                       json_escape(fault::to_string(session.netlist(),
                                                    report->list.fault(rec.fault_index))) +
                       "\", \"proof\": \"";
                out += proof_name(rec.proof);
                out += "\", \"frames\": " + std::to_string(rec.frames) + "}";
            }
            out += "]";
        }
        out += ", \"outcome\": " + outcome_json(s.atpg_outcome) + "}";
    }
    std::snprintf(buf, sizeof buf,
                  ",\n  \"memory\": {\"netlist_bytes\": %zu, \"topology_bytes\": %zu, "
                  "\"faults_bytes\": %zu, \"design_learned_bytes\": %zu, "
                  "\"learned_bytes\": %zu, \"scratch_bytes\": %zu, \"total_bytes\": %zu}",
                  s.memory.design.netlist_bytes, s.memory.design.topology_bytes,
                  s.memory.design.faults_bytes, s.memory.design.learned_bytes,
                  s.memory.learned_bytes, s.memory.scratch_bytes, s.memory.total());
    out += buf;
    out += "\n}\n";
    std::fputs(out.c_str(), stdout);
}

// --- circuit loading ------------------------------------------------------

struct LoadedCircuit {
    api::DesignPtr design;  ///< null when parsing failed
    netlist::Diagnostics diagnostics;
    std::string source;  ///< what to prefix diagnostics with
};

LoadedCircuit load_circuit(const std::string& spec) {
    LoadedCircuit out;
    out.source = spec;
    if (spec.rfind("suite:", 0) == 0) {
        out.design = api::DesignBuilder(workload::suite_circuit(spec.substr(6))).build();
        return out;
    }
    api::DesignLoad load = api::load_design(spec);
    out.diagnostics = std::move(load.diagnostics);
    out.design = std::move(load.design);
    return out;
}

// --- commands -------------------------------------------------------------

int cmd_stats(api::Session& session, const netlist::Diagnostics& diags, bool json) {
    if (json) {
        print_json(session, diags);
        return 0;
    }
    const api::SessionStats s = session.stats();
    std::printf("circuit:      %s\n", session.netlist().name().c_str());
    std::printf("inputs:       %zu\n", s.circuit.inputs);
    std::printf("outputs:      %zu\n", s.circuit.outputs);
    std::printf("flip-flops:   %zu\n", s.circuit.flip_flops);
    std::printf("latches:      %zu\n", s.circuit.latches);
    std::printf("gates:        %zu\n", s.circuit.combinational);
    std::printf("fanout stems: %zu\n", s.stems);
    std::printf("levels:       %zu\n", s.levels);
    std::printf("clock classes:%zu\n", s.clock_classes);
    std::printf("seq depth:    %zu (capped at 16)\n",
                netlist::sequential_depth(session.topology(), 16));
    std::printf("faults:       %zu collapsed / %zu total\n", s.collapsed_faults,
                session.collapsed_faults().universe_size());
    return 0;
}

// --save-db honours --db-format {text|binary}: text (default) is the
// archival name-keyed format, binary the fast-loading id-keyed one (bound to
// this exact netlist by digest). Loading sniffs the format automatically.
void save_db(api::Session& session, const Args& args, bool json) {
    const std::string* path = text_flag(args, "save_db");
    if (path == nullptr) return;
    const std::string format = args.flags.get_string("db_format", std::string(kDbFormats[0]));
    if (format == kDbFormats[1]) session.save_db_binary(*path);
    else session.save_db(*path);
    if (!json) std::printf("saved learned data to %s (%s)\n", path->c_str(), format.c_str());
}

int cmd_learn(api::Session& session, const netlist::Diagnostics& diags,
              const Args& args, bool json) {
    const core::LearnResult& r = [&]() -> const core::LearnResult& {
        if (const std::string* resume = text_flag(args, "resume"))
            return session.resume_learn(*resume);
        return session.learn(args.run.learn);
    }();
    if (json) {
        print_json(session, diags);
    } else {
        std::printf("learned in %.3f s over %zu stems%s:\n", r.stats.cpu_seconds,
                    r.stats.stems_processed,
                    r.outcome.ok() ? ""
                                   : (" (stopped: " + std::string(r.outcome.name()) +
                                      (r.outcome.diagnostic.empty()
                                           ? ""
                                           : ", " + r.outcome.diagnostic) +
                                      ")")
                                         .c_str());
        std::printf("  FF-FF relations:   %zu\n", r.stats.ff_ff_relations);
        std::printf("  Gate-FF relations: %zu\n", r.stats.gate_ff_relations);
        std::printf("  combinational:     %zu\n", r.stats.comb_relations);
        std::printf("  tie gates:         %zu (%zu comb, %zu seq)\n", r.ties.count(),
                    r.stats.ties_combinational, r.stats.ties_sequential);
        std::printf("  equivalence classes: %zu\n", r.stats.equiv_classes);
        if (r.stats.sat_probes > 0)
            std::printf("  SAT learn:         %zu probes, %zu ties, %zu relations\n",
                        r.stats.sat_probes, r.stats.sat_ties, r.stats.sat_relations);
    }
    if (const std::string* ckpt = text_flag(args, "checkpoint")) {
        if (r.cursor.valid) {
            session.save_checkpoint(*ckpt);
            if (!json) std::printf("saved resume checkpoint to %s\n", ckpt->c_str());
        } else if (!r.outcome.ok() && !json) {
            std::printf("no checkpoint saved: stop point not resumable (%s)\n",
                        r.outcome.name());
        }
    }
    save_db(session, args, json);
    return static_cast<int>(server::code_for(r.outcome));
}

int cmd_atpg(api::Session& session, const netlist::Diagnostics& diags,
             const Args& args, bool json) {
    const atpg::AtpgConfig& cfg = args.run.atpg;
    if (cfg.mode != atpg::LearnMode::None) {
        if (const std::string* path = text_flag(args, "load_db")) {
            const std::size_t skipped = session.load_db(*path);
            if (!json)
                std::printf("loaded learned data (%zu relations, %zu ties, %zu skipped)\n",
                            session.learn().db.size(), session.learn().ties.count(),
                            skipped);
        } else if (!json) {
            const core::LearnResult& learned = session.learn();
            std::printf("learned on the fly: %zu relations, %zu ties\n",
                        learned.db.size(), learned.ties.count());
        }
    }

    const api::AtpgReport& report = session.atpg(cfg);
    save_db(session, args, json);
    const int rc = static_cast<int>(server::code_for(report.outcome.run));
    if (json) {
        print_json(session, diags, &report, &cfg);
        return rc;
    }
    const auto c = report.list.counts();
    std::printf("mode=%s backend=%s backtracks=%u\n",
                std::string(atpg::learn_mode_name(cfg.mode)).c_str(),
                std::string(cnf::backend_name(cfg.backend)).c_str(), cfg.backtrack_limit);
    std::printf("  detected:   %zu (of %zu)\n", c.detected, c.total);
    std::printf("  untestable: %zu\n", c.untestable);
    std::printf("  aborted:    %zu\n", c.aborted);
    std::printf("  coverage:   %.2f%% fault, %.2f%% test\n",
                100.0 * report.list.fault_coverage(),
                100.0 * report.list.test_coverage());
    std::printf("  sequences:  %zu (bootstrap detected %zu)\n",
                report.outcome.tests.size(), report.outcome.detected_by_bootstrap);
    std::printf("  patterns:   %zu (%zu frames)\n", report.outcome.tests.size(),
                report.outcome.pattern_frames);
    if (cfg.rand_warmup > 0)
        std::printf("  warmup:     %zu sequences kept, %zu faults dropped\n",
                    report.outcome.warmup_sequences, report.outcome.detected_by_warmup);
    if (report.outcome.compaction_before > 0)
        std::printf("  compaction: %zu -> %zu patterns (fill=%s)\n",
                    report.outcome.compaction_before, report.outcome.compaction_after,
                    std::string(guide::fill_name(cfg.fill)).c_str());
    if (cfg.order != guide::OrderStrategy::Index ||
        cfg.guidance != guide::Guidance::None)
        std::printf("  strategy:   order=%s guidance=%s\n",
                    std::string(guide::order_name(cfg.order)).c_str(),
                    std::string(guide::guidance_name(cfg.guidance)).c_str());
    if (report.outcome.sat_targeted > 0)
        std::printf("  sat:        %zu targeted, %zu witnesses, %zu untestable\n",
                    report.outcome.sat_targeted, report.outcome.sat_witnesses,
                    report.outcome.untestable_by_cnf);
    std::printf("  cpu:        %.2f s\n", report.outcome.cpu_seconds);
    if (!report.outcome.run.ok())
        std::printf("  stopped:    %s%s%s\n", report.outcome.run.name(),
                    report.outcome.run.diagnostic.empty() ? "" : " — ",
                    report.outcome.run.diagnostic.c_str());
    return rc;
}

int cmd_gen(const std::string& out_path, const Args& args) {
    workload::GenParams p;
    if (const std::string* name = text_flag(args, "name")) p.name = *name;
    take(args, "gates", p.n_gates);
    take(args, "ffs", p.n_ffs);
    take(args, "inputs", p.n_inputs);
    take(args, "outputs", p.n_outputs);
    take(args, "seed", p.seed);
    const netlist::Netlist nl = workload::generate(p);
    if (out_path == "-") {
        netlist::write_bench(std::cout, nl);
    } else {
        std::ofstream out(out_path);
        if (!out) throw std::runtime_error("cannot write " + out_path);
        netlist::write_bench(out, nl);
    }
    std::fprintf(stderr, "generated %s: %zu gates (%zu comb, %zu FFs, %zu inputs)\n",
                 nl.name().c_str(), nl.size(), nl.counts().combinational,
                 nl.counts().flip_flops, nl.counts().inputs);
    return 0;
}

// --- serve ----------------------------------------------------------------

// Signal flag for graceful shutdown; sig_atomic_t is the only type a
// handler may touch portably.
volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void handle_stop_signal(int) { g_stop_signal = 1; }

int cmd_serve(const Args& args) {
    server::ServerConfig cfg;
    take(args, "port", cfg.port);
    take(args, "max_sessions", cfg.service.max_sessions);
    take(args, "threads", cfg.service.threads);
    take(args, "drain_ms", cfg.drain_deadline);
    take(args, "max_conns", cfg.max_conns);
    take(args, "idle_timeout_ms", cfg.idle_timeout);
    take(args, "write_timeout_ms", cfg.write_timeout);
    take(args, "cache_mb", cfg.service.cache.max_bytes, 20);
    take(args, "max_frame_mb", cfg.max_frame_bytes, 20);

    // Deterministic chaos: arm one failure site for the whole process
    // (CI's crash-recovery smoke runs `--chaos fs_rename:1` and kills the
    // daemon mid-save).
    exec::FailurePoint chaos;
    if (const std::string* spec = text_flag(args, "chaos")) {
        if (!exec::arm_from_spec(chaos, *spec)) {
            std::fprintf(stderr, "error: chaos: bad spec \"%s\" (site:nth, e.g. "
                                 "fs_rename:1)\n", spec->c_str());
            return 2;
        }
        cfg.failpoint = &chaos;
    }

    // Durable snapshot store: open (recovery scan + quarantine) before the
    // listener, so a request arriving first thing sees the warm index.
    if (const std::string* dir = text_flag(args, "store")) {
        server::SnapshotStoreConfig store_cfg;
        store_cfg.dir = *dir;
        take(args, "store_mb", store_cfg.max_bytes, 20);
        store_cfg.failpoint = cfg.failpoint;
        std::string store_error;
        cfg.service.store =
            server::SnapshotStore::open(std::move(store_cfg), &store_error);
        if (!cfg.service.store) {
            std::fprintf(stderr, "error: %s\n", store_error.c_str());
            return 6;
        }
        const server::SnapshotStoreStats ss = cfg.service.store->stats();
        std::fprintf(stderr,
                     "snapshot store %s: %zu entries (%zu bytes), %zu quarantined\n",
                     dir->c_str(), ss.entries, ss.bytes, ss.quarantined);
    }

    server::Server srv(cfg);
    std::string error;
    if (!srv.start(&error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 6;
    }
    // Machine-readable startup line on stdout (scripts poll for it to learn
    // the ephemeral port); human log on stderr.
    std::printf("{\"serving\": {\"port\": %u, \"max_sessions\": %zu, "
                "\"cache_max_bytes\": %zu}}\n",
                static_cast<unsigned>(srv.port()), cfg.service.max_sessions,
                cfg.service.cache.max_bytes);
    std::fflush(stdout);
    std::fprintf(stderr, "seqlearn serving on 127.0.0.1:%u (SIGINT/SIGTERM to stop)\n",
                 static_cast<unsigned>(srv.port()));

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    while (g_stop_signal == 0 && !srv.service().shutdown_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::fprintf(stderr, "seqlearn server draining (%s)\n",
                 g_stop_signal != 0 ? "signal" : "shutdown request");
    srv.stop();  // drain under the deadline; in-flight requests get
                 // Cancelled outcomes and their responses are written
    std::fprintf(stderr, "seqlearn server stopped\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string_view cmd = argc >= 2 ? argv[1] : "";
    const std::optional<api::Stage> stage = cmd == "learn" ? std::optional(api::Stage::Learn)
                                            : cmd == "atpg" ? std::optional(api::Stage::Atpg)
                                                            : std::nullopt;
    // serve takes no positional argument; the others take one file.
    const int first = cmd == "serve" ? 2 : 3;
    if ((!stage && cmd != "stats" && cmd != "gen" && cmd != "serve") || argc < first) {
        std::fprintf(stderr,
                     "usage: %s stats|learn|atpg|gen <circuit.bench|suite:NAME|out.bench>"
                     " [options]\n       %s serve [--port N] [options]\n",
                     argv[0], argv[0]);
        return 2;
    }
    Args args;
    const std::string usage =
        server::parse_args(std::span<char* const>(argv + first, argv + argc), cmd, stage,
                           flags_of(cmd), args.flags, args.run);
    if (!usage.empty()) {
        std::fprintf(stderr, "error: %s\n", usage.c_str());
        return 2;
    }
    const bool json = args.flags.get_bool("json");
    try {
        if (cmd == "serve") return cmd_serve(args);
        if (cmd == "gen") return cmd_gen(argv[2], args);

        LoadedCircuit loaded = load_circuit(argv[2]);
        // Report every parse diagnostic on stderr (warnings included — they
        // used to be dropped); --json carries them in the output object too.
        if (!loaded.diagnostics.empty())
            std::fputs(loaded.diagnostics.to_string(loaded.source).c_str(), stderr);
        if (!loaded.design) {
            std::fprintf(stderr, "error: %s failed to parse (%zu errors)\n",
                         loaded.source.c_str(), loaded.diagnostics.error_count());
            if (json)
                std::printf("{\"error\": {\"class\": \"parse\", \"errors\": %zu}}\n",
                            loaded.diagnostics.error_count());
            return 3;
        }

        api::SessionConfig scfg = args.run;
        const bool progress = args.flags.get_bool("progress");
        if (progress) {
            // One \r-rewritten line per stage; the line is terminated on a
            // stage change and once more when the command finishes (no
            // stage knows up front how many of its units will be skipped).
            scfg.progress = [last = std::optional<api::Stage>()](
                                const api::Progress& p) mutable {
                const char* stage = p.stage == api::Stage::Learn     ? "learn"
                                    : p.stage == api::Stage::Atpg    ? "atpg"
                                                                     : "fault-sim";
                if (last && *last != p.stage) std::fprintf(stderr, "\n");
                last = p.stage;
                std::fprintf(stderr, "\r%-9s %zu/%zu", stage, p.done, p.total);
                return true;  // observation only; never cancels
            };
        }
        api::Session session(loaded.design, std::move(scfg));
        const int rc = cmd == "stats"   ? cmd_stats(session, loaded.diagnostics, json)
                       : cmd == "learn" ? cmd_learn(session, loaded.diagnostics, args, json)
                                        : cmd_atpg(session, loaded.diagnostics, args, json);
        if (progress) std::fprintf(stderr, "\n");
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        if (json)
            std::printf("{\"error\": {\"class\": \"internal\", \"message\": \"%s\"}}\n",
                        json_escape(e.what()).c_str());
        return 6;
    }
}
