// seqbench: runs one workload for one seed and prints its metrics.
//
//   seqbench --workload NAME --seed N --seconds S --trace 0|1
//            [--scale full|tiny] [--tmp DIR] [--trace-out FILE]
//            [--inject none|tamper_snapshot|corrupt_reply]
//
// Output: one `{"report": ...}` line with every metric measured (plus the
// seed, nproc and build type), then, as the last line, the result object
// `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).

#include "bench.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#ifndef SEQBENCH_BUILD_TYPE
#define SEQBENCH_BUILD_TYPE "unknown"
#endif

namespace seqbench {
namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (selftest.py checks both lists and units).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"flow_s", "s"},          {"peak_rss_mb", "MiB"},
    {"ok_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"netlist.parse_s", "s"},
    {"netlist.gates", "count"},
    {"netlist.self_s", "s"},
    {"api.build_s", "s"},
    {"api.design_bytes", "bytes"},
    {"api.self_s", "s"},
    {"core.learn_s", "s"},
    {"core.stems_processed", "count"},
    {"core.stems_per_s", "1/s"},
    {"core.ff_ff_relations", "count"},
    {"core.multi_relations", "count"},
    {"core.ties", "count"},
    {"core.snapshot_save_s", "s"},
    {"core.snapshot_load_s", "s"},
    {"core.snapshot_bytes", "bytes"},
    {"core.self_s", "s"},
    {"cnf.sat_probes", "count"},
    {"cnf.sat_relations", "count"},
    {"cnf.sat_targeted", "count"},
    {"cnf.witnesses", "count"},
    {"cnf.untestable_bounded", "count"},
    {"cnf.proofs_per_s", "1/s"},
    {"atpg.campaign_s", "s"},
    {"atpg.gen_calls", "count"},
    {"atpg.backtracks", "count"},
    {"atpg.aborted", "count"},
    {"atpg.invalid_tests", "count"},
    {"atpg.gen_yield", "ratio"},
    {"atpg.untestable_by_tie", "count"},
    {"atpg.untestable_by_proof", "count"},
    {"atpg.self_s", "s"},
    {"guide.warmup_dropped", "count"},
    {"guide.warmup_kept", "count"},
    {"guide.compaction_before", "count"},
    {"guide.compaction_after", "count"},
    {"fault.validate_s", "s"},
    {"fault.fault_frames_per_s", "1/s"},
    {"fault.self_s", "s"},
    {"server.load.p50_ms", "ms"},
    {"server.load.p99_ms", "ms"},
    {"server.load.count", "count"},
    {"server.learn.p50_ms", "ms"},
    {"server.learn.p99_ms", "ms"},
    {"server.learn.count", "count"},
    {"server.atpg.p50_ms", "ms"},
    {"server.atpg.p99_ms", "ms"},
    {"server.atpg.count", "count"},
    {"server.fault_sim.p50_ms", "ms"},
    {"server.fault_sim.p99_ms", "ms"},
    {"server.fault_sim.count", "count"},
    {"server.stats.p50_ms", "ms"},
    {"server.stats.p99_ms", "ms"},
    {"server.stats.count", "count"},
    {"server.warm_ratio", "ratio"},
    {"server.cache.hits", "count"},
    {"server.cache.misses", "count"},
    {"server.cache.evictions", "count"},
    {"server.store.fetch_hits", "count"},
    {"server.store.fetch_misses", "count"},
    {"server.store.put_failures", "count"},
    {"server.overloaded", "count"},
    {"server.self_s", "s"},
    {"bench.late_p99_ms", "ms"},
    {"bench.self_s", "s"},
    {"bench.trace_overhead_ms", "ms"},
    {"bench.calibration_ms", "ms"},
    {"fault_coverage", "ratio"},
    {"pattern_frames", "frames"},
    {"learned_relations", "count"},
    {"learned_ties", "count"},
    {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},
    {"failed_ratio", "ratio"},
};

template <std::size_t N>
const MetricDef* lookup(const MetricDef (&table)[N], const std::string& name) {
    for (const MetricDef& d : table)
        if (name == d.name) return &d;
    return nullptr;
}

int usage(const char* msg) {
    std::fprintf(stderr,
                 "error: %s\nusage: seqbench --workload "
                 "flow_guided|flow_retimed|learn_industrial|serve_mixed --seed N "
                 "--seconds S --trace 0|1 [--scale full|tiny] [--tmp DIR] "
                 "[--trace-out FILE] [--inject none|tamper_snapshot|corrupt_reply]\n",
                 msg);
    return 2;
}

std::string metric_json(const Metrics& m) {
    std::string out = "{";
    char buf[96];
    for (const Metrics::Entry& e : m.entries()) {
        if (out.size() > 1) out += ", ";
        // %.17g keeps every digit the measurement has.
        std::snprintf(buf, sizeof buf, "%.17g", e.value);
        out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
}

}  // namespace
}  // namespace seqbench

int main(int argc, char** argv) {
    using namespace seqbench;
    Run run;
    std::string trace_out;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            run.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            run.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0' || val.empty()) return usage("--seed wants an integer");
            have_seed = true;
        } else if (key == "--seconds") {
            run.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(run.seconds > 0.0) || run.seconds > 120.0)
                return usage("--seconds wants a number in (0, 120]");
            have_seconds = true;
        } else if (key == "--trace") {
            if (val != "0" && val != "1") return usage("--trace wants 0 or 1");
            run.trace = val == "1";
            have_trace = true;
        } else if (key == "--scale") {
            if (val != "full" && val != "tiny") return usage("--scale wants full or tiny");
            run.scale = val == "tiny" ? Scale::Tiny : Scale::Full;
        } else if (key == "--inject") {
            if (val == "none") run.inject = Inject::None;
            else if (val == "tamper_snapshot") run.inject = Inject::TamperSnapshot;
            else if (val == "corrupt_reply") run.inject = Inject::CorruptReply;
            else return usage("unknown --inject value");
        } else if (key == "--tmp") {
            run.tmp_dir = val;
        } else if (key == "--trace-out") {
            trace_out = val;
        } else {
            return usage(("unknown option " + key).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are required");

    void (*workload)(Run&) = nullptr;
    if (run.workload == "flow_guided") workload = run_flow_guided;
    else if (run.workload == "flow_retimed") workload = run_flow_retimed;
    else if (run.workload == "learn_industrial") workload = run_learn_industrial;
    else if (run.workload == "serve_mixed") workload = run_serve_mixed;
    else return usage(("unknown workload " + run.workload).c_str());
    if (run.workload == "serve_mixed" && run.tmp_dir.empty())
        return usage("serve_mixed needs --tmp DIR for its snapshot store");

    // Every per-layer metric is reported on every workload; a layer the
    // workload never calls keeps 0.
    for (const MetricDef& d : kPerLayer) run.layer.set(d.name, 0.0, d.unit);
    run.tracer.enabled = run.trace;
    try {
        for (int i = 0; i < 3; ++i) calibrate(run);
        workload(run);
        for (int i = 0; i < 3; ++i) calibrate(run);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s: %s\n", run.workload.c_str(), e.what());
        return 1;
    }

    // Scale the CPU-bound end-to-end times to the reference host speed.
    const double calibration = median(run.calibration_s);
    for (const std::string& name : run.calibrated)
        run.e2e.set(name, run.e2e.find(name)->value * kReferenceCalibrationS / calibration, "s");
    run.layer.set("bench.calibration_ms", calibration * 1e3, "ms");

    const double attempted = static_cast<double>(std::max<std::size_t>(run.attempted, 1));
    const double failed_ratio = static_cast<double>(run.failed) / attempted;
    run.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
    run.e2e.set("ok_ratio", 1.0 - failed_ratio, "ratio");
    run.layer.set("failed_ratio", failed_ratio, "ratio");

    // A metric outside the tables, or an end-to-end metric never set, is a
    // bug in the benchmark, not a measurement.
    for (const Metrics::Entry& e : run.e2e.entries()) {
        const MetricDef* d = lookup(kEndToEnd, e.name);
        if (d == nullptr || e.unit != d->unit) {
            std::fprintf(stderr, "error: stray end-to-end metric %s\n", e.name.c_str());
            return 1;
        }
    }
    for (const Metrics::Entry& e : run.layer.entries()) {
        const MetricDef* d = lookup(kPerLayer, e.name);
        if (d == nullptr || e.unit != d->unit) {
            std::fprintf(stderr, "error: stray per-layer metric %s\n", e.name.c_str());
            return 1;
        }
    }
    for (const MetricDef& d : kEndToEnd) {
        if (run.e2e.find(d.name) == nullptr) {
            std::fprintf(stderr, "error: %s did not measure %s\n", run.workload.c_str(), d.name);
            return 1;
        }
    }

    for (const std::string& p : run.problems)
        std::fprintf(stderr, "check failed: %s\n", p.c_str());
    if (run.trace && !trace_out.empty() &&
        !run.tracer.write_json(trace_out, run.workload, run.seed)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
    }

    std::printf(
        "{\"report\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
        "\"scale\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", \"threads_per_stage\": 1, "
        "\"attempted\": %zu, \"failed\": %zu, \"wrong\": %zu, \"end_to_end\": %s, "
        "\"per_layer\": %s}}\n",
        run.workload.c_str(), static_cast<unsigned long long>(run.seed), run.seconds,
        run.trace ? 1 : 0, run.scale == Scale::Tiny ? "tiny" : "full",
        std::thread::hardware_concurrency(), SEQBENCH_BUILD_TYPE, run.attempted, run.failed,
        run.wrong, metric_json(run.e2e).c_str(), metric_json(run.layer).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                run.wrong == 0 ? "true" : "false", run.attempted, run.failed,
                metric_json(run.trace ? run.layer : run.e2e).c_str());
    return 0;
}
