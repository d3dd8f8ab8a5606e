#pragma once
// Shared pieces of the seqbench binary: the run context every workload
// fills in, the metric table it reports, order statistics, and the span
// recorder behind the traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's layers (netlist, api, core, atpg, fault, server); nothing
// inside the program is instrumented. A span's name is "<layer>.<call>",
// so a layer's self time is the summed self time of its spans.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace seqbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/// Median of `v` (0 when empty); `v` is taken by value and reordered.
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1] (0 when empty).
double quantile(std::vector<double> v, double q);

/// Ordered name -> (value, unit) table; setting a name twice overwrites.
class Metrics {
public:
    struct Entry {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    void set(const std::string& name, double value, const std::string& unit);
    /// Add to an existing entry (one already set, e.g. to 0).
    void add(const std::string& name, double value);
    const Entry* find(const std::string& name) const;
    const std::vector<Entry>& entries() const noexcept { return entries_; }

private:
    std::vector<Entry> entries_;
};

/// In-memory span recorder. Disabled tracers record nothing; begin()
/// returns -1 and end(-1) is a no-op, so call sites need no branches.
class Tracer {
public:
    struct Span {
        std::string name;
        std::uint64_t op = 0;  ///< workload repetition or request id
        int parent = -1;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };

    bool enabled = false;

    /// Open a span nested under the innermost open one.
    int begin(std::string name, std::uint64_t op);
    void end(int id);
    /// Record a finished span with an explicit parent (for overlapping
    /// spans, such as requests in flight on several connections).
    int record(std::string name, std::uint64_t op, int parent, std::int64_t start_ns,
               std::int64_t end_ns);

    /// Durations (seconds) of every span named `name`.
    std::vector<double> durations(const std::string& name) const;
    /// Self seconds per layer over the spans of operations >= `min_op`:
    /// each span's duration minus the part of its interval covered by the
    /// union of its children, summed by layer.
    std::vector<std::pair<std::string, double>> self_seconds_by_layer(
        std::uint64_t min_op) const;

    /// Write every span as one JSON document.
    bool write_json(const std::string& path, const std::string& workload,
                    std::uint64_t seed) const;

private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span over a scope.
class Scope {
public:
    Scope(Tracer& t, std::string name, std::uint64_t op)
        : t_(t), id_(t.begin(std::move(name), op)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& t_;
    int id_;
};

enum class Scale { Tiny, Full };

/// Deliberate faults for the self-tests: they prove the output checks can
/// fail. Never set by a measured run.
enum class Inject { None, TamperSnapshot, CorruptReply };

/// Everything one run reads and reports.
struct Run {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = Scale::Full;
    Inject inject = Inject::None;
    std::string tmp_dir;  ///< temporary space inside the checkout

    Tracer tracer;
    Metrics e2e;    ///< end-to-end metrics (reported with --trace 0)
    Metrics layer;  ///< per-layer metrics (reported with --trace 1)

    /// Times of the calibration kernel (see calibrate()), seconds.
    std::vector<double> calibration_s;
    /// End-to-end times (CPU-bound ones) to scale to the reference speed.
    std::vector<std::string> calibrated;

    std::size_t attempted = 0;
    std::size_t wrong = 0;  ///< operations whose output failed a check
    std::size_t failed = 0; ///< wrong + errors + late (daemon latency limit)
    std::vector<std::string> problems;  ///< first few check failures, for stderr

    /// Count one failed operation and note why.
    void fail(std::string what, bool wrong_answer = true);
    /// Note a check failure without counting it (the caller counts the
    /// operation once, however many of its checks failed).
    void note(std::string what);
};

/// The calibration kernel's time on the reference host (a 4-vCPU VM at
/// 2.1 GHz) — the speed the end-to-end times are scaled to.
constexpr double kReferenceCalibrationS = 0.028;

/// Run a fixed, benchmark-owned CPU and memory kernel (random
/// read-modify-write over 8 MiB, a dependent pointer chase over 1 MiB,
/// small-allocation churn) and append its time to run.calibration_s.
///
/// The shared host this benchmark runs on changes speed by 10-30% for
/// stretches of seconds to minutes. The CPU-bound end-to-end times named in
/// run.calibrated are reported scaled by kReferenceCalibrationS /
/// median(calibration_s), so a run made during a slow stretch reads like
/// one made at the reference speed. The library never runs inside the
/// kernel, so no change to it can move the scale.
void calibrate(Run& run);

/// Derive an independent 64-bit seed for one input of a workload.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Peak resident set of this process, MiB, less the calibration kernel's
/// buffers.
double peak_rss_mb();

// Workloads. Each one sets every metric named in BENCHMARK.json.
void run_flow_guided(Run& run);
void run_flow_retimed(Run& run);
void run_learn_industrial(Run& run);
void run_serve_mixed(Run& run);

}  // namespace seqbench
