#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

namespace seqbench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Metrics::set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

void Metrics::add(const std::string& name, double value) {
    for (Entry& e : entries_) {
        if (e.name == name) {
            e.value += value;
            return;
        }
    }
    throw std::logic_error("Metrics::add: " + name + " was never set");
}

const Metrics::Entry* Metrics::find(const std::string& name) const {
    for (const Entry& e : entries_)
        if (e.name == name) return &e;
    return nullptr;
}

int Tracer::begin(std::string name, std::uint64_t op) {
    if (!enabled) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), op, parent, now_ns(), 0});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void Tracer::end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::record(std::string name, std::uint64_t op, int parent, std::int64_t start_ns,
                   std::int64_t end_ns) {
    if (!enabled) return -1;
    spans_.push_back({std::move(name), op, parent, start_ns, end_ns});
    return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
        if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds_by_layer(
    std::uint64_t min_op) const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
    for (const Span& s : spans_)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.op < min_op) continue;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent's.
        std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start_ns);
            hi = std::min(hi, s.end_ns);
            if (hi <= lo) continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        const std::string layer = s.name.substr(0, s.name.find('.'));
        by_layer[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return {by_layer.begin(), by_layer.end()};
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [", workload.c_str(),
                 static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", \"op\": %llu, \"parent\": %d, "
                     "\"start_ns\": %lld, \"end_ns\": %lld}",
                     i ? "," : "", i, s.name.c_str(), static_cast<unsigned long long>(s.op),
                     s.parent, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void Run::fail(std::string what, bool wrong_answer) {
    ++failed;
    if (wrong_answer) ++wrong;
    note(std::move(what));
}

void Run::note(std::string what) {
    if (problems.size() < 8) problems.push_back(std::move(what));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    // SplitMix64 finalizer over (seed, salt).
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {
constexpr std::size_t kTableWords = std::size_t{1} << 21;  // 8 MiB
constexpr std::size_t kChaseWords = std::size_t{1} << 18;  // 1 MiB
/// What the calibration kernel keeps resident once it has run.
constexpr std::size_t kCalibrationBytes = (kTableWords + kChaseWords) * sizeof(std::uint32_t);
}  // namespace

void calibrate(Run& run) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    const auto step = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    // Allocated once and kept, so the kernel adds a fixed amount to the
    // resident set (kCalibrationBytes, subtracted from peak_rss_mb).
    static std::vector<std::uint32_t> table(kTableWords);
    static std::vector<std::uint32_t> next(kChaseWords);
    const std::size_t mask = table.size() - 1;
    for (int i = 0; i < 1500000; ++i) {
        std::uint32_t& cell = table[step() & mask];
        acc += cell;
        cell = static_cast<std::uint32_t>(acc ^ x);
    }
    for (std::size_t i = 0; i < next.size(); ++i) next[i] = static_cast<std::uint32_t>(i);
    // Sattolo's shuffle: one cycle through every slot.
    for (std::size_t i = next.size() - 1; i > 0; --i) std::swap(next[i], next[step() % i]);
    std::uint32_t p = 0;
    for (int i = 0; i < 1000000; ++i) p = next[p];
    std::vector<std::unique_ptr<std::uint64_t[]>> live(256);
    for (int i = 0; i < 200000; ++i) {
        auto& slot = live[step() & 255];
        slot = std::make_unique<std::uint64_t[]>(1 + (x >> 60));
        slot[0] = x;
        acc += slot[0];
    }
    // Keep the result observable so the loops are not optimized away.
    static volatile std::uint64_t sink;
    sink = acc + p;
    run.calibration_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // Linux reports KiB.
    return (static_cast<double>(ru.ru_maxrss) * 1024.0 - static_cast<double>(kCalibrationBytes)) /
           (1024.0 * 1024.0);
}

}  // namespace seqbench
