#include "server/options.hpp"

#include "atpg/engine.hpp"
#include "cnf/dispatch.hpp"
#include "guide/fault_order.hpp"
#include "guide/random_tpg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace seqlearn::server {

namespace {

using api::SessionConfig;
using api::Stage;
using enum OptionType;

constexpr std::uint8_t bit(Stage s) {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(s));
}
constexpr std::uint8_t kLearn = bit(Stage::Learn);
constexpr std::uint8_t kAtpg = bit(Stage::Atpg);
constexpr std::uint8_t kFaultSim = bit(Stage::FaultSim);
constexpr std::uint8_t kAll = kLearn | kAtpg | kFaultSim;

/// The budget a stage's limit and deadline knobs fill. fault_sim has no
/// stage config of its own: it fills the session-wide budget, which also
/// governs the learn and the ATPG campaign that fault_sim runs first.
exec::BudgetSpec& budget_of(SessionConfig& c, Stage s) {
    if (s == Stage::Learn) return c.learn.budget;
    if (s == Stage::Atpg) return c.atpg.budget;
    return c.budget;
}

void set_limit(SessionConfig& c, Stage s, std::int64_t v) {
    budget_of(c, s).max_items = static_cast<std::size_t>(v);
}

template <auto Field>
void set_atpg(SessionConfig& c, Stage, std::int64_t v) {
    c.atpg.*Field = static_cast<std::remove_reference_t<decltype(c.atpg.*Field)>>(v);
}

constexpr Option kKnobs[] = {
    // Forward-simulation depth per stem; the paper's experiments use 50.
    {.key = "frames", .stages = kLearn, .type = Integer, .affects_result = true, .def = 50,
     .min = 1, .max = 10000,
     .set = [](SessionConfig& c, Stage, std::int64_t v) {
         c.learn.max_frames = static_cast<std::uint32_t>(v);
     }},
    // CNF frame bound K: SAT learn mode on learn (0 = off); the SAT backend's
    // bound on atpg (0 = the deepest frame window).
    {.key = "sat_frames", .stages = kLearn | kAtpg, .type = Integer, .affects_result = true,
     .def = 0, .max = 256,
     .set = [](SessionConfig& c, Stage s, std::int64_t v) {
         (s == Stage::Learn ? c.learn.sat_frames : c.atpg.sat_frames) =
             static_cast<std::uint32_t>(v);
     }},
    // Item limits (0 = none): stems learned, faults targeted.
    {.key = "limit_stems", .stages = kLearn, .type = Integer, .def = 0, .max = kMaxCount,
     .set = set_limit},
    {.key = "limit_faults", .stages = kAtpg, .type = Integer, .def = 0, .max = kMaxCount,
     .set = set_limit},
    // The session-wide item limit: it caps the sequences validated and also
    // the targets of the ATPG campaign fault_sim generates first.
    {.key = "limit_sequences", .stages = kFaultSim, .type = Integer, .def = 0,
     .max = kMaxCount, .set = set_limit},
    {.key = "deadline_ms", .stages = kAll, .type = Millis, .def = 0, .max = kMaxMillis,
     .set = [](SessionConfig& c, Stage s, std::int64_t v) {
         budget_of(c, s).deadline = std::chrono::milliseconds(v);
     }},
    // Absent: the front end's own worker count (0 = all hardware threads).
    {.key = "threads", .stages = kAll, .type = Integer, .min = 1, .max = kMaxThreads,
     .set = [](SessionConfig& c, Stage, std::int64_t v) {
         c.threads = static_cast<unsigned>(v);
     }},
    // Learned-data mode (paper Table 5's columns). With learned data the
    // campaign counts c-cycle-redundant faults as untestable, as the paper does.
    {.key = "mode", .stages = kAtpg | kFaultSim, .type = Enum, .affects_result = true,
     .def = static_cast<std::int64_t>(atpg::LearnMode::ForbiddenValue),
     .spellings = atpg::kLearnModeNames,
     .set = [](SessionConfig& c, Stage, std::int64_t v) {
         c.atpg.mode = static_cast<atpg::LearnMode>(v);
         c.atpg.count_c_cycle_redundant = c.atpg.mode != atpg::LearnMode::None;
     }},
    // Backtrack limit per (fault, window); the paper uses 30 and 1000.
    {.key = "backtracks", .stages = kAtpg, .type = Integer, .affects_result = true, .def = 30,
     .max = 1000000, .set = set_atpg<&atpg::AtpgConfig::backtrack_limit>},
    {.key = "backend", .stages = kAtpg, .type = Enum, .affects_result = true,
     .def = static_cast<std::int64_t>(cnf::Backend::FrameSim), .spellings = cnf::kBackendNames,
     .set = set_atpg<&atpg::AtpgConfig::backend>},
    {.key = "order", .stages = kAtpg, .type = Enum, .affects_result = true,
     .def = static_cast<std::int64_t>(guide::OrderStrategy::Index), .spellings = guide::kOrderNames,
     .set = set_atpg<&atpg::AtpgConfig::order>},
    {.key = "order_seed", .stages = kAtpg, .type = Integer, .affects_result = true, .def = 1,
     .max = kMaxCount, .set = set_atpg<&atpg::AtpgConfig::order_seed>},
    {.key = "guidance", .stages = kAtpg, .type = Enum, .affects_result = true,
     .def = static_cast<std::int64_t>(guide::Guidance::None), .spellings = guide::kGuidanceNames,
     .set = set_atpg<&atpg::AtpgConfig::guidance>},
    {.key = "rand_warmup", .stages = kAtpg, .type = Integer, .affects_result = true, .def = 0,
     .max = 1000000, .set = set_atpg<&atpg::AtpgConfig::rand_warmup>},
    // Absent: no compaction. Present: compact, then fill the don't-cares.
    {.key = "fill", .stages = kAtpg, .type = Enum, .affects_result = true,
     .spellings = guide::kFillNames,
     .set = [](SessionConfig& c, Stage, std::int64_t v) {
         c.atpg.compact = true;
         c.atpg.fill = static_cast<guide::FillMode>(v);
     }},
};

bool accepts(const Option& knob, std::optional<Stage> stage) {
    return stage && (knob.stages & bit(*stage)) != 0;
}

/// `key`'s option: one of `own`, else a knob of `stage`, else null.
const Option* find(std::string_view key, std::span<const Option> own,
                   std::optional<Stage> stage) {
    for (const Option& o : own)
        if (o.key == key) return &o;
    for (const Option& k : kKnobs)
        if (k.key == key && accepts(k, stage)) return &k;
    return nullptr;
}

std::string shown(const JsonValue& v) {
    switch (v.type()) {
        case JsonValue::Type::Number: break;
        case JsonValue::Type::String: return "\"" + v.as_string() + "\"";
        case JsonValue::Type::Bool: return v.as_bool() ? "true" : "false";
        case JsonValue::Type::Null: return "null";
        case JsonValue::Type::Object: return "an object";
        case JsonValue::Type::Array: return "an array";
    }
    char buf[32];  // 16 digits: every integer up to 2^53 prints whole
    std::snprintf(buf, sizeof buf, "%.16g", v.as_number());
    return buf;
}

std::string unknown_option(std::string_view key, std::string_view command) {
    return "unknown option \"" + std::string(key) + "\" for " + std::string(command);
}

/// Check `v` against `o` (with `max` as its ceiling). Returns the usage
/// error, or "" with the value in `out` (Enum: the spelling's index).
std::string check(const Option& o, const JsonValue& v, std::int64_t max, std::int64_t& out) {
    const std::string key(o.key);
    const auto wrong_type = [&](const char* want) {
        return key + ": expected " + want + ", got " + shown(v);
    };
    const bool is_bool = v.type() == JsonValue::Type::Bool;
    if (o.type == Switch) return is_bool ? "" : wrong_type("true or false");
    if (o.type == Text) return v.is_string() ? "" : wrong_type("a string");
    if (o.type == Enum) {
        if (!v.is_string()) return wrong_type("a string");
        std::string want;
        for (std::size_t i = 0; i < o.spellings.size(); ++i) {
            if (o.spellings[i] == v.as_string()) {
                out = static_cast<std::int64_t>(i);
                return {};
            }
            want += i == 0 ? "" : i + 1 == o.spellings.size() ? " or " : ", ";
            want += o.spellings[i];
        }
        return key + ": unknown value " + shown(v) + " (want " + want + ")";
    }
    if (!v.is_number()) return wrong_type("an integer");
    const double n = v.as_number();
    if (n != std::floor(n)) return key + ": " + shown(v) + " is not an integer";
    if (n < static_cast<double>(o.min))
        return key + ": " + shown(v) + " is below the minimum " + std::to_string(o.min);
    if (n > static_cast<double>(max))
        return key + ": " + shown(v) + " is above the maximum " + std::to_string(max);
    out = static_cast<std::int64_t>(n);
    return {};
}

}  // namespace

std::span<const Option> knobs() { return kKnobs; }

std::string parse_options(const JsonValue& req, std::string_view command,
                          std::optional<Stage> stage, std::span<const Option> own,
                          unsigned max_threads, SessionConfig& run) {
    for (const Option& k : kKnobs)
        if (accepts(k, stage) && k.def) k.set(run, *stage, *k.def);
    for (const auto& [key, value] : req.members()) {
        const Option* o = find(key, own, stage);
        if (o == nullptr) return unknown_option(key, command);
        // The one ceiling a front end lowers: a daemon request may not ask
        // for more workers than the daemon runs.
        const std::int64_t max = o->set != nullptr && o->key == "threads"
                                     ? std::min<std::int64_t>(o->max, max_threads)
                                     : o->max;
        std::int64_t v = 0;
        if (std::string error = check(*o, value, max, v); !error.empty()) return error;
        if (o->set != nullptr) o->set(run, *stage, v);
    }
    return {};
}

std::string parse_args(std::span<char* const> argv, std::string_view command,
                       std::optional<Stage> stage, std::span<const Option> own,
                       JsonValue& flags, SessionConfig& run) {
    // The command line is spelled out as the request object it stands for.
    std::string request = "{";
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string_view token = argv[i];
        if (token.substr(0, 2) != "--")
            return "unexpected argument \"" + std::string(token) + "\"";
        std::string key(token.substr(2));
        std::replace(key.begin(), key.end(), '-', '_');
        const Option* o = find(key, own, stage);
        if (o == nullptr) return unknown_option(key, command);
        if (o->type == Removed)
            return unknown_option(key, command) + " (" + std::string(o->hint) + ")";
        std::string value = "true";
        bool quote = false;
        if (o->type != Switch) {
            if (i + 1 == argv.size()) return key + ": missing value";
            value = argv[++i];
            const std::optional<JsonValue> number = JsonValue::parse(value, nullptr);
            quote = o->type == Text || !number || !number->is_number();
        }
        const char* q = quote ? "\"" : "";
        request += (request.size() > 1 ? ", \"" : "\"") + key + "\": " + q +
                   (quote ? json_escape(value) : value) + q;
    }
    flags = JsonValue::parse(request + "}", nullptr).value();
    return parse_options(flags, command, stage, own, kMaxThreads, run);
}

}  // namespace seqlearn::server
