// The run-knob table (src/server/options.hpp) as both front ends read it.
//
// Driven by the table itself, so a new row is covered without a new test:
//   * the CLI spelling (`--key-with-dashes VALUE`, through parse_args) and
//     the request spelling (`"key": VALUE`, through parse_request) of every
//     row give identical configurations;
//   * every malformed input — an unknown key, a wrong type, a negative,
//     fractional or too-large number, an unknown enum spelling — is
//     rejected on both surfaces with the identical message;
//   * every learn row that shapes the result moves learn_config_digest off
//     the default one (the daemon's warm path keys on that digest), and the
//     others leave it alone.
// Nothing here starts a run or a worker thread: out-of-range thread counts
// are checked at table level only.

#include "server/options.hpp"

#include "core/seq_learn.hpp"
#include "server/json.hpp"
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace seqlearn {
namespace {

using api::Stage;
using server::JsonValue;
using server::Option;
using server::OptionType;

constexpr Stage kStages[] = {Stage::Learn, Stage::Atpg, Stage::FaultSim};

const char* command_of(Stage s) {
    return s == Stage::Learn ? "learn" : s == Stage::Atpg ? "atpg" : "fault_sim";
}

bool accepts(const Option& k, Stage s) {
    return (k.stages & (1u << static_cast<unsigned>(s))) != 0;
}

std::string flag_of(std::string_view key) {
    std::string flag = "--" + std::string(key);
    for (char& c : flag)
        if (c == '_') c = '-';
    return flag;
}

/// Every SessionConfig field a knob can set, as one comparable string.
std::string fingerprint(const api::SessionConfig& c) {
    std::ostringstream o;
    const auto budget = [&](const exec::BudgetSpec& b) {
        o << b.deadline.count() << '/' << b.max_items << '/' << b.max_memory_bytes << ' ';
    };
    o << c.threads << ' ' << c.learn.max_frames << ' ' << c.learn.sat_frames << ' ';
    budget(c.learn.budget);
    budget(c.atpg.budget);
    budget(c.budget);
    o << static_cast<int>(c.atpg.mode) << c.atpg.count_c_cycle_redundant << ' '
      << c.atpg.backtrack_limit << ' ' << static_cast<int>(c.atpg.backend) << ' '
      << c.atpg.sat_frames << ' ' << static_cast<int>(c.atpg.order) << ' '
      << c.atpg.order_seed << ' ' << static_cast<int>(c.atpg.guidance) << ' '
      << c.atpg.rand_warmup << ' ' << c.atpg.compact << static_cast<int>(c.atpg.fill);
    return o.str();
}

/// One value spelled for both surfaces: CLI text and JSON text.
struct Spelling {
    std::string arg;
    std::string json;
};

Spelling text(const std::string& s) { return {s, "\"" + s + "\""}; }
Spelling number(const std::string& s) { return {s, s}; }

/// A valid value off the row's default.
Spelling off_default(const Option& k) {
    if (k.type == OptionType::Enum) {
        const std::size_t i = k.def && *k.def + 1 == static_cast<std::int64_t>(k.spellings.size())
                                  ? 0
                                  : k.spellings.size() - 1;
        return text(std::string(k.spellings[i]));
    }
    // threads: 1 is within every ceiling, including one hardware thread.
    if (k.key == "threads") return number("1");
    return number(std::to_string(k.def && *k.def == k.max ? k.min : k.max));
}

struct Surfaces {
    std::string cli_error, json_error;
    api::SessionConfig cli, json;
};

/// Run one knob value through the CLI scanner and the request parser.
/// `threads` is the daemon's worker count (0 = hardware threads).
Surfaces both(Stage stage, std::string_view key, const Spelling& v, unsigned threads = 0) {
    Surfaces out;
    const std::string flag = flag_of(key);
    std::vector<char*> argv = {const_cast<char*>(flag.c_str()),
                               const_cast<char*>(v.arg.c_str())};
    JsonValue flags;
    out.cli_error = server::parse_args(argv, command_of(stage), stage, {}, flags, out.cli);
    const std::string frame = "{\"cmd\": \"" + std::string(command_of(stage)) + "\", \"" +
                              std::string(key) + "\": " + v.json + "}";
    std::string parse_error;
    const auto doc = JsonValue::parse(frame, &parse_error);
    EXPECT_TRUE(doc.has_value()) << frame << ": " << parse_error;
    if (doc) out.json_error = server::parse_request(*doc, threads, out.json);
    return out;
}

std::string request_error(const std::string& frame, unsigned threads = 0) {
    const auto doc = JsonValue::parse(frame, nullptr);
    EXPECT_TRUE(doc.has_value()) << frame;
    api::SessionConfig run;
    return doc ? server::parse_request(*doc, threads, run) : "no document";
}

/// The configuration a request with no knobs runs.
api::SessionConfig defaults(Stage s) {
    api::SessionConfig run;
    const auto doc = JsonValue::parse("{\"cmd\": \"" + std::string(command_of(s)) + "\"}",
                                      nullptr);
    EXPECT_EQ(server::parse_request(*doc, 0, run), "");
    return run;
}

TEST(Options, DefaultsAreThePaperSetup) {
    const api::SessionConfig learn = defaults(Stage::Learn);
    EXPECT_EQ(learn.learn.max_frames, 50u);
    EXPECT_EQ(core::learn_config_digest(learn.learn),
              core::learn_config_digest(core::LearnConfig{}));
    for (const Stage s : {Stage::Atpg, Stage::FaultSim}) {
        const api::SessionConfig c = defaults(s);
        EXPECT_EQ(c.atpg.mode, atpg::LearnMode::ForbiddenValue);
        EXPECT_TRUE(c.atpg.count_c_cycle_redundant);
        EXPECT_EQ(c.atpg.backtrack_limit, 30u);
        EXPECT_FALSE(c.atpg.compact);
        EXPECT_EQ(c.threads, 0u);
    }
}

TEST(Options, ArgvAndJsonSpellingsGiveIdenticalConfigs) {
    for (const Option& k : server::knobs()) {
        for (const Stage s : kStages) {
            if (!accepts(k, s)) continue;
            const Spelling v = off_default(k);
            const Surfaces got = both(s, k.key, v);
            SCOPED_TRACE(std::string(k.key) + " = " + v.arg + " on " + command_of(s));
            EXPECT_EQ(got.cli_error, "");
            EXPECT_EQ(got.json_error, "");
            EXPECT_EQ(fingerprint(got.cli), fingerprint(got.json));
            EXPECT_NE(fingerprint(got.cli), fingerprint(defaults(s)))
                << "the value did not reach the config";
        }
    }
}

TEST(Options, MalformedInputsGiveTheSameErrorOnBothSurfaces) {
    for (const Option& k : server::knobs()) {
        for (const Stage s : kStages) {
            SCOPED_TRACE(std::string(k.key) + " on " + command_of(s));
            std::vector<Spelling> bad;
            if (!accepts(k, s)) {
                bad.push_back(off_default(k));  // unknown key for this command
            } else if (k.type == OptionType::Enum) {
                bad = {number("5"), number("-1"), number("2.5"), text("bogus")};
            } else {
                bad = {text("abc"), number("-1"), number("2.5"),
                       number(std::to_string(k.max + 1))};
            }
            for (const Spelling& v : bad) {
                // A daemon running as many workers as the CLI's ceiling.
                const Surfaces got = both(s, k.key, v, server::kMaxThreads);
                EXPECT_NE(got.cli_error, "") << v.arg;
                EXPECT_EQ(got.cli_error, got.json_error) << v.arg;
            }
        }
    }
}

TEST(Options, ErrorTextsNameTheKeyAndTheProblem) {
    EXPECT_EQ(both(Stage::Learn, "frames", number("-1")).cli_error,
              "frames: -1 is below the minimum 1");
    EXPECT_EQ(both(Stage::Learn, "frames", number("2.5")).cli_error,
              "frames: 2.5 is not an integer");
    EXPECT_EQ(both(Stage::Learn, "frames", number("10001")).json_error,
              "frames: 10001 is above the maximum 10000");
    EXPECT_EQ(both(Stage::Atpg, "order", number("5")).json_error,
              "order: expected a string, got 5");
    EXPECT_EQ(both(Stage::Atpg, "fill", text("grey")).json_error,
              "fill: unknown value \"grey\" (want x, zero, one or random)");
    EXPECT_EQ(both(Stage::Learn, "mode", text("known")).json_error,
              "unknown option \"mode\" for learn");
    EXPECT_EQ(request_error("{\"cmd\": \"atpg\", \"backtracks\": true}"),
              "backtracks: expected an integer, got true");
}

// Inputs the hand parsers used to run with a default instead of rejecting.
TEST(Options, SilentlyIgnoredInputsAreNowUsageErrors) {
    const Surfaces mode = both(Stage::Atpg, "mode", text("knwon"));
    EXPECT_EQ(mode.cli_error, "mode: unknown value \"knwon\" (want none, known or forbidden)");
    EXPECT_EQ(mode.json_error, mode.cli_error);

    const Surfaces frames = both(Stage::Learn, "frames", text("abc"));
    EXPECT_EQ(frames.cli_error, "frames: expected an integer, got \"abc\"");
    EXPECT_EQ(frames.json_error, frames.cli_error);

    const Surfaces typo = both(Stage::Atpg, "backtrack", number("5"));
    EXPECT_EQ(typo.cli_error, "unknown option \"backtrack\" for atpg");
    EXPECT_EQ(typo.json_error, typo.cli_error);

    EXPECT_EQ(request_error("{\"cmd\": \"atpg\", \"backtracks\": \"5\"}"),
              "backtracks: expected an integer, got \"5\"");
}

TEST(Options, ResultShapingLearnKnobsMoveTheConfigDigest) {
    const std::uint64_t base = core::learn_config_digest(core::LearnConfig{});
    for (const Option& k : server::knobs()) {
        if (!accepts(k, Stage::Learn)) continue;
        const Surfaces got = both(Stage::Learn, k.key, off_default(k));
        ASSERT_EQ(got.cli_error, "") << k.key;
        EXPECT_EQ(core::learn_config_digest(got.cli.learn) != base, k.affects_result)
            << k.key;
    }
}

TEST(Options, RequestThreadsAreBoundedByTheDaemon) {
    // A daemon running one worker: a request may ask for that one only.
    const std::string atpg = "{\"cmd\": \"atpg\", \"threads\": ";
    EXPECT_EQ(request_error(atpg + "1}", 1), "");
    EXPECT_EQ(request_error(atpg + "2}", 1), "threads: 2 is above the maximum 1");
    EXPECT_EQ(request_error(atpg + "1000000000}", 1),
              "threads: 1000000000 is above the maximum 1");
    EXPECT_EQ(request_error(atpg + "-4}", 1), "threads: -4 is below the minimum 1");
    EXPECT_EQ(request_error(atpg + "1.5}", 1), "threads: 1.5 is not an integer");
    // Absent, a request runs on the daemon's own worker count.
    api::SessionConfig run;
    const auto doc = JsonValue::parse("{\"cmd\": \"learn\"}", nullptr);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(server::parse_request(*doc, 3, run), "");
    EXPECT_EQ(run.threads, 3u);
    // Every other numeric knob is range-checked before any cast.
    EXPECT_EQ(request_error("{\"cmd\": \"atpg\", \"backtracks\": -1}"),
              "backtracks: -1 is below the minimum 0");
}

TEST(Options, EveryShippedRequestShapeIsAccepted) {
    // The request lines of seqbench's serve workload and the CI smokes.
    const std::string design = "\"design\": \"00000000000000ab\"";
    for (const std::string& frame : std::vector<std::string>{
             "{\"cmd\": \"load\", \"id\": \"a\", \"name\": \"n\", \"bench\": \"b\"}",
             "{\"cmd\": \"load\", \"path\": \"p\"}",
             "{\"cmd\": \"learn\", \"id\": \"a\", " + design + "}",
             "{\"cmd\": \"learn\", \"force\": true, " + design + "}",
             "{\"cmd\": \"atpg\", " + design + ", \"limit_faults\": 24}",
             "{\"cmd\": \"atpg\", " + design +
                 ", \"guidance\": \"scoap\", \"rand_warmup\": 16, \"fill\": \"random\", "
                 "\"limit_faults\": 24}",
             "{\"cmd\": \"atpg\", " + design + ", \"mode\": \"forbidden\"}",
             "{\"cmd\": \"fault_sim\", " + design + ", \"limit_sequences\": 8}",
             "{\"cmd\": \"stats\", \"id\": \"final\"}",
             "{\"cmd\": \"stats\", " + design + "}",
             "{\"cmd\": \"cancel\", \"target\": \"job-1\"}",
             "{\"cmd\": \"shutdown\"}"}) {
        EXPECT_EQ(request_error(frame), "") << frame;
    }
    // A command's own keys are checked too: by type, and per command.
    EXPECT_EQ(request_error("{\"cmd\": \"learn\", \"force\": 1}"),
              "force: expected true or false, got 1");
    EXPECT_EQ(request_error("{\"cmd\": \"atpg\", \"force\": true}"),
              "unknown option \"force\" for atpg");
    EXPECT_EQ(request_error("{\"cmd\": \"stats\", \"design\": 7}"),
              "design: expected a string, got 7");
    EXPECT_EQ(request_error("{\"cmd\": \"frobnicate\"}"), "unknown command \"frobnicate\"");
}

TEST(Options, CommandLineScannerChecksItsOwnFlags) {
    constexpr std::string_view kFormats[] = {"text", "binary"};
    using enum OptionType;
    const Option own[] = {
        {.key = "json", .type = Switch},
        {.key = "save_db"},
        {.key = "db_format", .type = Enum, .spellings = kFormats},
        {.key = "gates", .type = Integer, .min = 1, .max = 100},
        {.key = "out", .type = Removed, .hint = "use --save-db FILE"},
    };
    JsonValue flags;
    api::SessionConfig run;
    const auto scan = [&](std::vector<std::string> words) {
        std::vector<char*> argv;
        for (std::string& w : words) argv.push_back(w.data());
        flags = JsonValue();
        return server::parse_args(argv, "learn", Stage::Learn, own, flags, run);
    };
    EXPECT_EQ(scan({"--json", "--db-format", "binary", "--gates", "7", "--frames", "9",
                    "--save-db", "42"}),
              "");
    EXPECT_TRUE(flags.get_bool("json"));
    EXPECT_EQ(flags.get_string("db_format"), "binary");
    EXPECT_EQ(flags.get_number("gates"), 7);
    EXPECT_EQ(flags.get_string("save_db"), "42");  // a path, even when it looks numeric
    EXPECT_EQ(run.learn.max_frames, 9u);

    EXPECT_EQ(scan({"--db-format", "bogus"}),
              "db_format: unknown value \"bogus\" (want text or binary)");
    EXPECT_EQ(scan({"--gates", "0"}), "gates: 0 is below the minimum 1");
    EXPECT_EQ(scan({"--out", "f"}), "unknown option \"out\" for learn (use --save-db FILE)");
    EXPECT_EQ(scan({"--frames"}), "frames: missing value");
    EXPECT_EQ(scan({"extra"}), "unexpected argument \"extra\"");
    EXPECT_EQ(scan({"--mode", "known"}), "unknown option \"mode\" for learn");
}

}  // namespace
}  // namespace seqlearn
