#pragma once
// The run knobs: one declarative table read by the daemon and the CLI.
//
// Each row is one knob a learn / atpg / fault_sim run can be given: its
// request key (the CLI flag is "--" + key with '_' spelled '-'), the stages
// that accept it, its type, default and range, and its setter into
// SessionConfig. A request and a command line both reach parse_options as
// one JSON object, so a malformed input is the same usage error on both. A
// front end's own keys (a request's "design", the CLI's --save-db) are
// Options too, without stages or setter.

#include "api/session.hpp"
#include "server/json.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace seqlearn::server {

enum class OptionType : std::uint8_t {
    Text,     ///< a string
    Integer,  ///< an integer in [min, max]
    Millis,   ///< a duration in milliseconds, in [min, max]
    Enum,     ///< one of `spellings`; its value is the spelling's index
    Switch,   ///< true or false; on the CLI, a flag without a value
    Removed,  ///< CLI only: no longer accepted, the error says `hint`
};

/// Worker-count ceiling of the CLI; a daemon's is its own worker count.
inline constexpr unsigned kMaxThreads = 256;
/// Largest integer a JSON number (a double) holds exactly.
inline constexpr std::int64_t kMaxCount = (std::int64_t{1} << 53) - 1;
/// Longest duration (~24.8 days): clear of steady_clock overflow.
inline constexpr std::int64_t kMaxMillis = 2147483647;

struct Option {
    std::string_view key;
    std::uint8_t stages = 0;  ///< bit (1 << api::Stage) per stage that accepts it
    OptionType type = OptionType::Text;
    /// Part of what the stage computes, not of how it runs (workers, budgets).
    bool affects_result = false;
    /// Applied when absent (Enum: the spelling's index); nullopt leaves the
    /// field as the front end set it.
    std::optional<std::int64_t> def{};
    std::int64_t min = 0, max = 0;
    std::span<const std::string_view> spellings{};
    void (*set)(api::SessionConfig&, api::Stage, std::int64_t) = nullptr;
    std::string_view hint{};
};

std::span<const Option> knobs();

/// Check every member of the request object `req` for `command`: each is one
/// of `own` or a knob of `stage` (none: the command runs no stage). Absent
/// knobs take their defaults; a given `threads` may not exceed `max_threads`.
/// Returns the first usage error, or "" when `run` is ready.
std::string parse_options(const JsonValue& req, std::string_view command,
                          std::optional<api::Stage> stage, std::span<const Option> own,
                          unsigned max_threads, api::SessionConfig& run);

/// The CLI's parse_options: each argument is `--name` for one of `own` or a
/// knob of `stage`, then its value (read as a JSON number when spelled as one,
/// except for Text) unless it is a Switch. `flags` receives the request.
std::string parse_args(std::span<char* const> argv, std::string_view command,
                       std::optional<api::Stage> stage, std::span<const Option> own,
                       JsonValue& flags, api::SessionConfig& run);

}  // namespace seqlearn::server
