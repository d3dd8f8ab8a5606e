#pragma once
// Minimal JSON for the serving protocol.
//
// The server speaks newline-framed JSON: one request object per line in,
// one response object per line out, the same schema the CLI's --json mode
// prints. Requests are small and flat (a command name, a design digest, a
// handful of numeric knobs, at most one large string — the .bench text), so
// a dependency-free recursive-descent parser is all that is needed; writing
// stays string-building with the helpers below, which the CLI uses too.
//
// Numbers are stored as double. Every numeric field in the protocol (ports,
// budgets, counts, thread counts) fits a double exactly; 64-bit digests do
// NOT, which is why the protocol transports them as hex *strings*
// (see hex_u64 / parse_hex_u64).

#include "exec/outcome.hpp"
#include "netlist/diagnostics.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seqlearn::server {

/// A parsed JSON value. Objects keep their members in a sorted map — the
/// protocol never depends on member order.
class JsonValue {
public:
    enum class Type : std::uint8_t { Null, Bool, Number, String, Object, Array };

    JsonValue() = default;

    Type type() const noexcept { return type_; }
    bool is_object() const noexcept { return type_ == Type::Object; }
    bool is_string() const noexcept { return type_ == Type::String; }
    bool is_number() const noexcept { return type_ == Type::Number; }

    bool as_bool(bool fallback = false) const noexcept {
        return type_ == Type::Bool ? bool_ : fallback;
    }
    double as_number(double fallback = 0.0) const noexcept {
        return type_ == Type::Number ? num_ : fallback;
    }
    const std::string& as_string() const noexcept { return str_; }

    /// Object member lookup; null when absent or not an object.
    const JsonValue* get(std::string_view key) const;

    /// Typed member shorthands (fallback when absent or wrong-typed).
    std::string get_string(std::string_view key, std::string fallback = {}) const;
    double get_number(std::string_view key, double fallback = 0.0) const;
    bool get_bool(std::string_view key, bool fallback = false) const;

    const std::vector<JsonValue>& items() const noexcept { return arr_; }
    /// Object members in key order (empty when not an object).
    const std::map<std::string, JsonValue, std::less<>>& members() const noexcept {
        return obj_;
    }

    /// Parse one JSON document. On failure returns nullopt and, when
    /// `error` is non-null, stores a one-line reason. Trailing garbage
    /// after the document is an error (a frame is exactly one object).
    static std::optional<JsonValue> parse(std::string_view text, std::string* error);

private:
    friend class Parser;
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::map<std::string, JsonValue, std::less<>> obj_;
    std::vector<JsonValue> arr_;
};

/// Escape `s` for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// {"status": ..., "diagnostic": ...} for a stage outcome.
std::string outcome_json(const exec::RunOutcome& o);

/// [{"severity": ..., "line": ..., "message": ...}, ...] for parse diagnostics.
std::string diagnostics_json(const netlist::Diagnostics& diags);

/// Lossless transport for 64-bit digests: fixed-width lowercase hex.
std::string hex_u64(std::uint64_t v);

/// Inverse of hex_u64 (leading "0x" optional). Returns nullopt on anything
/// that is not pure hex of at most 16 digits.
std::optional<std::uint64_t> parse_hex_u64(std::string_view s);

}  // namespace seqlearn::server
