#pragma once
// 64-wide bit-parallel three-valued patterns.
//
// Two-plane encoding per lane: (ones bit, zeros bit) =
//   (1,0) -> 1,  (0,1) -> 0,  (0,0) -> X.  (1,1) never occurs.
// Used by the parallel-pattern simulator for gate-equivalence candidate
// signatures and by the batched learning simulator.

#include "logic/val3.hpp"

#include <concepts>
#include <cstdint>
#include <type_traits>

namespace seqlearn::logic {

/// 64 three-valued lanes.
struct Pattern {
    std::uint64_t ones = 0;
    std::uint64_t zeros = 0;

    constexpr bool operator==(const Pattern&) const noexcept = default;
};

inline constexpr Pattern kPatAllX{0, 0};
inline constexpr Pattern kPatAllZero{0, ~0ULL};
inline constexpr Pattern kPatAllOne{~0ULL, 0};

constexpr Pattern pat_not(Pattern a) noexcept { return {a.zeros, a.ones}; }

constexpr Pattern pat_and(Pattern a, Pattern b) noexcept {
    return {a.ones & b.ones, a.zeros | b.zeros};
}

constexpr Pattern pat_or(Pattern a, Pattern b) noexcept {
    return {a.ones | b.ones, a.zeros & b.zeros};
}

constexpr Pattern pat_xor(Pattern a, Pattern b) noexcept {
    return {(a.ones & b.zeros) | (a.zeros & b.ones),
            (a.ones & b.ones) | (a.zeros & b.zeros)};
}

/// Lanes where the value is binary (not X).
constexpr std::uint64_t pat_known(Pattern a) noexcept { return a.ones | a.zeros; }

/// Lanes where `a` and `b` are both binary and differ.
constexpr std::uint64_t pat_diff(Pattern a, Pattern b) noexcept {
    return (a.ones & b.zeros) | (a.zeros & b.ones);
}

/// Set lane `lane` (0..63) to `v`.
constexpr void pat_set(Pattern& p, int lane, Val3 v) noexcept {
    const std::uint64_t bit = 1ULL << lane;
    p.ones &= ~bit;
    p.zeros &= ~bit;
    if (v == Val3::One) p.ones |= bit;
    else if (v == Val3::Zero) p.zeros |= bit;
}

/// Read lane `lane` (0..63).
constexpr Val3 pat_get(Pattern p, int lane) noexcept {
    const std::uint64_t bit = 1ULL << lane;
    if (p.ones & bit) return Val3::One;
    if (p.zeros & bit) return Val3::Zero;
    return Val3::X;
}

/// Broadcast one scalar value to all 64 lanes.
constexpr Pattern pat_broadcast(Val3 v) noexcept {
    switch (v) {
        case Val3::Zero: return kPatAllZero;
        case Val3::One: return kPatAllOne;
        case Val3::X: return kPatAllX;
    }
    return kPatAllX;
}

/// Evaluate a gate operator over patterns (same semantics as the scalar
/// eval_op applied lane-wise).
Pattern eval_op(GateOp op, const Pattern* ins, int n_ins) noexcept;

/// Pattern twin of logic::eval_op_indirect: evaluate `op` over `n` operands
/// fetched through `get(i)`, without gathering them into a buffer first.
template <typename GetFn>
    requires std::same_as<std::invoke_result_t<GetFn&, std::size_t>, Pattern>
Pattern eval_op_indirect(GateOp op, std::size_t n, GetFn&& get) noexcept {
    switch (op) {
        case GateOp::Const0: return kPatAllZero;
        case GateOp::Const1: return kPatAllOne;
        case GateOp::Buf: return n == 0 ? kPatAllX : get(0);
        case GateOp::Not: return n == 0 ? kPatAllX : pat_not(get(0));
        case GateOp::And:
        case GateOp::Nand: {
            Pattern acc = kPatAllOne;
            for (std::size_t i = 0; i < n; ++i) acc = pat_and(acc, get(i));
            return op == GateOp::Nand ? pat_not(acc) : acc;
        }
        case GateOp::Or:
        case GateOp::Nor: {
            Pattern acc = kPatAllZero;
            for (std::size_t i = 0; i < n; ++i) acc = pat_or(acc, get(i));
            return op == GateOp::Nor ? pat_not(acc) : acc;
        }
        case GateOp::Xor:
        case GateOp::Xnor: {
            Pattern acc = kPatAllZero;
            for (std::size_t i = 0; i < n; ++i) acc = pat_xor(acc, get(i));
            return op == GateOp::Xnor ? pat_not(acc) : acc;
        }
    }
    return kPatAllX;
}

}  // namespace seqlearn::logic
