#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace satproof {

/// Variable index, 0-based internally. DIMACS files use 1-based indices;
/// the conversion happens only at the I/O boundary (see cnf/dimacs.hpp).
using Var = std::uint32_t;

/// Sentinel for "no variable".
inline constexpr Var kInvalidVar = std::numeric_limits<Var>::max();

/// Clause identifier shared between the solver and the checker.
///
/// The paper (Section 3.1) requires that the solver and the checker agree
/// on clause IDs: original clauses are numbered by order of appearance in
/// the formula, and every learned clause gets the next fresh ID. IDs are
/// never reused, even after clause deletion.
using ClauseId = std::uint64_t;

/// Sentinel for "no clause" (e.g. the antecedent of a decision variable).
inline constexpr ClauseId kInvalidClauseId =
    std::numeric_limits<ClauseId>::max();

/// Largest variable a Lit can encode. The negative literal of the next
/// variable, 2^31 - 1, would collide with Lit::invalid(), and anything
/// beyond wraps the 32-bit code onto a small variable. Readers of DIMACS
/// text reject larger variables (DIMACS index kMaxVar + 1 = 2^31 - 1)
/// instead of letting Lit::from_dimacs wrap them.
inline constexpr Var kMaxVar = (Var{1} << 31) - 2;

/// A literal: a variable together with a phase.
///
/// Encoded as `2*var + sign` where sign 1 means negated. The encoding
/// makes literals directly usable as indices into watch lists and keeps
/// negation a single XOR, the layout used by Chaff-family solvers.
class Lit {
 public:
  /// Default-constructed literals are invalid; they compare equal to
  /// Lit::invalid() and must not be used in clauses.
  constexpr Lit() = default;

  /// Builds the literal for `var`, negated when `negated` is true.
  constexpr Lit(Var var, bool negated)
      : code_((var << 1) | static_cast<std::uint32_t>(negated)) {}

  /// The positive literal of `var`.
  [[nodiscard]] static constexpr Lit pos(Var var) { return Lit(var, false); }

  /// The negative literal of `var`.
  [[nodiscard]] static constexpr Lit neg(Var var) { return Lit(var, true); }

  /// The invalid sentinel literal.
  [[nodiscard]] static constexpr Lit invalid() {
    Lit l;
    l.code_ = std::numeric_limits<std::uint32_t>::max();
    return l;
  }

  /// Reconstructs a literal from its integer code (watch-list index).
  [[nodiscard]] static constexpr Lit from_code(std::uint32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  /// The underlying variable.
  [[nodiscard]] constexpr Var var() const { return code_ >> 1; }

  /// True when the literal is the negation of its variable.
  [[nodiscard]] constexpr bool negated() const { return (code_ & 1) != 0; }

  /// The opposite-phase literal of the same variable.
  [[nodiscard]] constexpr Lit operator~() const {
    return from_code(code_ ^ 1);
  }

  /// Integer code, usable as a dense array index in [0, 2*num_vars).
  [[nodiscard]] constexpr std::uint32_t code() const { return code_; }

  /// Signed DIMACS form: var+1, negative when negated.
  [[nodiscard]] constexpr std::int64_t to_dimacs() const {
    const auto v = static_cast<std::int64_t>(var()) + 1;
    return negated() ? -v : v;
  }

  /// True when `d` is a non-zero DIMACS literal whose variable is at most
  /// kMaxVar, i.e. one that from_dimacs converts without wrapping.
  [[nodiscard]] static constexpr bool dimacs_in_range(std::int64_t d) {
    constexpr std::int64_t kMax = std::int64_t{kMaxVar} + 1;
    return d != 0 && d >= -kMax && d <= kMax;
  }

  /// Parses a signed DIMACS integer into a literal; `d` must satisfy
  /// dimacs_in_range.
  [[nodiscard]] static constexpr Lit from_dimacs(std::int64_t d) {
    const auto v = static_cast<Var>((d < 0 ? -d : d) - 1);
    return Lit(v, d < 0);
  }

  friend constexpr bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend constexpr bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }
  friend constexpr bool operator<(Lit a, Lit b) { return a.code_ < b.code_; }

 private:
  std::uint32_t code_ = std::numeric_limits<std::uint32_t>::max();
};

/// Three-valued assignment state of a variable or literal.
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

/// Negation on LBool; Undef stays Undef.
[[nodiscard]] constexpr LBool operator~(LBool b) {
  switch (b) {
    case LBool::False:
      return LBool::True;
    case LBool::True:
      return LBool::False;
    case LBool::Undef:
      return LBool::Undef;
  }
  return LBool::Undef;
}

/// Human-readable literal ("x3" / "~x3") for diagnostics.
[[nodiscard]] std::string to_string(Lit lit);

/// Human-readable LBool ("T" / "F" / "U") for diagnostics.
[[nodiscard]] std::string to_string(LBool b);

}  // namespace satproof
