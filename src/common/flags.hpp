// Declarative command-line flag tables.
//
// Every binary declares its command line once, as the rows of a Table:
// name, kind, help text and destination.  The rows drive the parsing and
// the usage text, and tests/bench_flags_test.py generates its CLI grid from
// that usage text.  Every flag takes `--name value` and `--name=value`.
#pragma once

#include <cfloat>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace dcs::flags {

/// All of `text` as a decimal count in [min, max]: no sign, blank,
/// trailing character or overflow.  The repo's one checked count parser
/// (dcs-lint R6); nullopt on anything else.
std::optional<std::uint64_t> parse_count(
    std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// All of `text` as a finite decimal number in [min, max], else nullopt.
std::optional<double> parse_real(std::string_view text, double min = -DBL_MAX,
                                 double max = DBL_MAX);

/// One row of a table, built by the makers below; a row with its own check
/// (a file read at parse time) fills the fields itself.
struct Flag {
  enum class Kind { kValue, kSwitch, kPositional, kPositionals };
  std::string name{};    // "--nodes"; a positional's placeholder ("FILE")
  Kind kind = Kind::kValue;
  std::string meta{};    // the value's placeholder ("N", "FILE", "a|b")
  std::string help{};    // one line
  std::string detail{};  // range and default ("N in [1, 64], default 2")
  /// Checks and stores one value; returns why it was refused, or "".
  std::function<std::string(const std::string& value)> store{};
};

Flag path(std::string name, std::string* dst, std::string help,
          std::string meta = "FILE");
Flag real(std::string name, double* dst, double min, double max,
          std::string help);
/// One of `names`; *dst is the default.
Flag choice(std::string name, std::string* dst,
            std::vector<std::string> names, std::string help);
/// A switch that takes no value.
Flag toggle(std::string name, bool* dst, std::string help);
/// One required positional argument.
Flag positional(std::string meta, std::string* dst, std::string help);
/// Any number of positional arguments.
Flag positionals(std::string meta, std::vector<std::string>* dst,
                 std::string help);
/// The row behind count(): `fallback` is the default the usage shows.
Flag count_row(std::string name, std::optional<std::uint64_t> fallback,
               std::uint64_t min, std::uint64_t max, std::string help,
               std::function<void(std::uint64_t)> set);

/// A count in [min, max] into an integer or an optional integer.
template <typename T>
Flag count(std::string name, T* dst, std::uint64_t min, std::uint64_t max,
           std::string help) {
  constexpr bool kOptional = !std::is_integral_v<T>;
  using V = typename std::conditional_t<kOptional, T,
                                        std::optional<T>>::value_type;
  DCS_CHECK(max <= static_cast<std::uint64_t>(std::numeric_limits<V>::max()));
  std::optional<std::uint64_t> fallback;
  if constexpr (!kOptional) fallback = static_cast<std::uint64_t>(*dst);
  return count_row(std::move(name), fallback, min, max, std::move(help),
                   [dst](std::uint64_t v) { *dst = static_cast<V>(v); });
}

/// A count anywhere in the destination type's range.
template <typename T>
Flag count(std::string name, T* dst, std::string help) {
  using V = typename std::conditional_t<std::is_integral_v<T>,
                                        std::optional<T>, T>::value_type;
  return count(std::move(name), dst, 0, std::numeric_limits<V>::max(),
               std::move(help));
}

/// One binary's (or one `dcs` command's) command line.
class Table {
 public:
  Table(std::string binary, std::string about, std::vector<Flag> rows = {});

  /// Appends rows; a name may appear once per table.
  Table& add(std::vector<Flag> rows);

  /// Parses argv[first..argc) into the rows' destinations.  An unknown,
  /// repeated or stray argument, a missing value or a refused value exits
  /// 2 through fail(); `--help` prints usage() to stdout and exits 0.
  void parse(int argc, const char* const* argv, int first = 1) const;

  /// Prints "<binary>: <why>" and the usage to stderr and exits 2; also
  /// for the checks between flags that run after parse().
  [[noreturn]] void fail(const std::string& why) const;

  std::string usage() const;

 private:
  std::string binary_;
  std::string about_;
  std::vector<Flag> rows_;
};

}  // namespace dcs::flags
