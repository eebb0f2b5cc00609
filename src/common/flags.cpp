#include "common/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dcs::flags {

namespace {

using Kind = Flag::Kind;

std::string fmt_real(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// A row whose value is stored as given.
Flag text_row(std::string name, Kind kind, std::string meta, std::string help,
              std::function<void(const std::string&)> set) {
  return {std::move(name), kind, std::move(meta), std::move(help), "",
          [set = std::move(set)](const std::string& v) {
            set(v);
            return std::string();
          }};
}

}  // namespace

std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min,
                                         std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value < min ||
      value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_real(std::string_view text, double min,
                                 double max) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end ||
      !std::isfinite(value) || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

Flag path(std::string name, std::string* dst, std::string help,
          std::string meta) {
  return text_row(std::move(name), Kind::kValue, std::move(meta),
                  std::move(help), [dst](const std::string& v) { *dst = v; });
}

Flag toggle(std::string name, bool* dst, std::string help) {
  return text_row(std::move(name), Kind::kSwitch, "", std::move(help),
                  [dst](const std::string&) { *dst = true; });
}

Flag positional(std::string meta, std::string* dst, std::string help) {
  return text_row(meta, Kind::kPositional, meta, std::move(help),
                  [dst](const std::string& v) { *dst = v; });
}

Flag positionals(std::string meta, std::vector<std::string>* dst,
                 std::string help) {
  return text_row(meta, Kind::kPositionals, meta, std::move(help),
                  [dst](const std::string& v) { dst->push_back(v); });
}

Flag count_row(std::string name, std::optional<std::uint64_t> fallback,
               std::uint64_t min, std::uint64_t max, std::string help,
               std::function<void(std::uint64_t)> set) {
  const std::string range =
      "[" + std::to_string(min) + ", " + std::to_string(max) + "]";
  std::string detail = "N in " + range;
  if (fallback && *fallback >= min && *fallback <= max) {
    detail += ", default " + std::to_string(*fallback);
  }
  const std::string why = name + " wants a count in " + range + ", got '";
  return {std::move(name), Kind::kValue, "N", std::move(help),
          std::move(detail), [=](const std::string& v) {
            const auto n = parse_count(v, min, max);
            if (n) set(*n);
            return n ? std::string() : why + v + "'";
          }};
}

Flag real(std::string name, double* dst, double min, double max,
          std::string help) {
  const std::string range = "[" + fmt_real(min) + ", " + fmt_real(max) + "]";
  const std::string why = name + " wants a number in " + range + ", got '";
  return {std::move(name), Kind::kValue, "X", std::move(help),
          "X in " + range + ", default " + fmt_real(*dst),
          [=](const std::string& v) {
            const auto x = parse_real(v, min, max);
            if (x) *dst = *x;
            return x ? std::string() : why + v + "'";
          }};
}

Flag choice(std::string name, std::string* dst,
            std::vector<std::string> names, std::string help) {
  std::string meta;
  for (const std::string& n : names) meta += (meta.empty() ? "" : "|") + n;
  const std::string why = "unknown " + name + " '";
  return {std::move(name), Kind::kValue, meta, std::move(help),
          "default " + *dst, [=](const std::string& v) {
            if (std::find(names.begin(), names.end(), v) == names.end()) {
              return why + v + "' (accepted: " + meta + ")";
            }
            *dst = v;
            return std::string();
          }};
}

Table::Table(std::string binary, std::string about, std::vector<Flag> rows)
    : binary_(std::move(binary)), about_(std::move(about)) {
  add(std::move(rows));
}

Table& Table::add(std::vector<Flag> rows) {
  for (Flag& row : rows) {
    for (const Flag& have : rows_) DCS_CHECK(have.name != row.name);
    rows_.push_back(std::move(row));
  }
  return *this;
}

void Table::parse(int argc, const char* const* argv, int first) const {
  std::vector<bool> seen(rows_.size(), false);
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    const bool flag = arg.size() >= 2 && arg[0] == '-';
    const std::size_t eq =
        arg.starts_with("--") ? arg.find('=') : std::string::npos;
    const std::string name = arg.substr(0, eq);
    // A flag's row by name; a positional argument goes to the first
    // positional row with room.
    std::size_t at = 0;
    for (; at < rows_.size(); ++at) {
      const Kind kind = rows_[at].kind;
      if (flag ? rows_[at].name == name &&
                     (kind == Kind::kValue || kind == Kind::kSwitch)
               : kind == Kind::kPositionals ||
                     (kind == Kind::kPositional && !seen[at])) {
        break;
      }
    }
    if (at == rows_.size()) {
      fail(flag ? "unknown flag " + name
                : "unexpected argument '" + arg + "'");
    }
    const Flag& row = rows_[at];
    std::string value = arg;
    if (row.kind == Kind::kSwitch && eq != std::string::npos) {
      fail(name + " takes no value");
    }
    if (row.kind == Kind::kValue) {
      const bool next = i + 1 < argc &&
                        !std::string_view(argv[i + 1]).starts_with("--");
      value = eq != std::string::npos ? arg.substr(eq + 1)
              : next                  ? argv[++i]
                                      : "";
      if (value.empty()) fail(name + " needs a value");
    }
    if (seen[at] && row.kind != Kind::kPositionals) {
      fail(name + " given twice");
    }
    seen[at] = true;
    if (const std::string why = row.store(value); !why.empty()) fail(why);
  }
  for (std::size_t at = 0; at < rows_.size(); ++at) {
    if (rows_[at].kind == Kind::kPositional && !seen[at]) {
      fail("missing " + rows_[at].meta);
    }
  }
}

void Table::fail(const std::string& why) const {
  std::fprintf(stderr, "%s: %s\n%s", binary_.c_str(), why.c_str(),
               usage().c_str());
  std::exit(2);
}

std::string Table::usage() const {
  std::string head = "usage: " + binary_, body;
  const auto line = [&body](std::string left, const std::string& help,
                            const std::string& detail) {
    left.resize(std::max<std::size_t>(left.size() + 2, 24), ' ');
    body += left + help + (detail.empty() ? "" : " (" + detail + ")") + "\n";
  };
  for (const Flag& r : rows_) {
    if (r.kind == Kind::kPositional) head += " " + r.meta;
    if (r.kind == Kind::kPositionals) head += " [" + r.meta + "...]";
    const bool flag = r.kind == Kind::kValue || r.kind == Kind::kSwitch;
    line("  " + r.name + (flag && !r.meta.empty() ? " " + r.meta : ""),
         r.help, r.detail);
  }
  line("  --help", "print this usage and exit", "");
  return head + " [flags]\n" + (about_.empty() ? "" : about_ + "\n") + "\n" +
         body;
}

}  // namespace dcs::flags
