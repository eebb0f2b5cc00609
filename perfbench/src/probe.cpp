#include "probe.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "trace/trace.hpp"

namespace dcs::perfbench {

double seconds_between(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void LatencyLog::merge(const LatencyLog& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
}

double LatencyLog::percentile_us(double q) const {
  if (ns_.empty()) return 0.0;
  std::vector<SimNanos> sorted = ns_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, sorted.size()) - 1;
  return static_cast<double>(sorted[idx]) / 1e3;
}

namespace {
std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now().time_since_epoch())
      .count();
}
}  // namespace

SpanLog::SpanLog(bool enabled, std::uint32_t owner)
    : enabled_(enabled), base_(std::uint64_t{owner + 1} << 40) {}

std::size_t SpanLog::open_root(const char* name, std::uint64_t request,
                               SimNanos now) {
  if (!enabled_) return 0;
  spans_.push_back(Span{.name = name,
                        .id = request,
                        .parent = 0,
                        .request = request,
                        .v_start = now,
                        .h_start_ns = host_now_ns()});
  return spans_.size();
}

std::size_t SpanLog::open(const char* name, SpanCtx ctx, SimNanos now,
                          SpanCtx* child_ctx) {
  if (!enabled_) {
    if (child_ctx != nullptr) *child_ctx = ctx;
    return 0;
  }
  const std::uint64_t id = base_ | kChildBit | ++children_;
  if (child_ctx != nullptr) *child_ctx = SpanCtx{ctx.request, id};
  spans_.push_back(Span{.name = name,
                        .id = id,
                        .parent = ctx.parent,
                        .request = ctx.request,
                        .v_start = now,
                        .h_start_ns = host_now_ns()});
  return spans_.size();
}

void SpanLog::close(std::size_t slot, SimNanos now) {
  if (slot == 0) return;
  Span& s = spans_[slot - 1];
  s.v_end = now;
  s.h_end_ns = host_now_ns();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double registry_count(const char* name) {
  const auto* c = trace::Registry::global().find_counter(name);
  return c != nullptr ? static_cast<double>(c->value) : 0.0;
}

void read_verbs_counters(Record& rec) {
  // raw_read/raw_write are one-sided transfers too (the cache's path).
  rec.sim["verbs.read_ops"] =
      registry_count("verbs.read.ops") + registry_count("verbs.raw_read.ops");
  rec.sim["verbs.write_ops"] = registry_count("verbs.write.ops") +
                               registry_count("verbs.raw_write.ops");
  rec.sim["verbs.atomic_ops"] =
      registry_count("verbs.cas.ops") + registry_count("verbs.faa.ops");
  rec.sim["verbs.send_msgs"] = registry_count("verbs.send.msgs");
}

double registered_mb(fabric::Fabric& fab) {
  double bytes = 0;
  for (std::size_t n = 0; n < fab.size(); ++n) {
    bytes += static_cast<double>(
        fab.node(static_cast<fabric::NodeId>(n)).memory().capacity());
  }
  return bytes / (1u << 20);
}

void summarize_spans(Record& rec) {
  // Children's virtual intervals per parent, clipped to the parent and
  // merged, give the covered part; the rest is the parent's self time.
  std::map<std::uint64_t, std::vector<std::pair<SimNanos, SimNanos>>> kids;
  for (const Span& s : rec.spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.v_start, s.v_end);
  }
  std::map<std::string, double> self_ns;
  for (const Span& s : rec.spans) {
    SimNanos covered = 0;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      SimNanos lo = 0, hi = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.v_start);
        b = std::min(b, s.v_end);
        if (a >= b) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
          continue;
        }
        if (open) covered += hi - lo;
        lo = a;
        hi = b;
        open = true;
      }
      if (open) covered += hi - lo;
    }
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    self_ns[layer] += static_cast<double>(s.v_end - s.v_start - covered);
  }
  for (const auto& [layer, ns] : self_ns) {
    rec.sim[layer + ".sim_self_ms"] = ns / 1e6;
  }
  rec.sim["trace.spans"] = static_cast<double>(rec.spans.size());
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "") << "{\"name\": \"" << s.name << "\", \"id\": "
       << s.id << ", \"parent\": " << s.parent << ", \"request\": "
       << s.request << ", \"v_start_ns\": " << s.v_start
       << ", \"v_end_ns\": " << s.v_end << ", \"h_start_ns\": " << s.h_start_ns
       << ", \"h_end_ns\": " << s.h_end_ns << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

template <class Map, class Fmt>
void object(std::ostringstream& os, const Map& m, Fmt fmt) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << quoted(k) << ": " << fmt(v);
    first = false;
  }
  os << "}";
}

}  // namespace

std::string to_json(const Record& rec) {
  std::ostringstream os;
  char fp[24];
  std::snprintf(fp, sizeof fp, "0x%016" PRIx64, rec.fingerprint);
  os << "{\"config\": ";
  object(os, rec.config, quoted);
  os << ", \"host\": ";
  object(os, rec.host, number);
  os << ", \"sim\": ";
  object(os, rec.sim, number);
  os << ", \"violations\": [";
  for (std::size_t i = 0; i < rec.violations.size(); ++i) {
    os << (i ? ", " : "") << quoted(rec.violations[i]);
  }
  os << "], \"attempted\": " << rec.attempted << ", \"failed\": " << rec.failed
     << ", \"fingerprint\": \"" << fp << "\"}";
  return os.str();
}

}  // namespace dcs::perfbench
