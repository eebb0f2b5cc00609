#include "trace/inspect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/flags.hpp"

namespace dcs::trace::inspect {

// --- JSON parser ---

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Json v;
      v.type = Json::Type::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_word("true")) {
      Json v;
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      Json v;
      v.type = Json::Type::kBool;
      return v;
    }
    if (consume_word("null")) return Json{};
    return parse_number();
  }

  Json parse_object() {
    Json v;
    v.type = Json::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.fields.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array() {
    Json v;
    v.type = Json::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          // Our writers never emit \u; decode Latin-1 range, else '?'.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          out.push_back(code < 0x100 ? static_cast<char>(code) : '?');
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Json v;
    v.type = Json::Type::kNumber;
    v.raw = std::string(text_.substr(start, pos_ - start));
    const auto number = flags::parse_real(v.raw);
    if (!number) fail("bad number");
    v.number = *number;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::num_or(double fallback) const {
  return type == Type::kNumber ? number : fallback;
}

std::uint64_t Json::u64_or(std::uint64_t fallback) const {
  if (type != Type::kNumber) return fallback;
  if (const auto n = flags::parse_count(raw)) return *n;
  return number < 0 || number >= 0x1p64 ? fallback
                                        : static_cast<std::uint64_t>(number);
}

std::string Json::str_or(std::string fallback) const {
  return type == Type::kString ? str : std::move(fallback);
}

Json parse_json(std::string_view text) { return Parser(text).parse(); }

// --- loading and normalization ---

namespace {

std::uint64_t field_u64(const Json& obj, std::string_view key,
                        std::uint64_t fallback = 0) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->u64_or(fallback) : fallback;
}

std::string field_str(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->str_or("") : "";
}

void sort_entries(std::vector<Entry>& entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.time != b.time ? a.time < b.time
                                             : a.node < b.node;
                   });
}

Document load_postmortem(Document doc) {
  const Json& root = doc.root;
  doc.kind = Document::Kind::kPostmortem;
  doc.reason = field_str(root, "reason");
  doc.detail = field_str(root, "detail");
  doc.now_ns = field_u64(root, "now_ns");
  if (const Json* nodes = root.find("nodes")) {
    for (const Json& node_obj : nodes->items) {
      const auto node = static_cast<std::uint32_t>(field_u64(node_obj, "node"));
      const Json* records = node_obj.find("records");
      if (records == nullptr) continue;
      for (const Json& rec : records->items) {
        Entry e;
        e.time = field_u64(rec, "t");
        e.node = node;
        e.request = field_u64(rec, "request");
        e.layer = field_str(rec, "layer");
        e.op = field_str(rec, "op");
        const std::string kind = field_str(rec, "kind");
        e.kind = kind.empty() ? 'L' : kind[0];
        e.a0 = field_u64(rec, "a0");
        e.a1 = field_u64(rec, "a1");
        if (e.kind == 'S') e.dur = e.a1;
        doc.entries.push_back(std::move(e));
      }
    }
  }
  if (const Json* requests = root.find("requests")) {
    for (const Json& req : requests->items) {
      RequestRow row;
      row.request = field_u64(req, "request");
      row.name = field_str(req, "name");
      row.node = static_cast<std::uint32_t>(field_u64(req, "node"));
      row.id = field_u64(req, "id");
      row.start_ns = field_u64(req, "start_ns");
      row.age_ns = field_u64(req, "age_ns");
      row.last_activity_ns = field_u64(req, "last_activity_ns");
      row.in_flight = true;
      if (const Json* costs = req.find("critical_path_ns")) {
        for (const auto& [cost, value] : costs->fields) {
          row.cost_ns.emplace_back(cost, value.u64_or(0));
        }
      }
      doc.requests.push_back(std::move(row));
    }
  }
  sort_entries(doc.entries);
  return doc;
}

Document load_trace(Document doc) {
  doc.kind = Document::Kind::kTrace;
  const Json* events = doc.root.find("traceEvents");
  for (const Json& ev : events->items) {
    const std::string ph = field_str(ev, "ph");
    if (ph != "X" && ph != "i") continue;
    Entry e;
    // Chrome ts/dur are microseconds with fixed 3-decimal precision.
    const Json* ts = ev.find("ts");
    e.time = static_cast<SimNanos>(
        std::llround((ts != nullptr ? ts->num_or(0) : 0) * 1000.0));
    const Json* dur = ev.find("dur");
    e.dur = static_cast<SimNanos>(
        std::llround((dur != nullptr ? dur->num_or(0) : 0) * 1000.0));
    e.node = static_cast<std::uint32_t>(field_u64(ev, "pid"));
    e.layer = field_str(ev, "cat");
    e.op = field_str(ev, "name");
    e.kind = ph == "i" ? 'i' : 'S';
    if (const Json* args = ev.find("args")) {
      e.request = field_u64(*args, "request");
      e.a0 = field_u64(*args, "id");
    }
    // The writer renders phase-'R' request roots as spans in category
    // "request"; recover them for --top and request summaries.
    if (e.layer == "request" && e.kind == 'S' && e.request != 0) {
      e.kind = 'R';
      RequestRow row;
      row.request = e.request;
      row.name = e.op;
      row.node = e.node;
      row.id = e.a0;
      row.start_ns = e.time;
      row.age_ns = e.dur;
      row.last_activity_ns = e.time + e.dur;
      doc.requests.push_back(std::move(row));
    }
    doc.now_ns = std::max(doc.now_ns, e.time + e.dur);
    doc.entries.push_back(std::move(e));
  }
  sort_entries(doc.entries);
  std::sort(doc.requests.begin(), doc.requests.end(),
            [](const RequestRow& a, const RequestRow& b) {
              return a.request < b.request;
            });
  return doc;
}

}  // namespace

Document load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  Document doc;
  doc.path = path;
  try {
    doc.root = parse_json(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  if (doc.root.type != Json::Type::kObject) {
    throw std::runtime_error(path + ": top-level JSON object expected");
  }
  const std::string schema = field_str(doc.root, "schema");
  if (schema == "dcs-postmortem-v1") return load_postmortem(std::move(doc));
  if (doc.root.find("traceEvents") != nullptr) {
    return load_trace(std::move(doc));
  }
  throw std::runtime_error(
      path + ": neither a dcs-postmortem-v1 dump nor a Chrome trace "
             "(schema: \"" + schema + "\")");
}

// --- queries ---

namespace {

bool matches(const Entry& e, const Options& opts) {
  if (opts.node && e.node != *opts.node) return false;
  if (!opts.layer.empty() && e.layer != opts.layer) return false;
  if (opts.request && e.request != *opts.request) return false;
  if (opts.from_ns && e.time < *opts.from_ns) return false;
  if (opts.to_ns && e.time > *opts.to_ns) return false;
  return true;
}

void print_entries(std::ostream& out, const std::vector<Entry>& entries) {
  out << "  time_ns       node  kind  layer.op                    "
         "request  a0            a1\n";
  for (const Entry& e : entries) {
    char line[256];
    const std::string op = e.layer + "." + e.op;
    std::snprintf(line, sizeof line,
                  "  %-12llu  %-4u  %c     %-26s  %-7llu  %-12llu  %llu",
                  static_cast<unsigned long long>(e.time), e.node, e.kind,
                  op.c_str(), static_cast<unsigned long long>(e.request),
                  static_cast<unsigned long long>(e.a0),
                  static_cast<unsigned long long>(e.a1));
    out << line << '\n';
  }
}

void print_request_row(std::ostream& out, const RequestRow& row) {
  out << "request #" << row.request << " \"" << row.name << "\" (node "
      << row.node << ", id " << row.id << "): start " << row.start_ns
      << "ns, " << (row.in_flight ? "in flight " : "completed in ")
      << row.age_ns << "ns, last activity " << row.last_activity_ns << "ns";
  if (!row.cost_ns.empty()) {
    out << "\n  partial critical path:";
    SimNanos attributed = 0;
    for (const auto& [cost, ns] : row.cost_ns) {
      if (cost == "attributed") {
        attributed = ns;
        continue;
      }
      if (ns != 0) out << " " << cost << "=" << ns << "ns";
    }
    out << " (attributed " << attributed << "ns of " << row.age_ns << "ns)";
  }
  out << '\n';
}

int run_self_check(const Document& doc, std::ostream& out,
                   std::ostream& err) {
  std::vector<std::string> problems;
  if (doc.kind != Document::Kind::kPostmortem) {
    problems.push_back("not a dcs-postmortem-v1 dump");
  } else {
    for (const char* key : {"reason", "detail", "now_ns", "engine",
                            "metrics", "requests", "nodes", "config"}) {
      if (doc.root.find(key) == nullptr) {
        problems.push_back(std::string("missing field \"") + key + "\"");
      }
    }
    if (const Json* engine = doc.root.find("engine")) {
      for (const char* key :
           {"now_ns", "events_dispatched", "dispatch_fingerprint",
            "ready_ring", "timers", "live_roots"}) {
        if (engine->find(key) == nullptr) {
          problems.push_back(std::string("engine missing \"") + key + "\"");
        }
      }
    }
    const std::uint64_t capacity =
        doc.root.find("config") != nullptr
            ? field_u64(*doc.root.find("config"), "ring_capacity")
            : 0;
    if (const Json* nodes = doc.root.find("nodes")) {
      for (const Json& node_obj : nodes->items) {
        const std::uint64_t node = field_u64(node_obj, "node");
        const Json* records = node_obj.find("records");
        if (records == nullptr) {
          problems.push_back("node " + std::to_string(node) +
                             " has no records array");
          continue;
        }
        if (capacity != 0 && records->items.size() > capacity) {
          problems.push_back("node " + std::to_string(node) +
                             " retains more records than ring_capacity");
        }
        if (records->items.size() > field_u64(node_obj, "logged")) {
          problems.push_back("node " + std::to_string(node) +
                             " retains more records than were logged");
        }
        SimNanos prev = 0;
        for (const Json& rec : records->items) {
          const SimNanos t = field_u64(rec, "t");
          if (t < prev) {
            problems.push_back("node " + std::to_string(node) +
                               " records not time-ordered");
            break;
          }
          prev = t;
        }
      }
    }
  }
  if (!problems.empty()) {
    err << "self-check FAILED: " << doc.path << '\n';
    for (const std::string& p : problems) err << "  " << p << '\n';
    return 1;
  }
  std::size_t record_count = 0;
  std::vector<std::uint32_t> node_list;
  for (const Entry& e : doc.entries) {
    ++record_count;
    if (node_list.empty() || node_list.back() != e.node) {
      if (std::find(node_list.begin(), node_list.end(), e.node) ==
          node_list.end()) {
        node_list.push_back(e.node);
      }
    }
  }
  out << "self-check OK: " << doc.path << " (reason " << doc.reason << ", "
      << node_list.size() << " node(s), " << record_count << " record(s), "
      << doc.requests.size() << " in-flight request(s))\n";
  return 0;
}

/// Flattens metrics for diffing: counters/gauges to their value,
/// distributions/histograms to their count.
void flatten_metrics(const Json* metrics,
                     std::vector<std::pair<std::string, double>>& out) {
  if (metrics == nullptr || metrics->type != Json::Type::kObject) return;
  for (const auto& [name, value] : metrics->fields) {
    if (value.type == Json::Type::kNumber) {
      out.emplace_back(name, value.number);
    } else if (value.type == Json::Type::kObject) {
      if (const Json* count = value.find("count")) {
        out.emplace_back(name + ".count", count->num_or(0));
      }
    }
  }
}

int run_diff(const Document& a, const Document& b, std::ostream& out) {
  out << "diff " << a.path << " -> " << b.path << '\n';
  std::size_t changes = 0;
  const auto line = [&](const std::string& text) {
    out << "  " << text << '\n';
    ++changes;
  };
  if (a.reason != b.reason) {
    line("reason: " + a.reason + " -> " + b.reason);
  }
  if (a.now_ns != b.now_ns) {
    line("now_ns: " + std::to_string(a.now_ns) + " -> " +
         std::to_string(b.now_ns));
  }
  const Json* ea = a.root.find("engine");
  const Json* eb = b.root.find("engine");
  if (ea != nullptr && eb != nullptr) {
    for (const auto& [key, va] : ea->fields) {
      const Json* vb = eb->find(key);
      if (vb == nullptr) continue;
      if (va.type == Json::Type::kNumber && vb->type == Json::Type::kNumber) {
        if (va.raw != vb->raw) {
          line("engine." + key + ": " + va.raw + " -> " + vb->raw);
        }
      } else if (va.str != vb->str) {
        line("engine." + key + ": " + va.str + " -> " + vb->str);
      }
    }
  }
  std::vector<std::pair<std::string, double>> ma, mb;
  flatten_metrics(a.root.find("metrics"), ma);
  flatten_metrics(b.root.find("metrics"), mb);
  for (const auto& [name, va] : ma) {
    const auto it = std::find_if(mb.begin(), mb.end(), [&n = name](
                                     const auto& kv) { return kv.first == n; });
    if (it == mb.end()) {
      line("metric " + name + ": only in first");
    } else if (it->second != va) {
      char delta[64];
      std::snprintf(delta, sizeof delta, "%g -> %g (%+g)", va, it->second,
                    it->second - va);
      line("metric " + name + ": " + delta);
    }
  }
  for (const auto& [name, vb] : mb) {
    if (std::find_if(ma.begin(), ma.end(), [&n = name](const auto& kv) {
          return kv.first == n;
        }) == ma.end()) {
      line("metric " + name + ": only in second");
    }
  }
  for (const RequestRow& ra : a.requests) {
    const auto it = std::find_if(
        b.requests.begin(), b.requests.end(),
        [&](const RequestRow& rb) { return rb.request == ra.request; });
    if (it == b.requests.end()) {
      line("request #" + std::to_string(ra.request) + " (" + ra.name +
           "): resolved (only in first)");
    } else if (it->age_ns != ra.age_ns) {
      line("request #" + std::to_string(ra.request) + " (" + ra.name +
           "): age " + std::to_string(ra.age_ns) + "ns -> " +
           std::to_string(it->age_ns) + "ns");
    }
  }
  for (const RequestRow& rb : b.requests) {
    if (std::find_if(a.requests.begin(), a.requests.end(),
                     [&](const RequestRow& ra) {
                       return ra.request == rb.request;
                     }) == a.requests.end()) {
      line("request #" + std::to_string(rb.request) + " (" + rb.name +
           "): new (only in second)");
    }
  }
  if (changes == 0) out << "  (no differences)\n";
  return 0;
}

}  // namespace

int run(const std::string& file, const Options& opts, std::ostream& out,
        std::ostream& err) {
  Document doc;
  try {
    doc = load(file);
  } catch (const std::exception& e) {
    err << "inspect: " << e.what() << '\n';
    return 2;
  }
  if (opts.self_check) return run_self_check(doc, out, err);
  if (!opts.diff_path.empty()) {
    try {
      const Document other = load(opts.diff_path);
      return run_diff(doc, other, out);
    } catch (const std::exception& e) {
      err << "inspect: " << e.what() << '\n';
      return 2;
    }
  }

  if (doc.kind == Document::Kind::kPostmortem) {
    out << "postmortem " << doc.path << "\n  reason: " << doc.reason
        << "\n  detail: " << doc.detail << "\n  now_ns: " << doc.now_ns
        << '\n';
  } else {
    out << "trace " << doc.path << " (" << doc.entries.size()
        << " events, end " << doc.now_ns << "ns)\n";
  }

  if (opts.timeline) {
    // Cross-node timeline of one request: every record any node retained
    // for it, merged in time order.
    const auto it = std::find_if(
        doc.requests.begin(), doc.requests.end(),
        [&](const RequestRow& r) { return r.request == *opts.timeline; });
    if (it != doc.requests.end()) print_request_row(out, *it);
    std::vector<Entry> selected;
    std::vector<std::uint32_t> nodes_seen;
    for (const Entry& e : doc.entries) {
      if (e.request != *opts.timeline) continue;
      if (std::find(nodes_seen.begin(), nodes_seen.end(), e.node) ==
          nodes_seen.end()) {
        nodes_seen.push_back(e.node);
      }
      selected.push_back(e);
    }
    out << "timeline of request #" << *opts.timeline << ": "
        << selected.size() << " record(s) across " << nodes_seen.size()
        << " node(s)\n";
    print_entries(out, selected);
    return 0;
  }

  if (opts.top > 0) {
    std::vector<RequestRow> rows = doc.requests;
    std::stable_sort(rows.begin(), rows.end(),
                     [](const RequestRow& a, const RequestRow& b) {
                       return a.age_ns > b.age_ns;
                     });
    if (rows.size() > opts.top) rows.resize(opts.top);
    out << "top " << rows.size() << " slowest request(s)"
        << (doc.kind == Document::Kind::kPostmortem ? " (in flight)" : "")
        << ":\n";
    for (const RequestRow& row : rows) print_request_row(out, row);
    return 0;
  }

  std::vector<Entry> selected;
  for (const Entry& e : doc.entries) {
    if (matches(e, opts)) selected.push_back(e);
  }
  out << selected.size() << " record(s)";
  if (selected.size() != doc.entries.size()) {
    out << " (of " << doc.entries.size() << ")";
  }
  out << ":\n";
  print_entries(out, selected);
  if (doc.kind == Document::Kind::kPostmortem && !doc.requests.empty() &&
      !opts.node && !opts.request && opts.layer.empty()) {
    out << "in-flight requests:\n";
    for (const RequestRow& row : doc.requests) print_request_row(out, row);
  }
  return 0;
}

}  // namespace dcs::trace::inspect
