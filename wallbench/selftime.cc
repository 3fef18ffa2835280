#include "wallbench/selftime.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <numeric>
#include <set>

namespace wallbench {
namespace {

using r3::Status;

/// Just enough of a JSON reader to walk one trace export without building a
/// document tree: a 250k-event export would need ~0.5 GB as r3::json::Value.
class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool AtEnd() {
    Ws();
    return p_ == s_.size();
  }

  bool Eat(char c) {
    Ws();
    if (p_ < s_.size() && s_[p_] == c) {
      ++p_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (Eat(c)) return Status::OK();
    return Error(std::string("expected '") + c + "'");
  }

  /// Reads a string; `out` may be null to skip it.
  Status String(std::string* out) {
    if (!Eat('"')) return Error("expected a string");
    if (out != nullptr) out->clear();
    while (p_ < s_.size()) {
      char c = s_[p_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (p_ >= s_.size()) break;
        char e = s_[p_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (p_ + 4 > s_.size()) return Error("short \\u escape");
            p_ += 4;
            c = '?';
            break;
          default: c = e; break;  // \" \\ \/
        }
      }
      if (out != nullptr) out->push_back(c);
    }
    return Error("unterminated string");
  }

  Status Int(int64_t* out) {
    Ws();
    const char* first = s_.data() + p_;
    const char* last = s_.data() + s_.size();
    auto [ptr, ec] = std::from_chars(first, last, *out);
    if (ec != std::errc() || (ptr < last && (*ptr == '.' || *ptr == 'e' ||
                                             *ptr == 'E'))) {
      return Error("expected an integer");
    }
    p_ += static_cast<size_t>(ptr - first);
    return Status::OK();
  }

  /// Skips one value of any kind.
  Status Skip() {
    Ws();
    if (p_ >= s_.size()) return Error("expected a value");
    char c = s_[p_];
    if (c == '"') return String(nullptr);
    if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      ++p_;
      if (Eat(close)) return Status::OK();
      while (true) {
        if (c == '{') {
          R3_RETURN_IF_ERROR(String(nullptr));
          R3_RETURN_IF_ERROR(Expect(':'));
        }
        R3_RETURN_IF_ERROR(Skip());
        if (Eat(close)) return Status::OK();
        R3_RETURN_IF_ERROR(Expect(','));
      }
    }
    size_t start = p_;
    while (p_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[p_])) ||
                              s_[p_] == '-' || s_[p_] == '+' || s_[p_] == '.')) {
      ++p_;
    }
    if (p_ == start) return Error("unexpected character");
    return Status::OK();
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("trace JSON: " + what + " at byte " +
                                   std::to_string(p_));
  }

 private:
  void Ws() {
    while (p_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[p_]))) {
      ++p_;
    }
  }

  const std::string& s_;
  size_t p_ = 0;
};

/// Calls `member(key)` for each member of the object at the reader; the
/// callback must consume the member's value.
template <typename Fn>
Status ForEachMember(Reader* r, Fn member) {
  R3_RETURN_IF_ERROR(r->Expect('{'));
  if (r->Eat('}')) return Status::OK();
  std::string key;
  while (true) {
    R3_RETURN_IF_ERROR(r->String(&key));
    R3_RETURN_IF_ERROR(r->Expect(':'));
    R3_RETURN_IF_ERROR(member(key));
    if (r->Eat('}')) return Status::OK();
    R3_RETURN_IF_ERROR(r->Expect(','));
  }
}

Status ReadEvent(Reader* r, std::vector<Span>* spans, int64_t* instants) {
  Span span;
  std::string phase;
  bool has_wall = false;
  bool has_wall_dur = false;
  R3_RETURN_IF_ERROR(ForEachMember(r, [&](const std::string& key) -> Status {
    if (key == "name") return r->String(&span.name);
    if (key == "cat") return r->String(&span.category);
    if (key == "ph") return r->String(&phase);
    if (key != "args") return r->Skip();
    return ForEachMember(r, [&](const std::string& arg) -> Status {
      if (arg == "wall_us") {
        has_wall = true;
        return r->Int(&span.start_us);
      }
      if (arg == "wall_dur_us") {
        has_wall_dur = true;
        return r->Int(&span.dur_us);
      }
      return r->Skip();
    });
  }));
  if (phase == "i") {
    ++*instants;
    return Status::OK();
  }
  if (phase != "X") return r->Error("unknown event phase '" + phase + "'");
  if (!has_wall || !has_wall_dur) {
    return r->Error("span without wall time (export with include_wall_time)");
  }
  spans->push_back(std::move(span));
  return Status::OK();
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Operator family from the first token of an operator's description
/// ("SeqScan(LINEITEM)", "IndexNLJoin(...)", "HashAggregate(...)").
std::string ExecFamily(const std::string& name) {
  std::string op = name.substr(0, name.find_first_of("( "));
  if (StartsWith(op, "Index")) return "index";  // IndexScan, IndexNL*Join
  if (EndsWith(op, "Scan")) return "scan";
  if (EndsWith(op, "Join")) return "join";
  if (EndsWith(op, "Aggregate") || op == "Distinct") return "agg";
  if (op == "Project") return "project";
  return "other";
}

}  // namespace

std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans) {
  const size_t n = spans.size();
  auto end = [&](size_t i) {
    return spans[i].start_us + std::max<int64_t>(spans[i].dur_us, 0);
  };
  // Begin order. On equal (truncated) starts the longer span began first;
  // on equal ends too, the one recorded later did — the parent, since the
  // Tracer records a span when it ends.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans[a].start_us != spans[b].start_us) {
      return spans[a].start_us < spans[b].start_us;
    }
    if (end(a) != end(b)) return end(a) > end(b);
    return a > b;
  });
  std::vector<size_t> rank(n);
  for (size_t r = 0; r < n; ++r) rank[order[r]] = r;

  struct Boundary {
    int64_t t;
    bool close;  // opens sort first, so a zero-length span opens and closes
    size_t span;
  };
  std::vector<Boundary> bounds;
  bounds.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    bounds.push_back({spans[i].start_us, false, i});
    bounds.push_back({end(i), true, i});
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.close < b.close;
            });

  std::vector<SelfTime> out(n);
  std::set<size_t> open;  // ranks; the largest began most recently
  auto active = [&]() -> int64_t {
    return open.empty() ? -1 : static_cast<int64_t>(order[*open.rbegin()]);
  };
  int64_t prev_t = 0;
  for (size_t k = 0; k < bounds.size();) {
    const int64_t t = bounds[k].t;
    const int64_t before = active();
    if (before >= 0) out[before].self_us += t - prev_t;
    size_t j = k;
    for (; j < bounds.size() && bounds[j].t == t; ++j) {
      if (bounds[j].close) {
        open.erase(rank[bounds[j].span]);
      } else {
        open.insert(rank[bounds[j].span]);
      }
    }
    const int64_t after = active();
    const int64_t count = static_cast<int64_t>(j - k);
    if (before >= 0) out[before].boundaries += count;
    if (after >= 0 && after != before) out[after].boundaries += count;
    prev_t = t;
    k = j;
  }
  return out;
}

Status ParseChromeTrace(const std::string& json, std::vector<Span>* spans,
                        int64_t* instants, int64_t* dropped) {
  Reader r(json);
  R3_RETURN_IF_ERROR(ForEachMember(&r, [&](const std::string& key) -> Status {
    if (key == "traceEvents") {
      R3_RETURN_IF_ERROR(r.Expect('['));
      if (r.Eat(']')) return Status::OK();
      while (true) {
        R3_RETURN_IF_ERROR(ReadEvent(&r, spans, instants));
        if (r.Eat(']')) return Status::OK();
        R3_RETURN_IF_ERROR(r.Expect(','));
      }
    }
    if (key == "otherData") {
      return ForEachMember(&r, [&](const std::string& k) -> Status {
        if (k == "dropped_events") return r.Int(dropped);
        return r.Skip();
      });
    }
    return r.Skip();
  }));
  if (!r.AtEnd()) return r.Error("trailing bytes");
  return Status::OK();
}

std::string LayerOf(const Span& span) {
  const std::string& cat = span.category;
  if (cat == "sql") {
    for (const char* phase : {"parse", "bind", "optimize", "execute", "prepare"}) {
      if (span.name == phase) return "sql." + span.name;
    }
    return "other";
  }
  if (cat == "exec") return "exec." + ExecFamily(span.name);
  if (cat == "app" || cat == "interface" || cat == "txn" || cat == "sap" ||
      cat == "bench") {
    return cat;
  }
  return "other";
}

void AccumulateLayers(const std::vector<Span>& spans,
                      std::map<std::string, LayerTotal>* totals) {
  std::vector<SelfTime> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotal& t = (*totals)[LayerOf(spans[i])];
    t.self_us += self[i].self_us;
    t.boundaries += self[i].boundaries;
    ++t.spans;
  }
}

}  // namespace wallbench
