#include "obs/stats_diff.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "base/strings.h"

namespace gelc {
namespace obs {

namespace {

// Recursive-descent JSON parser over the snapshot grammar. Strict where
// it matters (no trailing garbage, proper escapes) and tolerant of
// whitespace. Depth-limited so fuzzer-shaped input cannot blow the
// stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Status Parse(JsonValue* out) {
    Status s = ParseValue(out, 0);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (ConsumeLiteral("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    if (ConsumeLiteral("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->object[key] = std::move(value);
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      Status s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (JsonEscape only ever emits
          // \u00xx control escapes, but accept the full plane).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool saw_digit = false;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        saw_digit = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (!saw_digit) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out->number_value)) {
      return Error("number '" + token + "' is not finite");
    }
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), nullptr, 10);
      if (errno == 0) {
        out->is_int = true;
        out->int_value = static_cast<int64_t>(v);
      }
    }
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool HasIgnoredPrefix(const std::string& name,
                      const std::vector<std::string>& prefixes) {
  for (const std::string& p : prefixes) {
    if (name.compare(0, p.size(), p) == 0) return true;
  }
  return false;
}

// Union of the keys on both sides, sorted (both inputs are sorted maps).
template <typename M>
std::vector<std::string> UnionKeys(const M& a, const M& b) {
  std::set<std::string> keys;
  for (const auto& [k, v] : a) keys.insert(k);
  for (const auto& [k, v] : b) keys.insert(k);
  return std::vector<std::string>(keys.begin(), keys.end());
}

std::string DeltaPct(double old_v, double new_v) {
  if (old_v == 0.0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%",
                100.0 * (new_v - old_v) / old_v);
  return buf;
}

int64_t ReadInt(const JsonValue* v) {
  if (v == nullptr) return 0;
  return v->is_int ? v->int_value : static_cast<int64_t>(v->number_value);
}

double ReadNum(const JsonValue* v) {
  if (v == nullptr) return 0.0;
  return v->is_int ? static_cast<double>(v->int_value) : v->number_value;
}

}  // namespace

Status ParseJson(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  return JsonParser(text).Parse(out);
}

Status ParseSnapshotJson(const std::string& text, ParsedSnapshot* out) {
  *out = ParsedSnapshot();
  JsonValue root;
  Status s = ParseJson(text, &root);
  if (!s.ok()) return s;
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("snapshot is not a JSON object");
  }
  const JsonValue* snap = &root;
  // A BENCH_p*.json file wraps the snapshot under "gelc_metrics".
  if (const JsonValue* wrapped = root.Find("gelc_metrics")) {
    if (wrapped->kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("gelc_metrics is not a JSON object");
    }
    snap = wrapped;
  }
  if (const JsonValue* counters = snap->Find("counters")) {
    for (const auto& [name, v] : counters->object) {
      out->counters[name] = ReadInt(&v);
    }
  }
  if (const JsonValue* gauges = snap->Find("gauges")) {
    for (const auto& [name, v] : gauges->object) {
      out->gauges[name] = ReadNum(&v);
    }
  }
  if (const JsonValue* histograms = snap->Find("histograms")) {
    out->histograms = histograms->object;
  }
  if (const JsonValue* timings = snap->Find("timings")) {
    out->timings = timings->object;
  }
  return Status::OK();
}

Status LoadSnapshotFile(const std::string& path, ParsedSnapshot* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open snapshot " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  Status s = ParseSnapshotJson(buf.str(), out);
  if (!s.ok()) {
    return Status::InvalidArgument(path + ": " + s.message());
  }
  return Status::OK();
}

DiffReport DiffSnapshots(const ParsedSnapshot& old_snap,
                         const ParsedSnapshot& new_snap,
                         const DiffOptions& options) {
  DiffReport report;
  std::ostringstream out;

  out << "counters:\n";
  for (const std::string& name :
       UnionKeys(old_snap.counters, new_snap.counters)) {
    if (HasIgnoredPrefix(name, options.ignore)) continue;
    auto oit = old_snap.counters.find(name);
    auto nit = new_snap.counters.find(name);
    if (oit == old_snap.counters.end()) {
      out << "  + " << name << " = " << nit->second << " (new)\n";
      continue;
    }
    if (nit == new_snap.counters.end()) {
      out << "  - " << name << " (was " << oit->second << ")\n";
      continue;
    }
    const int64_t old_v = oit->second;
    const int64_t new_v = nit->second;
    const bool regressed =
        old_v > 0 && static_cast<double>(new_v) >
                         static_cast<double>(old_v) * (1.0 + options.threshold);
    out << "  " << (regressed ? "! " : "  ") << name << ": " << old_v
        << " -> " << new_v << " ("
        << DeltaPct(static_cast<double>(old_v), static_cast<double>(new_v))
        << ")" << (regressed ? "  REGRESSION" : "") << "\n";
    if (regressed) report.regressions.push_back(name);
  }

  out << "gauges:\n";
  for (const std::string& name :
       UnionKeys(old_snap.gauges, new_snap.gauges)) {
    if (HasIgnoredPrefix(name, options.ignore)) continue;
    auto oit = old_snap.gauges.find(name);
    auto nit = new_snap.gauges.find(name);
    if (oit == old_snap.gauges.end()) {
      out << "  + " << name << " = " << FormatDouble(nit->second)
          << " (new)\n";
    } else if (nit == new_snap.gauges.end()) {
      out << "  - " << name << " (was " << FormatDouble(oit->second)
          << ")\n";
    } else {
      out << "    " << name << ": " << FormatDouble(oit->second) << " -> "
          << FormatDouble(nit->second) << " ("
          << DeltaPct(oit->second, nit->second) << ")\n";
    }
  }

  out << "histograms:\n";
  for (const std::string& name :
       UnionKeys(old_snap.histograms, new_snap.histograms)) {
    if (HasIgnoredPrefix(name, options.ignore)) continue;
    auto oit = old_snap.histograms.find(name);
    auto nit = new_snap.histograms.find(name);
    const int64_t old_total =
        oit == old_snap.histograms.end() ? 0 : ReadInt(oit->second.Find("total"));
    const int64_t new_total =
        nit == new_snap.histograms.end() ? 0 : ReadInt(nit->second.Find("total"));
    const int64_t old_sum =
        oit == old_snap.histograms.end() ? 0 : ReadInt(oit->second.Find("sum"));
    const int64_t new_sum =
        nit == new_snap.histograms.end() ? 0 : ReadInt(nit->second.Find("sum"));
    out << "    " << name << ": total " << old_total << " -> " << new_total
        << ", sum " << old_sum << " -> " << new_sum << "\n";
  }

  out << "timings (informational, never gated):\n";
  for (const std::string& name :
       UnionKeys(old_snap.timings, new_snap.timings)) {
    if (HasIgnoredPrefix(name, options.ignore)) continue;
    auto oit = old_snap.timings.find(name);
    auto nit = new_snap.timings.find(name);
    const double old_p50 =
        oit == old_snap.timings.end() ? 0.0 : ReadNum(oit->second.Find("p50_ns"));
    const double new_p50 =
        nit == new_snap.timings.end() ? 0.0 : ReadNum(nit->second.Find("p50_ns"));
    const double old_p99 =
        oit == old_snap.timings.end() ? 0.0 : ReadNum(oit->second.Find("p99_ns"));
    const double new_p99 =
        nit == new_snap.timings.end() ? 0.0 : ReadNum(nit->second.Find("p99_ns"));
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    %s: p50 %.3fms -> %.3fms (%s), p99 %.3fms -> %.3fms "
                  "(%s)\n",
                  name.c_str(), old_p50 / 1e6, new_p50 / 1e6,
                  DeltaPct(old_p50, new_p50).c_str(), old_p99 / 1e6,
                  new_p99 / 1e6, DeltaPct(old_p99, new_p99).c_str());
    out << line;
  }

  if (!report.regressions.empty()) {
    out << "REGRESSED: " << report.regressions.size()
        << " counter(s) past threshold "
        << FormatDouble(options.threshold) << "\n";
  }
  report.text = out.str();
  return report;
}

}  // namespace obs
}  // namespace gelc
