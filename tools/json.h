// The JSON reader and command line shared by the JSON validators
// (trace_dump, bench_dump). The reader is a deliberately minimal
// recursive-descent parser — just enough for the trace-event and
// BENCH_E*.json schemas — so the tools, like the rest of the repo, have no
// third-party dependencies. It is strict about syntax: malformed input or
// trailing garbage fails with a byte offset. Numbers are doubles.

#ifndef DVS_TOOLS_JSON_H_
#define DVS_TOOLS_JSON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace dvs {
namespace tools {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> items;                      // arrays
  std::vector<std::pair<std::string, JsonValue>> fields;  // objects

  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size() || Fail("trailing garbage");
  }

  std::string error() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s at byte %zu", error_.c_str(), pos_);
    return buf;
  }

 private:
  bool Fail(const char* msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return Fail("bad literal");
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return Fail("truncated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // Writers only escape control bytes; decode BMP as UTF-8.
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
            return Fail("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= s_.size()) return Fail("unexpected end of input");
    char c = s_[pos_];
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return Fail("expected ':'");
        SkipWs();
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->fields.emplace_back(std::move(key), std::move(v));
        SkipWs();
        if (pos_ >= s_.size()) return Fail("unterminated object");
        char d = s_[pos_++];
        if (d == '}') return true;
        if (d != ',') return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipWs();
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->items.push_back(std::move(v));
        SkipWs();
        if (pos_ >= s_.size()) return Fail("unterminated array");
        char d = s_[pos_++];
        if (d == ']') return true;
        if (d != ',') return Fail("expected ',' or ']'");
      }
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->b = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->b = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return Literal("null");
    }
    // Number.
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("unexpected character");
    out->kind = JsonValue::Kind::kNumber;
    out->num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;
};

/// The validators' shared command line: `<tool> [--quiet] <file>`. Reads
/// the file, parses it, and returns `validate(root, quiet)`; exit 1 when the
/// file cannot be read, 2 on usage errors, 3 on malformed JSON.
inline int RunJsonValidator(int argc, char** argv, const char* tool,
                            const char* file_arg,
                            int (*validate)(const JsonValue& root,
                                            bool quiet)) {
  bool quiet = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() != 1) {
    std::fprintf(stderr, "usage: %s [--quiet] %s\n", tool, file_arg);
    return 2;
  }
  std::FILE* f = std::fopen(args[0].c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open '%s'\n", tool, args[0].c_str());
    return 1;
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) {
    std::fprintf(stderr, "%s: malformed JSON: %s\n", tool,
                 parser.error().c_str());
    return 3;
  }
  return validate(root, quiet);
}

}  // namespace tools
}  // namespace dvs

#endif  // DVS_TOOLS_JSON_H_
