#include "src/core/journal/json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mfc {
namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) {
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (error_ != nullptr) {
      *error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t n = strlen(word);
    if (text_.substr(pos_, n) != word) {
      return false;
    }
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->scalar);
      case 't':
        if (!Literal("true")) {
          return Fail("bad literal");
        }
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!Literal("false")) {
          return Fail("bad literal");
        }
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!Literal("null")) {
          return Fail("bad literal");
        }
        out->kind = JsonValue::Kind::kNull;
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->fields.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->items.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // The writer only emits \u00XX for control bytes; decode the
          // low byte and encode anything else as UTF-8.
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
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->scalar = std::string(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : fields) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

uint64_t JsonValue::U64(bool* ok) const {
  if (kind != Kind::kNumber || scalar.empty()) {
    if (ok != nullptr) {
      *ok = false;
    }
    return 0;
  }
  char* end = nullptr;
  uint64_t v = strtoull(scalar.c_str(), &end, 10);
  bool good = end != nullptr && *end == '\0';
  if (ok != nullptr) {
    *ok = good;
  }
  return good ? v : 0;
}

double JsonValue::Double(bool* ok) const {
  if (kind != Kind::kNumber || scalar.empty()) {
    if (ok != nullptr) {
      *ok = false;
    }
    return 0.0;
  }
  char* end = nullptr;
  double v = strtod(scalar.c_str(), &end);
  bool good = end != nullptr && *end == '\0';
  if (ok != nullptr) {
    *ok = good;
  }
  return good ? v : 0.0;
}

bool JsonValue::Bool(bool* ok) const {
  if (kind != Kind::kBool) {
    if (ok != nullptr) {
      *ok = false;
    }
    return false;
  }
  if (ok != nullptr) {
    *ok = true;
  }
  return boolean;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  Parser parser(text, error);
  return parser.ParseDocument(out);
}

std::string EncodeExactDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  snprintf(buf, sizeof(buf), "x%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

bool DecodeExactDouble(std::string_view s, double* out) {
  if (s.size() != 17 || s[0] != 'x') {
    return false;
  }
  uint64_t bits = 0;
  for (size_t i = 1; i < 17; ++i) {
    char c = s[i];
    bits <<= 4;
    if (c >= '0' && c <= '9') {
      bits |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      bits |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  memcpy(out, &bits, sizeof(bits));
  return true;
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace mfc
