#ifndef ACTIVEDP_TESTS_JSON_CHECKER_H_
#define ACTIVEDP_TESTS_JSON_CHECKER_H_

// Minimal recursive-descent JSON syntax checker shared by the tests that
// prove exported text well-formed (trace exports, metrics / SLO / incident
// schemas, chaos-matrix reports) without a JSON dependency. Strict where
// hand-built JSON usually goes wrong: unescaped quotes, dangling escapes
// and raw control characters inside strings are rejected.

#include <cctype>
#include <string>

namespace activedp {

class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker checker(text);
    checker.SkipWs();
    if (!checker.Value()) return false;
    checker.SkipWs();
    return checker.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        pos_ += 2;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace activedp

#endif  // ACTIVEDP_TESTS_JSON_CHECKER_H_
