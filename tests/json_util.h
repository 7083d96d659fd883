// A minimal JSON parser for tests, just rich enough for the exporters'
// output (metrics JSONL, flight-recorder dumps), so round-trip checks parse
// real JSON instead of substring-matching. Malformed input fails the
// calling test through gtest expectations.

#ifndef PDR_TESTS_JSON_UTIL_H_
#define PDR_TESTS_JSON_UTIL_H_

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pdr {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonObject>, std::shared_ptr<JsonArray>>
      v = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }

  const JsonValue* Find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = object().find(key);
    return it == object().end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    EXPECT_EQ(pos_, s_.size()) << "trailing JSON garbage";
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char Peek() {
    SkipWs();
    EXPECT_LT(pos_, s_.size()) << "unexpected end of JSON";
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  char Next() {
    const char c = Peek();
    ++pos_;
    return c;
  }
  void Expect(char c) {
    const char got = Next();
    EXPECT_EQ(got, c) << "at position " << pos_;
  }

  JsonValue ParseValue() {
    const char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return JsonValue{ParseString()};
    if (c == 'n') {
      pos_ += 4;
      return JsonValue{nullptr};
    }
    if (c == 't') {
      pos_ += 4;
      return JsonValue{true};
    }
    if (c == 'f') {
      pos_ += 5;
      return JsonValue{false};
    }
    return ParseNumber();
  }

  JsonValue ParseObject() {
    Expect('{');
    auto obj = std::make_shared<JsonObject>();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    while (true) {
      const std::string key = ParseString();
      Expect(':');
      (*obj)[key] = ParseValue();
      const char c = Next();
      if (c == '}') break;
      EXPECT_EQ(c, ',');
      if (c != ',') break;
    }
    return JsonValue{obj};
  }

  JsonValue ParseArray() {
    Expect('[');
    auto arr = std::make_shared<JsonArray>();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    while (true) {
      arr->push_back(ParseValue());
      const char c = Next();
      if (c == ']') break;
      EXPECT_EQ(c, ',');
      if (c != ',') break;
    }
    return JsonValue{arr};
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            c = static_cast<char>(
                std::stoi(std::string(s_.substr(pos_, 4)), nullptr, 16));
            pos_ += 4;
            break;
          default: c = esc;
        }
      }
      out.push_back(c);
    }
    Expect('"');
    return out;
  }

  JsonValue ParseNumber() {
    SkipWs();
    size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    const double v = std::stod(std::string(s_.substr(pos_, end - pos_)));
    pos_ = end;
    return JsonValue{v};
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace pdr

#endif  // PDR_TESTS_JSON_UTIL_H_
