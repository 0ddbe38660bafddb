#include "util/json_reader.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace dtm {

JsonValue JsonReader::parse() {
  JsonValue v = parse_value();
  skip_ws();
  DTM_REQUIRE(pos_ == text_.size(), "JSON: trailing garbage at " << pos_);
  return v;
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::peek() {
  skip_ws();
  DTM_REQUIRE(pos_ < text_.size(), "JSON: unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  DTM_REQUIRE(peek() == c, "JSON: expected '" << c << "' at " << pos_);
  ++pos_;
}

bool JsonReader::try_consume(char c) {
  if (peek() == c) {
    ++pos_;
    return true;
  }
  return false;
}

void JsonReader::expect_literal(const std::string& lit) {
  DTM_REQUIRE(text_.compare(pos_, lit.size(), lit) == 0,
              "JSON: bad literal at " << pos_);
  pos_ += lit.size();
}

JsonValue JsonReader::parse_value() {
  switch (peek()) {
    case '{': return parse_object();
    case '[': return parse_array();
    case '"': {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
      return v;
    }
    case 't': {
      expect_literal("true");
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    case 'f': {
      expect_literal("false");
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    case 'n': {
      expect_literal("null");
      return JsonValue{};
    }
    default: return parse_number();
  }
}

JsonValue JsonReader::parse_object() {
  expect('{');
  JsonValue v;
  v.kind = JsonValue::Kind::kObject;
  if (try_consume('}')) return v;
  for (;;) {
    const std::string key = (peek(), parse_string());
    expect(':');
    v.obj.emplace(key, parse_value());
    if (try_consume('}')) return v;
    expect(',');
  }
}

JsonValue JsonReader::parse_array() {
  expect('[');
  JsonValue v;
  v.kind = JsonValue::Kind::kArray;
  if (try_consume(']')) return v;
  for (;;) {
    v.arr.push_back(parse_value());
    if (try_consume(']')) return v;
    expect(',');
  }
}

std::string JsonReader::parse_string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c != '\\') {
      out += c;
      continue;
    }
    DTM_REQUIRE(pos_ < text_.size(), "JSON: dangling escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        DTM_REQUIRE(pos_ + 4 <= text_.size(), "JSON: short \\u escape");
        // from_chars into an unsigned reads hex digits only: no sign, no
        // space, no "0x".
        const char* first = text_.data() + pos_;
        unsigned code = 0;
        const auto [last, ec] = std::from_chars(first, first + 4, code, 16);
        DTM_REQUIRE(ec == std::errc() && last == first + 4,
                    "JSON: \\u escape needs four hex digits");
        pos_ += 4;
        // Our artifacts only escape ASCII control chars; reject the rest
        // rather than mis-decoding surrogate pairs.
        DTM_REQUIRE(code < 0x80, "JSON: non-ASCII \\u escape unsupported");
        out += static_cast<char>(code);
        break;
      }
      default: throw Error("JSON: bad escape character");
    }
  }
  expect('"');
  return out;
}

JsonValue JsonReader::parse_number() {
  // The JSON grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?. The
  // scan stops at the first character outside it, so "1-2" yields 1 and
  // the caller then rejects the '-'.
  const std::size_t start = pos_;
  const auto at = [&](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  const auto digits = [&] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > from;
  };
  if (at('-')) ++pos_;
  if (at('0')) {
    ++pos_;
  } else {
    DTM_REQUIRE(digits(), "JSON: expected a value at " << start);
  }
  if (at('.')) {
    ++pos_;
    DTM_REQUIRE(digits(), "JSON: expected a digit after '.' at " << pos_);
  }
  if (at('e') || at('E')) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    DTM_REQUIRE(digits(), "JSON: expected an exponent digit at " << pos_);
  }
  JsonValue v;
  v.kind = JsonValue::Kind::kNumber;
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  const auto [end, ec] = std::from_chars(first, last, v.number);
  DTM_REQUIRE(ec == std::errc() && end == last,
              "JSON: number " << std::string(first, last)
                              << " out of range at " << start);
  return v;
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path);
  DTM_REQUIRE(in.good(), "cannot open " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return JsonReader(text).parse();
}

}  // namespace dtm
