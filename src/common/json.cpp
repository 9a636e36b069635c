#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/binio.h"

namespace edgeslice {

void write_json_escaped(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

std::string json_number(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// --- BenchReport -----------------------------------------------------------

void BenchReport::add(std::string_view key, std::string value) {
  fields_.emplace_back(std::string(key), std::move(value));
}

void BenchReport::number(std::string_view key, double value) {
  add(key, json_number(value));
}

void BenchReport::numbers(std::string_view key, const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  add(key, out + "]");
}

void BenchReport::text(std::string_view key, std::string_view value) {
  std::ostringstream out;
  write_json_escaped(out, value);
  add(key, out.str());
}

void BenchReport::flag(std::string_view key, bool value) {
  add(key, value ? "true" : "false");
}

std::string BenchReport::render() const {
  std::ostringstream out;
  out << "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out << "  ";
    write_json_escaped(out, fields_[i].first);
    out << ": " << fields_[i].second << (i + 1 < fields_.size() ? ",\n" : "\n");
  }
  out << "}\n";
  return out.str();
}

bool BenchReport::write(const std::string& path, std::string& error) const {
  if (fields_.size() != schema_.size()) {
    error = "report has " + std::to_string(fields_.size()) + " fields, schema lists " +
            std::to_string(schema_.size());
    return false;
  }
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].first != schema_[i]) {
      error = "field " + std::to_string(i) + " is \"" + fields_[i].first +
              "\", schema says \"" + schema_[i] + "\"";
      return false;
    }
  }
  if (!atomic_write_file(path, render())) {
    error = "cannot write " + path;
    return false;
  }
  return true;
}

// --- parse_flat_json -------------------------------------------------------

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("flat JSON: " + what);
}

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
    ++i;
  return i;
}

/// The four hex digits of a \uXXXX escape starting at `i`; advances past them.
std::uint32_t read_hex4(const std::string& s, std::size_t& i) {
  std::uint32_t v = 0;
  const char* first = s.data() + i;
  const char* last = s.data() + std::min(s.size(), i + 4);
  if (last - first != 4 || std::from_chars(first, last, v, 16).ptr != last)
    fail("bad \\u escape");
  i += 4;
  return v;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

/// The code point of the \u escape whose hex digits start at `i` (a
/// surrogate pair takes the following \uXXXX too); advances past it.
std::uint32_t read_code_point(const std::string& s, std::size_t& i) {
  const std::uint32_t high = read_hex4(s, i);
  if (high >= 0xdc00 && high <= 0xdfff) fail("lone low surrogate");
  if (high < 0xd800 || high > 0xdbff) return high;
  if (s.compare(i, 2, "\\u") != 0) fail("lone high surrogate");
  i += 2;
  const std::uint32_t low = read_hex4(s, i);
  if (low < 0xdc00 || low > 0xdfff) fail("bad low surrogate");
  return 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
}

/// Read a JSON string starting at the opening quote; returns the
/// unescaped contents and advances past the closing quote.
std::string read_string(const std::string& s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') fail("expected string");
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    if (s[i] != '\\') {
      out.push_back(s[i++]);
      continue;
    }
    if (++i >= s.size()) fail("truncated escape");
    const char c = s[i++];
    switch (c) {
      case '"': case '\\': case '/': out.push_back(c); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': append_utf8(out, read_code_point(s, i)); break;
      default: fail(std::string("invalid escape \\") + c);
    }
  }
  if (i >= s.size()) fail("unterminated string");
  ++i;  // closing quote
  return out;
}

/// Skip a balanced [...] or {...} (strings handled), starting at the
/// opening bracket; advances past the matching close.
void skip_nested(const std::string& s, std::size_t& i) {
  int depth = 0;
  do {
    if (i >= s.size()) fail("unterminated array/object");
    const char c = s[i];
    if (c == '"') {
      read_string(s, i);
      continue;
    }
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    ++i;
  } while (depth > 0);
}

}  // namespace

std::map<std::string, std::string> parse_flat_json(const std::string& text) {
  std::map<std::string, std::string> fields;
  std::size_t i = skip_ws(text, 0);
  if (i >= text.size() || text[i] != '{') fail("expected object");
  ++i;
  i = skip_ws(text, i);
  if (i < text.size() && text[i] == '}') return fields;
  for (;;) {
    i = skip_ws(text, i);
    const std::string key = read_string(text, i);
    i = skip_ws(text, i);
    if (i >= text.size() || text[i] != ':') fail("expected ':' after key " + key);
    ++i;
    i = skip_ws(text, i);
    if (i >= text.size()) fail("truncated value of " + key);
    if (text[i] == '"') {
      fields[key] = read_string(text, i);
    } else if (text[i] == '[' || text[i] == '{') {
      skip_nested(text, i);  // arrays/objects are not flat-report material
    } else {
      std::string token;
      while (i < text.size() && text[i] != ',' && text[i] != '}' &&
             text[i] != ' ' && text[i] != '\n' && text[i] != '\t' && text[i] != '\r') {
        token.push_back(text[i]);
        ++i;
      }
      if (token.empty()) fail("empty value of " + key);
      fields[key] = token;
    }
    i = skip_ws(text, i);
    if (i >= text.size()) fail("unterminated object");
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] == '}') return fields;
    fail("expected ',' or '}' after value of " + key);
  }
}

}  // namespace edgeslice
