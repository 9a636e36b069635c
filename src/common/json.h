// The repo's one JSON vocabulary: string escaping shared by every
// exporter (metrics, span tracer, flight recorder, bench ledger), the
// exact number rendering every report and fingerprint uses, and the flat
// BENCH_*.json report — written by BenchReport, read back by
// parse_flat_json — that benches publish and tools/bench_ledger records.
//
// RFC 8259: quote, backslash, and every control character below 0x20 must
// be escaped — a metric name containing a tab or newline must never
// produce an unparseable document.
#pragma once

#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace edgeslice {

/// Write `s` as a double-quoted JSON string, escaping `"`, `\`, and all
/// control characters (short forms \n \t \r \b \f, \u00XX otherwise).
void write_json_escaped(std::ostream& out, std::string_view s);

/// `v` printf'd with 17 significant digits (%g style, trailing zeros
/// dropped): enough that parsing the text gives back the same double.
/// Every report field and every configuration fingerprint renders
/// doubles through this one function, so fingerprint texts stay
/// byte-identical across writers. Non-finite values render as "nan" /
/// "inf" (not JSON; no report emits them).
std::string json_number(double v);

/// One flat BENCH_*.json report: a JSON object of scalar and number-array
/// fields, in the order added. The bench's schema table lists every field
/// name in emission order (the docs check pins each name to the docs);
/// write() refuses a report that does not match it exactly, so a field
/// cannot be added, renamed, or dropped without the table following.
class BenchReport {
 public:
  /// `schema` must outlive the report (benches pass a constexpr table).
  explicit BenchReport(std::span<const char* const> schema) : schema_(schema) {}

  void number(std::string_view key, double value);
  void numbers(std::string_view key, const std::vector<double>& values);
  void text(std::string_view key, std::string_view value);
  void flag(std::string_view key, bool value);

  /// "{\n  \"key\": value,\n ...}\n" — one field per line.
  std::string render() const;

  /// Check the fields against the schema, then publish the rendering via
  /// atomic_write_file. On failure returns false and says why in `error`.
  bool write(const std::string& path, std::string& error) const;

 private:
  void add(std::string_view key, std::string value);

  std::span<const char* const> schema_;
  std::vector<std::pair<std::string, std::string>> fields_;  // key, JSON value
};

/// Parse the top-level scalar fields of one flat JSON object into
/// key -> raw value token ("640.44", "\"avx2\"" unescaped to avx2,
/// "true"). Nested arrays/objects are skipped wholesale. Throws
/// std::runtime_error on malformed input, including invalid escapes.
std::map<std::string, std::string> parse_flat_json(const std::string& text);

}  // namespace edgeslice
