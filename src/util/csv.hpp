// Minimal CSV writing/reading used to persist datasets (campaign runs,
// recorded traffic) and bench series.  Only what multinet needs: numeric
// and simple-string cells, comma-separated, first row is the header.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mn {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Serialize to CSV text.
  [[nodiscard]] std::string str() const;
  /// Write to a file; throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

struct CsvData {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws if absent.
  [[nodiscard]] std::size_t col(const std::string& name) const;
};

/// Parse CSV text (no quoting/escaping — our writers never emit commas
/// inside cells).  Throws std::runtime_error on ragged rows.
[[nodiscard]] CsvData parse_csv(const std::string& text);
/// Load and parse a CSV file; throws std::runtime_error on I/O failure.
[[nodiscard]] CsvData load_csv(const std::string& path);

/// Shortest decimal representation that parses back to exactly the same
/// double (std::to_chars round-trip guarantee).  Every writer that
/// persists doubles must use this — std::to_string truncates to six
/// fixed decimals and silently corrupts reload-and-analyze pipelines.
[[nodiscard]] std::string format_double(double v);

/// Strict double parse of a whole cell: rejects empty cells, leading
/// junk, and trailing junk ("1.2x" is an error, not 1.2).  Throws
/// std::runtime_error naming the offending cell.
[[nodiscard]] double parse_double(const std::string& cell);

/// Strict integer parse of a whole token, the integer twin of
/// parse_double: rejects empty tokens, leading junk, trailing junk
/// ("10junk" is an error, not 10) and values outside [lo, hi].  Throws
/// std::runtime_error naming the offending token.
[[nodiscard]] std::int64_t parse_int(
    const std::string& token, std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());

}  // namespace mn
