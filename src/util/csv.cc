#include "util/csv.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace mn {
namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  for (char ch : line) {
    if (ch == ',') {
      cells.push_back(std::move(cur));
      cur.clear();
    } else if (ch != '\r') {
      cur.push_back(ch);
    }
  }
  cells.push_back(std::move(cur));
  return cells;
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {}

void CsvWriter::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::runtime_error("CSV row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::str() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << ',';
      os << cells[i];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void CsvWriter::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out << str();
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::size_t CsvData::col(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::runtime_error("CSV column not found: " + name);
}

CsvData parse_csv(const std::string& text) {
  CsvData data;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto cells = split_line(line);
    if (first) {
      data.header = std::move(cells);
      first = false;
    } else {
      if (cells.size() != data.header.size()) {
        throw std::runtime_error("CSV ragged row");
      }
      data.rows.push_back(std::move(cells));
    }
  }
  return data;
}

std::string format_double(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) throw std::runtime_error("format_double: to_chars failed");
  return std::string(buf, end);
}

double parse_double(const std::string& cell) {
  double v = 0.0;
  const char* first = cell.data();
  const char* last = first + cell.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last || cell.empty()) {
    throw std::runtime_error("not a number: \"" + cell + "\"");
  }
  return v;
}

std::int64_t parse_int(const std::string& token, std::int64_t lo, std::int64_t hi) {
  std::int64_t v = 0;
  const char* first = token.data();
  const char* last = first + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  // from_chars stops at the first non-digit: a short parse means junk.
  if (ptr != last || token.empty()) {
    throw std::runtime_error("not an integer: \"" + token + "\"");
  }
  if (ec != std::errc{} || v < lo || v > hi) {
    throw std::runtime_error("integer out of range: \"" + token + "\"");
  }
  return v;
}

CsvData load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_csv(buf.str());
}

}  // namespace mn
