#include "emu/record.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace mn {
namespace {

std::size_t common_prefix(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

int header_agreement(const HttpRequest& a, const HttpRequest& b) {
  int score = 0;
  for (const auto& h : a.headers) {
    if (is_time_sensitive_header(h.name)) continue;
    const auto v = b.header(h.name);
    if (v && *v == h.value) ++score;
  }
  return score;
}

}  // namespace

std::optional<RecordedExchange> RecordStore::match(const HttpRequest& request) const {
  const RecordedExchange* best = nullptr;
  bool best_exact = false;
  std::size_t best_prefix = 0;
  int best_headers = -1;
  for (const auto& e : exchanges_) {
    if (e.request.method != request.method) continue;
    const bool exact = e.request.uri == request.uri;
    const std::size_t prefix = common_prefix(e.request.uri, request.uri);
    if (!exact && prefix == 0) continue;
    const int headers = header_agreement(request, e.request);
    // Exact URI beats prefix; longer prefix beats shorter; then headers.
    const bool better = (exact && !best_exact) ||
                        (exact == best_exact &&
                         (prefix > best_prefix ||
                          (prefix == best_prefix && headers > best_headers)));
    if (best == nullptr || better) {
      best = &e;
      best_exact = exact;
      best_prefix = prefix;
      best_headers = headers;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::string RecordStore::serialize() const {
  std::ostringstream os;
  for (const auto& e : exchanges_) {
    os << "EXCHANGE\n";
    os << "METHOD " << e.request.method << "\n";
    os << "URI " << e.request.uri << "\n";
    for (const auto& h : e.request.headers) {
      os << "REQHDR " << h.name << ": " << h.value << "\n";
    }
    os << "REQBODY " << e.request.body_bytes << "\n";
    os << "STATUS " << e.response.status << "\n";
    for (const auto& h : e.response.headers) {
      os << "RESPHDR " << h.name << ": " << h.value << "\n";
    }
    os << "RESPBODY " << e.response.body_bytes << "\n";
    os << "END\n";
  }
  return os.str();
}

RecordStore RecordStore::deserialize(const std::string& text) {
  RecordStore store;
  std::istringstream in(text);
  std::string line;
  std::optional<RecordedExchange> cur;
  auto parse_header = [](const std::string& rest) {
    const auto colon = rest.find(": ");
    if (colon == std::string::npos) {
      throw std::runtime_error("RecordStore: bad header line: " + rest);
    }
    return HttpHeader{rest.substr(0, colon), rest.substr(colon + 2)};
  };
  auto number = [&line](const std::string& rest, std::int64_t lo,
                        std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
    try {
      return parse_int(rest, lo, hi);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("RecordStore: bad line \"" + line + "\": " + e.what());
    }
  };
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto space = line.find(' ');
    const std::string tag = line.substr(0, space);
    const std::string rest = space == std::string::npos ? "" : line.substr(space + 1);
    if (tag == "EXCHANGE") {
      cur = RecordedExchange{};
    } else if (!cur) {
      throw std::runtime_error("RecordStore: content outside EXCHANGE block");
    } else if (tag == "METHOD") {
      cur->request.method = rest;
    } else if (tag == "URI") {
      cur->request.uri = rest;
    } else if (tag == "REQHDR") {
      cur->request.headers.push_back(parse_header(rest));
    } else if (tag == "REQBODY") {
      cur->request.body_bytes = number(rest, 0);
    } else if (tag == "STATUS") {
      cur->response.status = static_cast<int>(
          number(rest, std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
    } else if (tag == "RESPHDR") {
      cur->response.headers.push_back(parse_header(rest));
    } else if (tag == "RESPBODY") {
      cur->response.body_bytes = number(rest, 0);
    } else if (tag == "END") {
      store.add(std::move(*cur));
      cur.reset();
    } else {
      throw std::runtime_error("RecordStore: unknown tag: " + tag);
    }
  }
  if (cur) throw std::runtime_error("RecordStore: truncated EXCHANGE block");
  return store;
}

void RecordStore::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("RecordStore: cannot write " + path);
  out << serialize();
}

RecordStore RecordStore::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("RecordStore: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str());
}

}  // namespace mn
