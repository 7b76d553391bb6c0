#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"

namespace dlbench::util {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DLB_CHECK(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  DLB_CHECK(cells.size() == headers_.size(),
            "row has " << cells.size() << " cells, expected "
                       << headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::set_title(std::string title) { title_ = std::move(title); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto rule = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      s += ' ';
      s += pad_right(cells[c], widths[c]);
      s += " |";
    }
    return s + "\n";
  };

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  out += rule();
  out += line(headers_);
  out += rule();
  for (const auto& row : rows_) out += line(row);
  out += rule();
  return out;
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"') q += "\"\"";
      else q += ch;
    }
    return q + "\"";
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << (c ? "," : "") << escape(headers_[c]);
  os << "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      os << (c ? "," : "") << escape(row[c]);
    os << "\n";
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  return os << t.to_string();
}

}  // namespace dlbench::util
