#include "eval/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace roarray::eval {

void print_cdf_table(std::ostream& os, const std::string& title,
                     const std::vector<NamedCdf>& curves,
                     const std::vector<double>& fractions,
                     const std::string& unit) {
  os << "== " << title << " ==\n";
  os << std::left << std::setw(12) << "percentile";
  for (const NamedCdf& c : curves) os << std::setw(16) << (c.name + " (" + unit + ")");
  os << "\n";
  for (double f : fractions) {
    os << std::left << std::setw(12) << (std::to_string(static_cast<int>(f * 100)) + "%");
    for (const NamedCdf& c : curves) {
      if (c.cdf.empty()) {
        os << std::setw(16) << "n/a";
      } else {
        os << std::setw(16) << std::fixed << std::setprecision(3)
           << c.cdf.percentile(f);
      }
    }
    os << "\n";
  }
}

void print_cdf_summary(std::ostream& os, const std::vector<NamedCdf>& curves,
                       const std::string& unit) {
  for (const NamedCdf& c : curves) {
    os << "  " << std::left << std::setw(14) << c.name;
    if (c.cdf.empty()) {
      os << "no samples\n";
      continue;
    }
    os << "median " << std::fixed << std::setprecision(3) << c.cdf.median()
       << " " << unit << ", mean " << c.cdf.mean() << " " << unit
       << ", p90 " << c.cdf.percentile(0.9) << " " << unit << " (n="
       << c.cdf.size() << ")\n";
  }
}

void print_spectrum_sketch(std::ostream& os, const std::vector<double>& x,
                           const std::vector<double>& values, int height) {
  if (x.size() != values.size() || x.empty() || height < 1) return;
  double mx = 0.0;
  for (double v : values) mx = std::max(mx, v);
  if (mx <= 0.0) mx = 1.0;
  // Downsample to at most 72 columns.
  const std::size_t cols = std::min<std::size_t>(72, values.size());
  std::vector<double> col_val(cols, 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t c = i * cols / values.size();
    col_val[c] = std::max(col_val[c], values[i]);
  }
  for (int row = height; row >= 1; --row) {
    const double level = mx * static_cast<double>(row) / height;
    os << "  |";
    for (std::size_t c = 0; c < cols; ++c) {
      os << (col_val[c] >= level ? '#' : ' ');
    }
    os << "\n";
  }
  os << "  +";
  for (std::size_t c = 0; c < cols; ++c) os << '-';
  os << "\n   " << std::fixed << std::setprecision(1) << x.front()
     << std::string(cols > 12 ? cols - 12 : 1, ' ') << x.back() << "\n";
}

JsonWriter::JsonWriter(std::ostream& os) : os_(os) {}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += ch;  // UTF-8 bytes pass through unmodified.
        }
    }
  }
  return out;
}

void JsonWriter::newline_indent() {
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::before_value(bool is_key) {
  if (done_) throw std::logic_error("JsonWriter: document already complete");
  if (!stack_.empty()) {
    if (stack_.back() == Ctx::kObject) {
      if (is_key && !expect_key_) {
        throw std::logic_error("JsonWriter: key where a value is expected");
      }
      if (!is_key && expect_key_) {
        throw std::logic_error("JsonWriter: object member needs a key first");
      }
    } else if (is_key) {
      throw std::logic_error("JsonWriter: key inside an array");
    }
    const bool starts_member =
        is_key || stack_.back() == Ctx::kArray;
    if (starts_member) {
      if (has_members_.back()) os_ << ',';
      has_members_.back() = true;
      newline_indent();
    }
  } else if (is_key) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value(false);
  os_ << '{';
  stack_.push_back(Ctx::kObject);
  has_members_.push_back(false);
  expect_key_ = true;
  have_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value(false);
  os_ << '[';
  stack_.push_back(Ctx::kArray);
  has_members_.push_back(false);
  expect_key_ = false;
  have_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Ctx::kObject) {
    throw std::logic_error("JsonWriter: end_object without open object");
  }
  if (have_key_) throw std::logic_error("JsonWriter: dangling key");
  const bool had = has_members_.back();
  stack_.pop_back();
  has_members_.pop_back();
  if (had) newline_indent();
  os_ << '}';
  expect_key_ = !stack_.empty() && stack_.back() == Ctx::kObject;
  if (stack_.empty()) {
    done_ = true;
    os_ << '\n';
  }
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Ctx::kArray) {
    throw std::logic_error("JsonWriter: end_array without open array");
  }
  const bool had = has_members_.back();
  stack_.pop_back();
  has_members_.pop_back();
  if (had) newline_indent();
  os_ << ']';
  expect_key_ = !stack_.empty() && stack_.back() == Ctx::kObject;
  if (stack_.empty()) {
    done_ = true;
    os_ << '\n';
  }
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Ctx::kObject) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  before_value(true);
  os_ << '"' << escape(k) << "\": ";
  expect_key_ = false;
  have_key_ = true;
  return *this;
}

namespace {

/// Shortest decimal that round-trips a finite double (printf %.17g is
/// exact but noisy; try increasing precision until the value survives).
void write_double(std::ostream& os, double v) {
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  os << buf;
}

}  // namespace

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  before_value(false);
  write_double(os_, v);
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value(false);
  os_ << v;
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value(false);
  os_ << (v ? "true" : "false");
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value(false);
  os_ << '"' << escape(s) << '"';
  after_value();
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value(false);
  os_ << "null";
  after_value();
  return *this;
}

void JsonWriter::after_value() {
  have_key_ = false;
  expect_key_ = !stack_.empty() && stack_.back() == Ctx::kObject;
  if (stack_.empty()) {
    done_ = true;
    os_ << '\n';
  }
}

bool JsonWriter::complete() const noexcept { return done_ && stack_.empty(); }

}  // namespace roarray::eval
