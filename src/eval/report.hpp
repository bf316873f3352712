// Reporting helpers shared by the figure benches: plain-text tables
// matching the paper's figure plots, plus a small dependency-free JSON
// emitter for machine-readable artifacts (BENCH_micro.json, golden
// corpus reports).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "eval/cdf.hpp"

namespace roarray::eval {

/// A named CDF (one curve of a paper figure).
struct NamedCdf {
  std::string name;
  Cdf cdf;
};

/// Prints a figure-style CDF table: one row per percentile in
/// `fractions`, one column per curve. Values formatted with `unit`.
void print_cdf_table(std::ostream& os, const std::string& title,
                     const std::vector<NamedCdf>& curves,
                     const std::vector<double>& fractions,
                     const std::string& unit);

/// Prints a summary line per curve: median / mean / 90th percentile.
void print_cdf_summary(std::ostream& os, const std::vector<NamedCdf>& curves,
                       const std::string& unit);

/// Renders a 1-D spectrum as a rough ASCII sketch (for eyeballing the
/// sharpness that the paper's polar plots show).
void print_spectrum_sketch(std::ostream& os, const std::vector<double>& x,
                           const std::vector<double>& values, int height = 8);

/// Streaming JSON emitter. Handles the two failure modes hand-rolled
/// fprintf JSON gets wrong: strings are escaped per RFC 8259 (quotes,
/// backslashes, control characters) and non-finite doubles — which JSON
/// cannot represent — are emitted as null instead of the invalid tokens
/// printf produces (nan, inf). Structural misuse (value without a key
/// inside an object, unbalanced end_*) throws std::logic_error so a
/// malformed report fails the producing process rather than the
/// consumer. Output is pretty-printed with 2-space indentation.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the key of the next object member (escaped).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double v);  ///< non-finite -> null.
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& null();

  /// True once every begin_* has been matched by its end_* and a
  /// top-level value was written.
  [[nodiscard]] bool complete() const noexcept;

  /// RFC 8259 string escaping (without the surrounding quotes).
  [[nodiscard]] static std::string escape(std::string_view s);

 private:
  enum class Ctx : std::uint8_t { kObject, kArray };
  void before_value(bool is_key);
  void after_value();
  void newline_indent();

  std::ostream& os_;
  std::vector<Ctx> stack_;
  std::vector<bool> has_members_;
  bool expect_key_ = false;   ///< inside an object, next token must be a key.
  bool have_key_ = false;     ///< a key was just written; value must follow.
  bool done_ = false;         ///< a complete top-level value was emitted.
};

}  // namespace roarray::eval
