// Lightweight C++ lexing primitives for roarray_analyze, the repo's
// dependency-free source-analysis tool.
//
// The core operation is strip_code(): given one raw source line it removes
// // and /* */ comments and the contents of string/char literals (carrying
// the block-comment state across lines), so token-level checks never fire
// on prose or quoted text. On top of that sit boundary-aware token search
// (has_token), a positional tokenizer (tokenize) for the structural scans,
// and the one-line suppression syntax every rule family honors:
//
//     ... // roarray-analyze: allow(<rule>) <why>
//
// Header-only and std-only by design: the tool must build anywhere the
// library builds and run as an ordinary ctest case.
#pragma once

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace roarray::srctool {

[[nodiscard]] inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Removes // and /* */ comments and the contents of string/char
/// literals from one line, so token checks don't fire on prose or
/// quoted text. `in_block` carries /* */ state across lines. Quote
/// characters themselves are kept (as an empty literal) so "a string is
/// here" remains visible to structural scans.
[[nodiscard]] inline std::string strip_code(const std::string& line,
                                            bool& in_block) {
  std::string out;
  out.reserve(line.size());
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (in_block) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block = false;
        ++i;
      }
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block = true;
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out.push_back(quote);
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == quote) break;
        ++i;
      }
      out.push_back(quote);
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// True if `code` contains `token` at an identifier boundary (so "time("
/// does not match inside "runtime("). With `require_call`, the token
/// must additionally be followed (after whitespace) by '('.
[[nodiscard]] inline bool has_token(std::string_view code,
                                    std::string_view token,
                                    bool require_call = false) {
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string_view::npos) {
    const bool start_ok = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t end = pos + token.size();
    bool end_ok = end >= code.size() || !ident_char(code[end]);
    if (require_call && end_ok) {
      while (end < code.size() &&
             std::isspace(static_cast<unsigned char>(code[end])) != 0) {
        ++end;
      }
      end_ok = end < code.size() && code[end] == '(';
    }
    if (start_ok && end_ok) return true;
    ++pos;
  }
  return false;
}

/// Strips a whole file, line by line, carrying /* */ state across lines.
[[nodiscard]] inline std::vector<std::string> strip_lines(
    const std::vector<std::string>& raw) {
  std::vector<std::string> code;
  code.reserve(raw.size());
  bool in_block = false;
  for (const std::string& line : raw) {
    code.push_back(strip_code(line, in_block));
  }
  return code;
}

/// One-line local suppression: the raw line carries
/// `roarray-analyze: allow(<rules>)` naming this rule.
[[nodiscard]] inline bool suppressed(const std::string& raw_line,
                                     std::string_view rule) {
  constexpr std::string_view kMarker = "roarray-analyze: allow(";
  const std::size_t pos = raw_line.find(kMarker);
  if (pos == std::string::npos) return false;
  const std::size_t open = pos + kMarker.size() - 1;
  const std::size_t close = raw_line.find(')', open);
  if (close == std::string::npos) return false;
  const std::string_view rules(raw_line.data() + open + 1, close - open - 1);
  return rules.find(rule) != std::string_view::npos;
}

[[nodiscard]] inline std::vector<std::string> path_components(
    const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

[[nodiscard]] inline std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

[[nodiscard]] inline bool starts_with(std::string_view s,
                                      std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] inline bool ends_with(std::string_view s,
                                    std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Positional token over one comment/string-stripped line: either an
/// identifier (text holds it) or a single punctuation character.
struct Token {
  bool is_ident = false;
  std::string text;      ///< identifier text, or the one punct char.
  std::size_t col = 0;   ///< 0-based column in the stripped line.
};

/// Splits a stripped line into identifier and punctuation tokens;
/// whitespace separates but is not emitted. Numeric literals come out
/// as identifier-shaped tokens (callers treat them as opaque).
[[nodiscard]] inline std::vector<Token> tokenize(std::string_view code) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (ident_char(c)) {
      std::size_t e = i;
      while (e < code.size() && ident_char(code[e])) ++e;
      out.push_back({true, std::string(code.substr(i, e - i)), i});
      i = e;
      continue;
    }
    out.push_back({false, std::string(1, c), i});
    ++i;
  }
  return out;
}

}  // namespace roarray::srctool
