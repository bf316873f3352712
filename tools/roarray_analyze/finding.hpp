// Finding record shared by every roarray_analyze rule family, plus the
// one human-readable and --json renderer pair.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace roarray::srctool {

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;  ///< "layering" | "lock-order" | "hot-alloc" | "spec", or
                     ///< a token rule: "determinism" | "no-iostream" |
                     ///< "pragma-once" | "mutable-global" |
                     ///< "unchecked-io" | "intrinsics".
  std::string message;
};

inline void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

inline void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
}

[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Machine output: one stable JSON document on stdout. Consumers key on
/// `findings[].rule` and the file:line anchor.
inline void print_findings_json(const std::vector<Finding>& findings,
                                std::size_t files_scanned) {
  std::printf("{\n  \"files_scanned\": %zu,\n  \"findings\": [",
              files_scanned);
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::printf(
        "%s\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", "
        "\"message\": \"%s\"}",
        i == 0 ? "" : ",", json_escape(f.path).c_str(), f.line,
        json_escape(f.rule).c_str(), json_escape(f.message).c_str());
  }
  std::printf("%s]\n}\n", findings.empty() ? "" : "\n  ");
}

}  // namespace roarray::srctool
