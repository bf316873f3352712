// roarray_analyze — the repo's source-analysis tool. Four rule
// families, the first three driven by machine-readable specs living next
// to the binary's sources (see spec.hpp for the directive grammar):
//
//   layering   include edges must follow the module DAG in layering.txt
//   lock-order mutex acquisition graph must match lock_order.txt
//   hot-alloc  no heap allocation in hot_paths.txt scopes
//   token      determinism, no-iostream, pragma-once, mutable-global,
//              unchecked-io, intrinsics: line-local invariants with
//              fixed path scopes (see check_tokens in rules.cpp)
//
// The first three read src/ only; the token rules read every root. Files
// are scoped by their path relative to the root they were found under
// (see scope_path), so pass the repo's top-level directories:
//   roarray_analyze --spec-dir tools/roarray_analyze src tests bench examples tools
//
// Usage:
//   roarray_analyze [--json] [--spec-dir <dir>] <path>...
//   roarray_analyze --self-test
//
// Exit codes: 0 clean, 1 findings, 2 usage/spec/read errors. Findings
// are suppressible per line with `// roarray-analyze: allow(<rule>) why`.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace roarray::srctool {
int run_self_test();
}

namespace {

namespace fs = std::filesystem;
using namespace roarray::srctool;

[[nodiscard]] bool source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".hpp" || e == ".cpp" || e == ".h" || e == ".cc";
}

[[nodiscard]] bool read_lines(const std::string& path,
                              std::vector<std::string>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out.push_back(line);
  }
  return true;
}

[[nodiscard]] bool read_whole(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string spec_dir = "tools/roarray_analyze";
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return run_self_test();
    if (arg == "--json") {
      json = true;
    } else if (arg == "--spec-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "roarray_analyze: --spec-dir needs a value\n");
        return 2;
      }
      spec_dir = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [--json] [--spec-dir <dir>] <path>... | "
                   "--self-test\n",
                   argv[0]);
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--json] [--spec-dir <dir>] <path>... | "
                 "--self-test\n",
                 argv[0]);
    return 2;
  }

  Specs specs;
  specs.layering_origin = spec_dir + "/layering.txt";
  specs.lock_order_origin = spec_dir + "/lock_order.txt";
  specs.hot_origin = spec_dir + "/hot_paths.txt";
  std::vector<Finding> spec_errors;
  bool specs_ok = true;
  {
    std::string text;
    if (!read_whole(specs.layering_origin, text)) {
      std::fprintf(stderr, "roarray_analyze: cannot read %s\n",
                   specs.layering_origin.c_str());
      return 2;
    }
    specs_ok &= parse_layering_spec(text, specs.layering_origin,
                                    specs.layering, spec_errors);
    if (!read_whole(specs.lock_order_origin, text)) {
      std::fprintf(stderr, "roarray_analyze: cannot read %s\n",
                   specs.lock_order_origin.c_str());
      return 2;
    }
    specs_ok &= parse_lock_order_spec(text, specs.lock_order_origin,
                                      specs.lock_order, spec_errors);
    if (!read_whole(specs.hot_origin, text)) {
      std::fprintf(stderr, "roarray_analyze: cannot read %s\n",
                   specs.hot_origin.c_str());
      return 2;
    }
    specs_ok &=
        parse_hot_path_spec(text, specs.hot_origin, specs.hot, spec_errors);
  }
  if (!specs_ok) {
    // Fail closed: a mistyped directive must stop the run, not weaken it.
    sort_findings(spec_errors);
    print_findings(spec_errors);
    return 2;
  }

  std::vector<std::pair<std::string, std::string>> paths;  // (root, file).
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           !ec && it != end; it.increment(ec)) {
        const fs::path& p = it->path();
        const std::string name = p.filename().string();
        if (it->is_directory() && (name == ".git" || starts_with(name, "build"))) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && source_ext(p)) {
          paths.emplace_back(root, p.string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      paths.emplace_back(root, root);
    } else {
      std::fprintf(stderr, "roarray_analyze: no such file or directory: %s\n",
                   root.c_str());
      return 2;
    }
  }

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const auto& [root, p] : paths) {
    SourceFile sf;
    sf.path = scope_path(root, p);
    if (!read_lines(p, sf.raw)) {
      std::fprintf(stderr, "roarray_analyze: cannot read %s\n", p.c_str());
      return 2;
    }
    files.push_back(std::move(sf));
  }

  const std::vector<Finding> findings = run_rules(files, specs);
  if (json) {
    print_findings_json(findings, files.size());
  } else {
    print_findings(findings);
    if (findings.empty()) {
      std::printf("roarray_analyze: OK (%zu files, 0 findings)\n",
                  files.size());
    } else {
      std::printf("roarray_analyze: %zu finding(s) in %zu files\n",
                  findings.size(), files.size());
    }
  }
  return findings.empty() ? 0 : 1;
}
