// The four roarray_analyze rule families, run over a scanned source
// set against the machine-readable specs. See DESIGN.md §12 for rule
// semantics and spec extension guidance.
#pragma once

#include <string>
#include <vector>

#include "code_model.hpp"
#include "finding.hpp"
#include "spec.hpp"

namespace roarray::srctool {

struct Specs {
  LayeringSpec layering;
  std::string layering_origin;
  LockOrderSpec lock_order;
  std::string lock_order_origin;
  HotPathSpec hot;
  std::string hot_origin;
};

/// The repo-relative path every rule family scopes on. A file found
/// under the directory `root` keeps the root's own name as its first
/// component ("/x/src" + "/x/src/dsp/a.cpp" -> "src/dsp/a.cpp"), so the
/// directories above a root never change a verdict; a root of "." adds
/// nothing. A file passed as its own root is taken as given, so name it
/// repo-relative. Purely lexical: touches no file system.
[[nodiscard]] std::string scope_path(const std::string& root,
                                     const std::string& file);

/// Strips every file (populating `code` from `raw`), runs the token rules
/// on all of them and the layering, lock-order, and hot-alloc checks on
/// the src/ ones, drops per-line `allow(<rule>)` suppressions, and
/// returns the surviving findings sorted.
[[nodiscard]] std::vector<Finding> run_rules(std::vector<SourceFile>& files,
                                             const Specs& specs);

}  // namespace roarray::srctool
