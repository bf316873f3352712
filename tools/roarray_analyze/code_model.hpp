// Lightweight structural model of a C++ source tree, extracted with the
// shared lexer (no real parser, no compiler dependency). One scan pass
// per src/ file recovers exactly the facts the three semantic rule
// families (layering, lock-order, hot-alloc) need:
//
//   * quoted #include edges                       (include-layering DAG)
//   * class definitions and their Mutex members   (lock registry)
//   * ROARRAY_GUARDED_BY / REQUIRES / EXCLUDES annotations per member
//     and per method                              (annotation checks)
//   * function definitions with body line spans   (hot-path scopes)
//   * MutexLock acquisition sites, with the set of locks lexically held
//     at that point                               (acquisition-order graph)
//   * call sites inside function bodies, with held locks and receiver
//     kind                                        (call-mediated edges,
//                                                  entrypoint/callback
//                                                  checks)
//   * raw std lock primitives (std::mutex & friends) outside the
//     annotated wrappers                          (TSA-visibility rule)
//
// The scanner is scope-aware (namespace / class / function / block via
// brace depth) but deliberately not name-resolving: locks are keyed
// (Class, member) and qualified to <module>::<Class>::<member> later,
// and cross-object calls are resolved by method name with a
// conservative ambiguity policy in the rules layer. Known limits are
// documented in DESIGN.md §12.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace roarray::srctool {

/// One scanned file: repo-relative path (see scope_path) plus raw and
/// comment/string-stripped lines (1-based access via index + 1).
struct SourceFile {
  std::string path;
  std::vector<std::string> raw;
  std::vector<std::string> code;
};

struct IncludeEdge {
  std::string path;    ///< includer (repo-relative).
  int line = 0;
  std::string target;  ///< quoted include text, e.g. "dsp/grid.hpp".
};

struct LockMember {
  std::string cls;     ///< declaring class.
  std::string member;  ///< e.g. "mutex_".
  std::string path;
  int line = 0;
};

struct GuardedMember {
  std::string cls;
  std::string member;  ///< may be empty when the declarator defeats the scan.
  std::string guard;   ///< first identifier inside ROARRAY_GUARDED_BY(...).
  std::string path;
  int line = 0;
};

struct MethodAnnotations {
  std::set<std::string> excludes;  ///< member names from ROARRAY_EXCLUDES.
  std::set<std::string> requires_held;  ///< from ROARRAY_REQUIRES.
};

/// A MutexLock construction site. `held` lists "Class::member" locks
/// lexically held at that point in the same function body.
struct AcquireEvent {
  std::string cls;      ///< owner class of the enclosing method ("" = free).
  std::string method;
  std::string lock_cls;     ///< resolved declaring class of the lock.
  std::string lock_member;
  std::vector<std::string> held;  ///< "Class::member" entries.
  std::string path;
  int line = 0;
};

/// A call site inside a function body: `callee(...)`, `x.callee(...)`,
/// or `x->callee(...)`.
struct CallEvent {
  std::string cls;
  std::string method;
  std::string callee;
  bool has_receiver = false;  ///< preceded by '.' or '->'.
  std::vector<std::string> held;
  std::string path;
  int line = 0;
};

struct FunctionSpan {
  std::string cls;   ///< "" for free functions.
  std::string name;  ///< "~X" for destructors; ctors share the class name.
  std::string path;
  int first_line = 0;  ///< line carrying the opening '{'.
  int last_line = 0;   ///< line carrying the matching '}'.
};

struct PrimitiveUse {
  std::string what;  ///< e.g. "std::mutex".
  std::string path;
  int line = 0;
};

struct CodeModel {
  std::vector<IncludeEdge> includes;
  std::vector<LockMember> locks;
  std::vector<GuardedMember> guarded;
  std::map<std::pair<std::string, std::string>, MethodAnnotations>
      annotations;  ///< (class, method) -> annotations, decls + defs merged.
  std::vector<AcquireEvent> acquires;
  std::vector<CallEvent> calls;
  std::vector<FunctionSpan> functions;
  std::vector<PrimitiveUse> primitives;
};

/// Folds the file's structure into `model`; `file.code` must already
/// hold the stripped lines (see strip_lines). Call once per file; the
/// model accumulates.
void scan_file(const SourceFile& file, CodeModel& model);

}  // namespace roarray::srctool
