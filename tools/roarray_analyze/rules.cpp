#include "rules.hpp"

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "lexer.hpp"

namespace roarray::srctool {

namespace {

// ---------------------------------------------------------------------------
// Path scopes
// ---------------------------------------------------------------------------

/// Where a scope_path() lies, as the rule families see it: layering,
/// lock-order and hot-alloc read src/ only, and the token rules carve
/// out src/runtime/, src/io/ and src/linalg/backend/.
struct PathScope {
  bool in_src = false;
  bool in_runtime = false;
  bool in_io = false;
  bool in_backend = false;
};

[[nodiscard]] PathScope classify(std::string_view path) {
  return {starts_with(path, "src/"), starts_with(path, "src/runtime/"),
          starts_with(path, "src/io/"),
          starts_with(path, "src/linalg/backend/")};
}

// ---------------------------------------------------------------------------
// Include layering
// ---------------------------------------------------------------------------

/// Longest-match module lookup: exact file entries beat directory
/// prefixes, longer prefixes beat shorter ones.
[[nodiscard]] std::optional<std::string> module_of(
    const std::string& path, const LayeringSpec& spec) {
  std::optional<std::string> best;
  std::size_t best_len = 0;
  for (const ModuleDef& m : spec.modules) {
    for (const std::string& p : m.paths) {
      const bool match =
          (p == path) || (ends_with(p, "/") && starts_with(path, p));
      if (match && p.size() >= best_len) {
        best_len = p.size();
        best = m.name;
      }
    }
  }
  return best;
}

/// Returns one cycle (as "a -> b -> ... -> a") in the directed graph, or
/// nullopt if the graph is acyclic.
[[nodiscard]] std::optional<std::string> find_cycle(
    const std::map<std::string, std::set<std::string>>& adj) {
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black.
  std::vector<std::string> stack;
  std::optional<std::string> cycle;

  // NOLINTNEXTLINE(misc-no-recursion): bounded by module/lock count.
  const auto dfs = [&](const auto& self, const std::string& u) -> bool {
    color[u] = 1;
    stack.push_back(u);
    const auto it = adj.find(u);
    if (it != adj.end()) {
      for (const std::string& v : it->second) {
        if (color[v] == 1) {
          std::string path = v;
          for (auto s = stack.rbegin(); s != stack.rend(); ++s) {
            path = *s + " -> " + path;
            if (*s == v) break;
          }
          cycle = path;
          return true;
        }
        if (color[v] == 0 && self(self, v)) return true;
      }
    }
    color[u] = 2;
    stack.pop_back();
    return false;
  };

  for (const auto& [node, _] : adj) {
    if (color[node] == 0 && dfs(dfs, node)) return cycle;
  }
  return std::nullopt;
}

void check_layering(const CodeModel& model, const Specs& specs,
                    std::vector<Finding>& findings) {
  const LayeringSpec& spec = specs.layering;

  std::set<std::string> names;
  for (const ModuleDef& m : spec.modules) {
    if (!names.insert(m.name).second) {
      findings.push_back({specs.layering_origin, 0, "spec",
                          "duplicate module definition: " + m.name});
    }
  }
  std::map<std::string, std::set<std::string>> allow_adj;
  for (const auto& [from, to] : spec.allows) {
    for (const std::string& end : {from, to}) {
      if (names.count(end) == 0) {
        findings.push_back({specs.layering_origin, 0, "spec",
                            "allow edge references unknown module: " + end});
      }
    }
    if (from == to) {
      findings.push_back({specs.layering_origin, 0, "spec",
                          "self allow edge is meaningless: " + from});
      continue;
    }
    allow_adj[from].insert(to);
  }
  if (const auto cycle = find_cycle(allow_adj)) {
    findings.push_back({specs.layering_origin, 0, "spec",
                        "allowed-dependency spec is cyclic (" + *cycle +
                            "); the layering must stay a DAG"});
  }

  for (const IncludeEdge& e : model.includes) {
    const auto from = module_of(e.path, spec);
    if (!from.has_value()) {
      findings.push_back({e.path, e.line, "layering",
                          "file is not covered by the module map in " +
                              specs.layering_origin});
      continue;
    }
    // Quoted includes are repo-root-relative to src/ in this codebase;
    // fixtures may use full repo-relative paths directly.
    std::optional<std::string> to = module_of("src/" + e.target, spec);
    if (!to.has_value()) to = module_of(e.target, spec);
    if (!to.has_value()) {
      findings.push_back({e.path, e.line, "layering",
                          "include target \"" + e.target +
                              "\" is not covered by the module map"});
      continue;
    }
    if (*from == *to) continue;
    if (allow_adj[*from].count(*to) == 0) {
      findings.push_back(
          {e.path, e.line, "layering",
           "include crosses module boundary " + *from + " -> " + *to +
               " which is not an allowed edge in " + specs.layering_origin});
    }
  }
}

// ---------------------------------------------------------------------------
// Lock order
// ---------------------------------------------------------------------------

/// Cross-class call resolution skips method names every container,
/// atomic, or std vocabulary type also has: resolving `queue_.size()`
/// against `OperatorCache::size()` would fabricate lock edges.
[[nodiscard]] bool generic_method_name(const std::string& name) {
  static const std::set<std::string> kGeneric = {
      "size",  "empty", "clear",   "begin",      "end",        "find",
      "count", "data",  "front",   "back",       "push_back",  "pop_back",
      "emplace_back",   "reserve", "insert",     "erase",      "at",
      "reset", "swap",  "get",     "wait",       "notify_one", "notify_all",
      "lock",  "unlock", "try_lock", "join",     "load",       "store",
      "exchange", "fetch_add", "fetch_sub", "compare_exchange_strong",
      "compare_exchange_weak"};
  return kGeneric.count(name) != 0;
}

struct LockInfo {
  std::string qualified;  ///< <module>::<Class>::<member>.
  std::string path;
  int line = 0;
};

struct LockRegistry {
  /// (class, member) -> info.
  std::map<std::pair<std::string, std::string>, LockInfo> by_key;
  /// member -> declaring classes (for dotted-expression resolution).
  std::map<std::string, std::set<std::string>> classes_of_member;

  [[nodiscard]] std::optional<std::string> resolve(
      const std::string& cls, const std::string& member) const {
    if (!cls.empty()) {
      const auto it = by_key.find({cls, member});
      if (it == by_key.end()) return std::nullopt;
      return it->second.qualified;
    }
    const auto it = classes_of_member.find(member);
    if (it == it_end() || it->second.size() != 1) return std::nullopt;
    const auto hit = by_key.find({*it->second.begin(), member});
    if (hit == by_key.end()) return std::nullopt;
    return hit->second.qualified;
  }

  /// Resolves a held-stack entry of the form "Class::member" (Class may
  /// be empty for dotted acquisitions).
  [[nodiscard]] std::optional<std::string> resolve_held(
      const std::string& encoded) const {
    const std::size_t sep = encoded.find("::");
    if (sep == std::string::npos) return std::nullopt;
    return resolve(encoded.substr(0, sep), encoded.substr(sep + 2));
  }

 private:
  [[nodiscard]] std::map<std::string, std::set<std::string>>::const_iterator
  it_end() const {
    return classes_of_member.end();
  }
};

[[nodiscard]] std::string top_module_dir(const std::string& path) {
  const std::vector<std::string> parts = path_components(path);
  // "src/<dir>/..." -> <dir>; otherwise first component.
  if (parts.size() >= 2 && parts[0] == "src") return parts[1];
  return parts.empty() ? std::string() : parts[0];
}

struct LockEdge {
  std::string from;
  std::string to;
  std::string via;  ///< "" for a direct nested acquisition.
  std::string path;
  int line = 0;
};

void check_lock_order(const CodeModel& model, const Specs& specs,
                      std::vector<Finding>& findings) {
  const LockOrderSpec& spec = specs.lock_order;

  LockRegistry reg;
  for (const LockMember& lm : model.locks) {
    LockInfo info;
    info.qualified = top_module_dir(lm.path) + "::" + lm.cls + "::" + lm.member;
    info.path = lm.path;
    info.line = lm.line;
    reg.by_key[{lm.cls, lm.member}] = info;
    reg.classes_of_member[lm.member].insert(lm.cls);
  }
  std::set<std::string> known;
  for (const auto& [_, info] : reg.by_key) known.insert(info.qualified);

  // Spec sanity: every named lock must exist in the scanned code (a
  // rename must not silently detach the documented hierarchy).
  const auto require_known = [&](const std::string& lock) {
    if (known.count(lock) == 0) {
      findings.push_back({specs.lock_order_origin, 0, "spec",
                          "spec names a lock not found in the scanned "
                          "sources: " + lock});
    }
  };
  std::map<std::string, std::set<std::string>> order_adj;
  for (const auto& [a, b] : spec.order) {
    require_known(a);
    require_known(b);
    if (a == b) {
      findings.push_back({specs.lock_order_origin, 0, "spec",
                          "self order pair is meaningless: " + a});
      continue;
    }
    order_adj[a].insert(b);
  }
  for (const std::string& leaf : spec.leaves) require_known(leaf);
  if (const auto cycle = find_cycle(order_adj)) {
    findings.push_back({specs.lock_order_origin, 0, "spec",
                        "documented lock order is cyclic (" + *cycle + ")"});
  }

  // Transitive closure of the documented order.
  std::map<std::string, std::set<std::string>> closure = order_adj;
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [a, outs] : closure) {
      std::set<std::string> add;
      for (const std::string& b : outs) {
        const auto it = closure.find(b);
        if (it == closure.end()) continue;
        for (const std::string& c : it->second) {
          if (outs.count(c) == 0) add.insert(c);
        }
      }
      if (!add.empty()) {
        outs.insert(add.begin(), add.end());
        changed = true;
      }
    }
  }

  // Direct lock acquisitions per method, for call-mediated edges and
  // the EXCLUDES/REQUIRES checks. Keys are (class, method).
  std::map<std::pair<std::string, std::string>, std::set<std::string>>
      method_direct;  // qualified locks.
  std::map<std::pair<std::string, std::string>,
           std::set<std::pair<std::string, std::string>>>
      method_direct_keys;  // (lock class, member) pairs.
  std::map<std::string, std::set<std::string>> acquirers_of;  // name -> cls.
  for (const AcquireEvent& ev : model.acquires) {
    const auto lock = reg.resolve(ev.lock_cls, ev.lock_member);
    if (!lock.has_value() || ev.method.empty()) continue;
    method_direct[{ev.cls, ev.method}].insert(*lock);
    method_direct_keys[{ev.cls, ev.method}].insert(
        {ev.lock_cls.empty() ? std::string() : ev.lock_cls, ev.lock_member});
    acquirers_of[ev.method].insert(ev.cls);
  }

  // Edge collection: direct nesting plus one level of call mediation.
  std::vector<LockEdge> edges;
  for (const AcquireEvent& ev : model.acquires) {
    const auto to = reg.resolve(ev.lock_cls, ev.lock_member);
    if (!to.has_value()) continue;
    for (const std::string& h : ev.held) {
      const auto from = reg.resolve_held(h);
      if (!from.has_value()) continue;
      edges.push_back({*from, *to, "", ev.path, ev.line});
    }
  }
  for (const CallEvent& ev : model.calls) {
    if (ev.held.empty()) continue;
    const auto cand_it = acquirers_of.find(ev.callee);
    if (cand_it == acquirers_of.end()) continue;
    std::set<std::string> cands;
    const bool own_has = !ev.cls.empty() && cand_it->second.count(ev.cls) != 0;
    if (!ev.has_receiver && own_has) {
      cands = {ev.cls};  // unqualified call resolves in-class first.
    } else if (!generic_method_name(ev.callee)) {
      cands = cand_it->second;
      if (ev.has_receiver) cands.erase(ev.cls);  // x->f() is not this->f().
    }
    for (const std::string& c : cands) {
      for (const std::string& to : method_direct[{c, ev.callee}]) {
        for (const std::string& h : ev.held) {
          const auto from = reg.resolve_held(h);
          if (!from.has_value()) continue;
          edges.push_back({*from, to, " via call to " + c + "::" + ev.callee,
                           ev.path, ev.line});
        }
      }
    }
  }

  // Edge verdicts.
  const std::set<std::string> leaves(spec.leaves.begin(), spec.leaves.end());
  std::map<std::string, std::set<std::string>> observed_adj;
  std::set<std::string> reported;  // dedupe identical (from,to,site) text.
  for (const LockEdge& e : edges) {
    if (e.from == e.to) {
      const std::string msg = "recursive acquisition: " + e.from +
                              " is acquired while already held" + e.via;
      if (reported.insert(e.path + std::to_string(e.line) + msg).second) {
        findings.push_back({e.path, e.line, "lock-order", msg});
      }
      continue;
    }
    observed_adj[e.from].insert(e.to);
    if (leaves.count(e.from) != 0) {
      const std::string msg = "leaf lock " + e.from +
                              " is held while acquiring " + e.to + e.via +
                              "; leaf locks must not nest";
      if (reported.insert(e.path + std::to_string(e.line) + msg).second) {
        findings.push_back({e.path, e.line, "lock-order", msg});
      }
      continue;
    }
    const auto it = closure.find(e.from);
    if (it == closure.end() || it->second.count(e.to) == 0) {
      const std::string msg =
          "acquisition order " + e.from + " -> " + e.to + e.via +
          " is not documented in " + specs.lock_order_origin +
          "; add an 'order' line if this nesting is intended";
      if (reported.insert(e.path + std::to_string(e.line) + msg).second) {
        findings.push_back({e.path, e.line, "lock-order", msg});
      }
    }
  }
  if (const auto cycle = find_cycle(observed_adj)) {
    const LockEdge* site = edges.empty() ? nullptr : &edges.front();
    findings.push_back({site != nullptr ? site->path : "<sources>",
                        site != nullptr ? site->line : 0, "lock-order",
                        "observed acquisition graph contains a deadlock "
                        "cycle: " + *cycle});
  }

  // Entrypoints and user callbacks must never run under a lock.
  std::set<std::string> no_lock_calls(spec.entrypoints.begin(),
                                      spec.entrypoints.end());
  no_lock_calls.insert(spec.callbacks.begin(), spec.callbacks.end());
  for (const CallEvent& ev : model.calls) {
    if (ev.held.empty() || no_lock_calls.count(ev.callee) == 0) continue;
    std::string held;
    for (const std::string& h : ev.held) {
      const auto q = reg.resolve_held(h);
      held += (held.empty() ? "" : ", ") + q.value_or(h);
    }
    findings.push_back({ev.path, ev.line, "lock-order",
                        "lock (" + held + ") held across call to '" +
                            ev.callee +
                            "', which lock_order.txt marks as a no-lock "
                            "entry point or user callback"});
  }

  // EXCLUDES consistency: any method that acquires one of its own
  // class's locks — directly or through a one-level unqualified call to
  // a sibling method — must carry ROARRAY_EXCLUDES(<member>).
  // Constructors are exempt (nothing else can hold the lock yet).
  const auto check_excludes = [&](const std::string& cls,
                                  const std::string& method,
                                  const std::string& lock_cls,
                                  const std::string& member,
                                  const std::string& path, int line,
                                  const std::string& how) {
    if (cls.empty() || cls == method) return;  // free fn or ctor.
    if (lock_cls != cls) return;  // cross-object: EXCLUDES names members only.
    const auto it = model.annotations.find({cls, method});
    if (it != model.annotations.end() &&
        it->second.excludes.count(member) != 0) {
      return;
    }
    findings.push_back({path, line, "lock-order",
                        cls + "::" + method + " acquires " + cls +
                            "::" + member + how +
                            " but is not annotated ROARRAY_EXCLUDES(" +
                            member + ")"});
  };
  std::set<std::string> excl_seen;
  for (const AcquireEvent& ev : model.acquires) {
    const std::string key =
        ev.cls + "#" + ev.method + "#" + ev.lock_cls + "#" + ev.lock_member;
    if (!excl_seen.insert(key).second) continue;
    check_excludes(ev.cls, ev.method, ev.lock_cls, ev.lock_member, ev.path,
                   ev.line, "");
  }
  for (const CallEvent& ev : model.calls) {
    if (ev.has_receiver || ev.cls.empty()) continue;
    const auto it = method_direct_keys.find({ev.cls, ev.callee});
    if (it == method_direct_keys.end()) continue;
    for (const auto& [lock_cls, member] : it->second) {
      const std::string key =
          ev.cls + "#" + ev.method + "#" + lock_cls + "#" + member;
      if (!excl_seen.insert(key).second) continue;
      check_excludes(ev.cls, ev.method, lock_cls, member, ev.path, ev.line,
                     " (via " + ev.callee + "())");
    }
  }

  // REQUIRES(m) combined with acquiring m is an immediate self-deadlock.
  for (const AcquireEvent& ev : model.acquires) {
    if (ev.cls.empty() || ev.lock_cls != ev.cls) continue;
    const auto it = model.annotations.find({ev.cls, ev.method});
    if (it == model.annotations.end()) continue;
    if (it->second.requires_held.count(ev.lock_member) != 0) {
      findings.push_back({ev.path, ev.line, "lock-order",
                          ev.cls + "::" + ev.method + " is annotated "
                          "ROARRAY_REQUIRES(" + ev.lock_member +
                          ") yet acquires it: guaranteed self-deadlock"});
    }
  }

  // GUARDED_BY must reference a Mutex member of the same class.
  for (const GuardedMember& g : model.guarded) {
    if (g.guard.empty()) continue;
    if (reg.by_key.count({g.cls, g.guard}) == 0) {
      findings.push_back({g.path, g.line, "lock-order",
                          "ROARRAY_GUARDED_BY(" + g.guard +
                              ") names no Mutex member of " + g.cls});
    }
  }

  // Raw std primitives bypass the annotated wrappers and the analyzer.
  const std::set<std::string> exempt(spec.primitive_exempt.begin(),
                                     spec.primitive_exempt.end());
  for (const PrimitiveUse& p : model.primitives) {
    if (exempt.count(p.path) != 0) continue;
    findings.push_back({p.path, p.line, "lock-order",
                        p.what + " is invisible to the annotated lock model; "
                        "use runtime::Mutex / runtime::MutexLock / "
                        "runtime::CondVar"});
  }
}

// ---------------------------------------------------------------------------
// Hot-path allocation
// ---------------------------------------------------------------------------

struct HotRange {
  int first = 0;
  int last = 0;  ///< inclusive; 0/INT_MAX-style whole-file uses first=1.
  std::string reason;
};

/// Token occurrence preceded (modulo whitespace) by '.' or '->' and
/// followed by '(' — a member growth call like `v.push_back(`.
[[nodiscard]] bool has_member_call(std::string_view code,
                                   std::string_view name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string_view::npos) {
    const bool start_ok = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t end = pos + name.size();
    while (end < code.size() &&
           std::isspace(static_cast<unsigned char>(code[end])) != 0) {
      ++end;
    }
    const bool call = end < code.size() && code[end] == '(';
    std::size_t before = pos;
    while (before > 0 &&
           std::isspace(static_cast<unsigned char>(code[before - 1])) != 0) {
      --before;
    }
    const bool receiver =
        before > 0 && (code[before - 1] == '.' || code[before - 1] == '>');
    if (start_ok && call && receiver) return true;
    ++pos;
  }
  return false;
}

/// `make_shared< / make_unique<` or a plain call — both allocate.
[[nodiscard]] bool has_alloc_call(std::string_view code,
                                  std::string_view name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string_view::npos) {
    const bool start_ok = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t end = pos + name.size();
    bool end_ok = end >= code.size() || !ident_char(code[end]);
    if (end_ok) {
      while (end < code.size() &&
             std::isspace(static_cast<unsigned char>(code[end])) != 0) {
        ++end;
      }
      end_ok = end < code.size() && (code[end] == '(' || code[end] == '<');
    }
    if (start_ok && end_ok) return true;
    ++pos;
  }
  return false;
}

/// Flags `std::vector<...>` / `std::string` used as an owning value
/// (declaration or construction) rather than a reference/pointer or a
/// nested template argument.
[[nodiscard]] bool has_owning_container(std::string_view code,
                                        std::string_view type) {
  const std::string needle = "std::" + std::string(type);
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string_view::npos) {
    const bool start_ok = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t end = pos + needle.size();
    if (!start_ok || (end < code.size() && ident_char(code[end]))) {
      ++pos;
      continue;
    }
    std::size_t i = end;
    if (i < code.size() && code[i] == '<') {  // skip template args.
      int depth = 0;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
    }
    while (i < code.size() &&
           std::isspace(static_cast<unsigned char>(code[i])) != 0) {
      ++i;
    }
    if (i >= code.size()) return true;  // declaration continues next line.
    const char c = code[i];
    const bool non_owning = c == '&' || c == '*' || c == '>' || c == ',' ||
                            c == ')' || c == ':';
    if (!non_owning) return true;
    pos = end;
  }
  return false;
}

void check_hot_alloc(const std::vector<SourceFile>& files,
                     const CodeModel& model, const Specs& specs,
                     std::vector<Finding>& findings) {
  const HotPathSpec& spec = specs.hot;

  // Spec sanity: every named function must exist in the scanned code (a
  // rename or deletion must not silently leave a stale scope behind).
  std::set<std::string> defined;
  for (const FunctionSpan& fn : model.functions) defined.insert(fn.name);
  for (const std::string& name : spec.hot_fns) {
    if (defined.count(name) == 0) {
      findings.push_back({specs.hot_origin, 0, "spec",
                          "spec names a function not found in the scanned "
                          "sources: " + name});
    }
  }

  for (const SourceFile& f : files) {
    std::vector<HotRange> ranges;
    for (const std::string& d : spec.hot_dirs) {
      if (starts_with(f.path, d)) {
        ranges.push_back({1, static_cast<int>(f.raw.size()), "hot-dir " + d});
        break;
      }
    }
    for (const FunctionSpan& fn : model.functions) {
      if (fn.path != f.path) continue;
      for (const std::string& name : spec.hot_fns) {
        if (fn.name == name) {
          ranges.push_back({fn.first_line, fn.last_line, "hot-fn " + name});
        }
      }
    }
    if (ranges.empty()) continue;

    std::set<int> flagged;  // one finding per line per reason class.
    for (const HotRange& r : ranges) {
      for (int ln = r.first; ln <= r.last && ln <= static_cast<int>(f.code.size());
           ++ln) {
        if (flagged.count(ln) != 0) continue;
        const std::string& code = f.code[static_cast<std::size_t>(ln - 1)];
        const std::string t = trim(code);
        if (t.empty() || t[0] == '#') continue;

        std::string what;
        if (has_token(code, "new")) {
          what = "operator new";
        } else {
          for (const std::string_view fn :
               {"malloc", "calloc", "realloc", "aligned_alloc", "strdup",
                "make_unique", "make_shared"}) {
            if (has_alloc_call(code, fn)) {
              what = std::string(fn) + "()";
              break;
            }
          }
        }
        if (what.empty()) {
          for (const std::string_view m :
               {"resize", "push_back", "emplace_back", "reserve", "insert",
                "emplace", "append", "assign"}) {
            if (has_member_call(code, m)) {
              what = "." + std::string(m) + "()";
              break;
            }
          }
        }
        if (what.empty()) {
          for (const std::string_view ty : {"vector", "string"}) {
            if (has_owning_container(code, ty)) {
              what = "owning std::" + std::string(ty);
              break;
            }
          }
        }
        if (what.empty()) continue;
        flagged.insert(ln);
        findings.push_back({f.path, ln, "hot-alloc",
                            "heap allocation in hot path (" + what + ") — " +
                                r.reason +
                                "; preallocate in the caller or use a "
                                "scratch workspace"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------------

/// Tokens that make library output depend on process entropy or clocks.
/// `require_call` distinguishes calls from substrings of longer names.
struct ForbiddenToken {
  const char* token;
  bool require_call;
};
constexpr ForbiddenToken kDeterminismTokens[] = {
    {"rand", true},          {"srand", true},
    {"rand_r", true},        {"random_device", false},
    {"system_clock", false}, {"steady_clock", false},
    {"high_resolution_clock", false},
    {"gettimeofday", true},  {"clock_gettime", true},
    {"time", true},          {"clock", true},
    {"localtime", true},     {"gmtime", true},
};

/// Heuristic for a mutable namespace-scope variable definition. Only
/// lines at column 0 are considered (this codebase does not indent
/// namespace contents; class members and function bodies are indented),
/// and declaration keywords that cannot define a mutable object bail
/// out early. Function definitions/declarations are excluded by the
/// no-parenthesis requirement.
[[nodiscard]] bool looks_like_mutable_global(const std::string& code) {
  if (code.empty() || std::isspace(static_cast<unsigned char>(code[0])) != 0) {
    return false;
  }
  const std::string t = trim(code);
  for (const char* benign :
       {"#", "//", "}", "{", "using ", "typedef ", "namespace ", "template",
        "struct ", "class ", "enum ", "return ", "friend ", "extern ",
        "case ", "public", "private", "protected", "ROARRAY_", "TEST"}) {
    if (starts_with(t, benign)) return false;
  }
  if (t.find("const") != std::string::npos) return false;  // const/constexpr
  if (t.find('(') != std::string::npos) return false;      // function-ish
  const bool storage = starts_with(t, "static ") || starts_with(t, "inline ") ||
                       starts_with(t, "thread_local ") ||
                       starts_with(t, "mutable ");
  const bool defines = t.find('=') != std::string::npos ||
                       (!t.empty() && t.back() == ';');
  if (!defines) return false;
  if (storage) return true;
  if (!ident_char(t[0])) return false;
  // Plain `T name = init;` at namespace scope. Without an initializer,
  // require at least two identifier-ish tokens (`std::random_device rd;`)
  // so single-word statements don't trip.
  if (t.find('=') != std::string::npos) return true;
  int words = 0;
  bool in_word = false;
  for (const char c : t) {
    const bool w = ident_char(c);
    if (w && !in_word) ++words;
    in_word = w;
  }
  return words >= 2;
}

/// True when `code` (already comment/string-stripped) contains a raw
/// SIMD intrinsic identifier: anything beginning `_mm` (SSE/AVX/AVX-512
/// calls and masks), `__m<digit>` (the vector register types), or a
/// NEON-style `v...q_{f,s,u}<width>` / `v...q_lane` name.
[[nodiscard]] bool has_intrinsic_token(std::string_view code) {
  std::size_t i = 0;
  while (i < code.size()) {
    if (!ident_char(code[i]) || (i > 0 && ident_char(code[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t e = i;
    while (e < code.size() && ident_char(code[e])) ++e;
    const std::string_view id = code.substr(i, e - i);
    if (starts_with(id, "_mm")) return true;
    if (starts_with(id, "__m") && id.size() > 3 &&
        std::isdigit(static_cast<unsigned char>(id[3])) != 0) {
      return true;
    }
    if (id.size() > 6 && id[0] == 'v' &&
        (id.find("q_f64") != std::string_view::npos ||
         id.find("q_f32") != std::string_view::npos ||
         id.find("q_u64") != std::string_view::npos ||
         id.find("q_s64") != std::string_view::npos ||
         id.find("q_lane_") != std::string_view::npos)) {
      return true;
    }
    i = e;
  }
  return false;
}

/// Detects an fread/fwrite call whose result is visibly discarded: the
/// trimmed statement begins with the call itself, optionally behind a
/// (void) cast. Results consumed by a condition, assignment, or
/// comparison leave the call mid-expression and do not match.
[[nodiscard]] bool discards_stdio_result(std::string_view t) {
  if (starts_with(t, "(void)")) {
    t.remove_prefix(6);
    while (!t.empty() && std::isspace(static_cast<unsigned char>(t[0])) != 0) {
      t.remove_prefix(1);
    }
  }
  for (const std::string_view call : {"std::fread", "std::fwrite", "::fread",
                                      "::fwrite", "fread", "fwrite"}) {
    if (!starts_with(t, call)) continue;
    std::size_t i = call.size();
    while (i < t.size() &&
           std::isspace(static_cast<unsigned char>(t[i])) != 0) {
      ++i;
    }
    if (i < t.size() && t[i] == '(') return true;
  }
  return false;
}

/// Line-local invariants, scoped by path:
///   determinism     no entropy or clock reads in src/
///   no-iostream     no <iostream> or std::cout/cerr/clog/cin in src/
///   pragma-once     every header carries #pragma once
///   mutable-global  no mutable namespace-scope state in src/ outside
///                   src/runtime/
///   unchecked-io    no discarded fread/fwrite result in src/io/
///   intrinsics      raw SIMD intrinsics only in src/linalg/backend/
void check_tokens(const std::vector<SourceFile>& files,
                  std::vector<Finding>& findings) {
  for (const SourceFile& f : files) {
    const PathScope scope = classify(f.path);
    bool saw_pragma_once = false;
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& code = f.code[i];
      const std::string t = trim(code);
      const int line = static_cast<int>(i) + 1;
      const bool include = starts_with(t, "#include");
      if (t == "#pragma once") saw_pragma_once = true;

      if (!scope.in_backend &&
          ((include && (t.find("immintrin.h") != std::string::npos ||
                        t.find("arm_neon.h") != std::string::npos)) ||
           has_intrinsic_token(code))) {
        findings.push_back(
            {f.path, line, "intrinsics",
             "raw SIMD intrinsics are confined to src/linalg/backend/ "
             "(add a kernel to the Backend table instead)"});
      }
      if (!scope.in_src) continue;

      for (const ForbiddenToken& ft : kDeterminismTokens) {
        if (has_token(code, ft.token, ft.require_call)) {
          findings.push_back(
              {f.path, line, "determinism",
               std::string("forbidden nondeterminism source '") + ft.token +
                   "' in library code (seed explicitly instead)"});
          break;
        }
      }
      if ((include && t.find("<iostream>") != std::string::npos) ||
          has_token(code, "cout") || has_token(code, "cerr") ||
          has_token(code, "clog") || has_token(code, "cin")) {
        findings.push_back({f.path, line, "no-iostream",
                            "iostream is banned in library targets (return "
                            "values / exceptions instead)"});
      }
      if (scope.in_io && discards_stdio_result(t)) {
        findings.push_back(
            {f.path, line, "unchecked-io",
             "discarded fread/fwrite result in src/io (short reads/writes "
             "must reach the typed TraceError/ReadStatus paths)"});
      }
      if (!scope.in_runtime && looks_like_mutable_global(code)) {
        findings.push_back(
            {f.path, line, "mutable-global",
             "mutable namespace-scope state outside src/runtime/ (move it "
             "into the runtime layer and guard it)"});
      }
    }
    if ((ends_with(f.path, ".hpp") || ends_with(f.path, ".h")) &&
        !saw_pragma_once) {
      findings.push_back(
          {f.path, 1, "pragma-once", "header is missing #pragma once"});
    }
  }
}

}  // namespace

std::string scope_path(const std::string& root, const std::string& file) {
  namespace fs = std::filesystem;
  fs::path r = fs::path(root).lexically_normal();
  const fs::path f = fs::path(file).lexically_normal();
  if (!r.has_filename()) r = r.parent_path();  // "src/" -> "src".
  const fs::path scoped =
      f == r ? f : (r.filename() / f.lexically_relative(r)).lexically_normal();
  return scoped.generic_string();
}

std::vector<Finding> run_rules(std::vector<SourceFile>& files,
                               const Specs& specs) {
  CodeModel model;
  for (SourceFile& f : files) {
    f.code = strip_lines(f.raw);
    if (classify(f.path).in_src) scan_file(f, model);
  }

  std::vector<Finding> findings;
  check_tokens(files, findings);
  check_layering(model, specs, findings);
  check_lock_order(model, specs, findings);
  check_hot_alloc(files, model, specs, findings);

  // Per-line suppressions (spec findings are never suppressible).
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : files) by_path[f.path] = &f;
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    if (f.rule != "spec") {
      const auto it = by_path.find(f.path);
      if (it != by_path.end() && f.line >= 1 &&
          f.line <= static_cast<int>(it->second->raw.size()) &&
          suppressed(it->second->raw[static_cast<std::size_t>(f.line - 1)],
                     f.rule)) {
        continue;
      }
    }
    kept.push_back(std::move(f));
  }
  sort_findings(kept);
  return kept;
}

}  // namespace roarray::srctool
