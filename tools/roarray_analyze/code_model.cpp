#include "code_model.hpp"

#include <array>
#include <optional>
#include <string_view>

#include "lexer.hpp"

namespace roarray::srctool {

namespace {

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = kBlock;
  std::string name;
  std::string owner;  ///< functions only: owning class ("" = free).
  int depth = 0;      ///< brace depth after the opening '{'.
  int start_line = 0;
};

struct HeldLock {
  std::string cls;
  std::string member;
  int depth = 0;  ///< brace depth at acquisition; released when we leave it.
};

[[nodiscard]] bool in_set(std::string_view s,
                          const std::vector<std::string_view>& set) {
  for (const std::string_view e : set) {
    if (s == e) return true;
  }
  return false;
}

const std::vector<std::string_view> kCallSkip = {
    "if",     "for",     "while",    "switch",        "catch",
    "return", "sizeof",  "alignof",  "decltype",      "noexcept",
    "new",    "delete",  "throw",    "operator",      "static_assert",
    "assert", "alignas", "co_await", "co_return",     "co_yield"};

/// Identifiers that cannot be a function name in a definition header
/// (rejects function-pointer declarators like `void (*fn)(...)`).
const std::vector<std::string_view> kNotAFunctionName = {
    "void",   "int",    "bool",     "char",   "short",   "long",
    "float",  "double", "unsigned", "signed", "auto",    "const",
    "constexpr", "static", "inline", "return", "typename", "template",
    "using",  "typedef", "class",   "struct", "enum",    "union",
    "if",     "for",    "while",    "switch", "catch",   "do",
    "else",   "new",    "delete",   "throw",  "sizeof"};

const std::vector<std::string_view> kStdLockPrimitives = {
    "mutex",        "timed_mutex",        "recursive_mutex",
    "shared_mutex", "recursive_timed_mutex",
    "lock_guard",   "unique_lock",        "scoped_lock",
    "shared_lock",  "condition_variable", "condition_variable_any"};

struct FunctionSig {
  std::string name;
  std::string owner;
  bool is_ctor = false;
};

/// Extracts {name, owner} from a pending definition/declaration header:
/// the identifier before the first '(', honoring `Class::name` and `~`.
[[nodiscard]] std::optional<FunctionSig> extract_function_sig(
    const std::vector<Token>& pending, const std::string& enclosing_class) {
  std::size_t paren = pending.size();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (!pending[i].is_ident && pending[i].text == "(") {
      paren = i;
      break;
    }
  }
  if (paren == pending.size() || paren == 0) return std::nullopt;
  std::size_t ni = paren - 1;
  if (!pending[ni].is_ident) return std::nullopt;
  FunctionSig sig;
  sig.name = pending[ni].text;
  if (in_set(sig.name, kNotAFunctionName)) return std::nullopt;
  bool dtor = false;
  if (ni > 0 && pending[ni - 1].text == "~") {
    dtor = true;
    --ni;  // qualifier (if any) sits before the '~'.
  }
  sig.owner = enclosing_class;
  if (ni >= 2 && pending[ni - 1].text == "::" && pending[ni - 2].is_ident) {
    sig.owner = pending[ni - 2].text;
  }
  if (dtor) sig.name = "~" + sig.name;
  sig.is_ctor = !sig.owner.empty() && sig.name == sig.owner;
  return sig;
}

/// Collects ROARRAY_EXCLUDES(...) / ROARRAY_REQUIRES(...) argument
/// identifiers out of a pending declaration or definition header.
void extract_annotations(const std::vector<Token>& pending,
                         MethodAnnotations& out) {
  for (std::size_t i = 0; i + 1 < pending.size(); ++i) {
    const bool excludes = pending[i].text == "ROARRAY_EXCLUDES";
    const bool requires_held = pending[i].text == "ROARRAY_REQUIRES";
    if ((!excludes && !requires_held) || pending[i + 1].text != "(") continue;
    int depth = 0;
    for (std::size_t j = i + 1; j < pending.size(); ++j) {
      if (pending[j].text == "(") {
        ++depth;
      } else if (pending[j].text == ")") {
        if (--depth == 0) break;
      } else if (pending[j].is_ident) {
        if (excludes) {
          out.excludes.insert(pending[j].text);
        } else {
          out.requires_held.insert(pending[j].text);
        }
      }
    }
  }
}

class FileScanner {
 public:
  FileScanner(const SourceFile& file, CodeModel& model)
      : file_(file), model_(model) {}

  void run() {
    bool pp_continues = false;
    for (std::size_t li = 0; li < file_.raw.size(); ++li) {
      const std::string& raw = file_.raw[li];
      line_ = static_cast<int>(li) + 1;
      const std::string trimmed = trim(file_.code[li]);
      const bool is_pp = pp_continues || (!trimmed.empty() && trimmed[0] == '#');
      if (is_pp) {
        pp_continues = !raw.empty() && raw.back() == '\\';
        if (starts_with(trimmed, "#include")) record_include(raw);
        continue;
      }
      pp_continues = false;
      feed_line(file_.code[li]);
    }
    // Close any dangling scopes so spans are recorded even for
    // truncated fixtures.
    while (!scopes_.empty()) {
      close_scope(scopes_.back());
      scopes_.pop_back();
    }
  }

 private:
  void record_include(const std::string& raw) {
    const std::size_t open = raw.find('"');
    if (open == std::string::npos) return;  // angle include: out of scope.
    const std::size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) return;
    model_.includes.push_back(
        {file_.path, line_, raw.substr(open + 1, close - open - 1)});
  }

  void feed_line(const std::string& code) {
    std::vector<Token> toks = tokenize(code);
    // Fold ':'+':' into "::" and '-'+'>' into "->" so downstream
    // pattern checks see one token per operator.
    std::vector<Token> merged;
    merged.reserve(toks.size());
    for (const Token& t : toks) {
      if (!merged.empty() && !merged.back().is_ident && !t.is_ident &&
          merged.back().col + merged.back().text.size() == t.col &&
          ((merged.back().text == ":" && t.text == ":") ||
           (merged.back().text == "-" && t.text == ">"))) {
        merged.back().text += t.text;
        continue;
      }
      merged.push_back(t);
    }
    for (const Token& t : merged) handle_token(t);
  }

  void handle_token(const Token& t) {
    check_std_primitive(t);
    if (capturing_) {
      handle_capture_token(t);
      push_prev(t);
      return;
    }
    if (!t.is_ident) {
      const std::string& p = t.text;
      if (p == "(") {
        on_open_paren();
        ++paren_depth_;
        pending_.push_back(t);
      } else if (p == ")") {
        --paren_depth_;
        pending_.push_back(t);
      } else if (p == "{") {
        on_open_brace();
      } else if (p == "}") {
        on_close_brace();
      } else if (p == ";") {
        if (paren_depth_ == 0) {
          on_statement_end();
        }
      } else if (p == ":") {
        if (pending_.size() == 1 && pending_[0].is_ident &&
            (pending_[0].text == "public" || pending_[0].text == "private" ||
             pending_[0].text == "protected")) {
          clear_pending();
        } else {
          pending_.push_back(t);
        }
      } else {
        if (p == "=" && paren_depth_ == 0) pending_eq_ = true;
        pending_.push_back(t);
      }
    } else {
      pending_.push_back(t);
    }
    push_prev(t);
  }

  void check_std_primitive(const Token& t) {
    if (t.is_ident && in_set(t.text, kStdLockPrimitives) &&
        prev1_ == "::" && prev2_ == "std") {
      model_.primitives.push_back({"std::" + t.text, file_.path, line_});
    }
  }

  void push_prev(const Token& t) {
    prev2_ = std::move(prev1_);
    prev1_ = t.text;
  }

  // -- '(' : acquisition and call detection ------------------------------

  void on_open_paren() {
    if (!in_function() || pending_.empty()) return;
    const Token& last = pending_.back();
    if (!last.is_ident) return;
    if (pending_.size() >= 2 && pending_[pending_.size() - 2].is_ident &&
        pending_[pending_.size() - 2].text == "MutexLock") {
      // `MutexLock <var>(` — capture the lock expression.
      capturing_ = true;
      capture_entry_depth_ = paren_depth_;
      capture_line_ = line_;
      capture_tokens_.clear();
      return;
    }
    if (in_set(last.text, kCallSkip) || last.text == "MutexLock") return;
    const Scope* fn = innermost_function();
    CallEvent ev;
    ev.cls = fn->owner;
    ev.method = fn->name;
    ev.callee = last.text;
    ev.has_receiver =
        pending_.size() >= 2 && (pending_[pending_.size() - 2].text == "." ||
                                 pending_[pending_.size() - 2].text == "->");
    ev.held = held_snapshot();
    ev.path = file_.path;
    ev.line = line_;
    model_.calls.push_back(std::move(ev));
  }

  void handle_capture_token(const Token& t) {
    if (!t.is_ident && t.text == "(") {
      ++paren_depth_;
      capture_tokens_.push_back(t);
      return;
    }
    if (!t.is_ident && t.text == ")") {
      --paren_depth_;
      if (paren_depth_ == capture_entry_depth_) {
        finish_acquisition();
        capturing_ = false;
        return;
      }
      capture_tokens_.push_back(t);
      return;
    }
    capture_tokens_.push_back(t);
  }

  void finish_acquisition() {
    std::string member;
    std::size_t ident_count = 0;
    for (const Token& t : capture_tokens_) {
      if (t.is_ident) {
        member = t.text;
        ++ident_count;
      }
    }
    if (member.empty()) return;
    const Scope* fn = innermost_function();
    AcquireEvent ev;
    ev.cls = fn != nullptr ? fn->owner : std::string();
    ev.method = fn != nullptr ? fn->name : std::string();
    ev.lock_member = member;
    // A bare `mutex_` resolves to the enclosing method's class; anything
    // dotted (`obj.mutex_`) is left for the rules layer to resolve by
    // unique member name across the lock registry.
    ev.lock_cls = ident_count == 1 ? ev.cls : std::string();
    ev.held = held_snapshot();
    ev.path = file_.path;
    ev.line = capture_line_;
    model_.acquires.push_back(ev);
    held_.push_back({ev.lock_cls, ev.lock_member, brace_depth_});
  }

  // -- '{' / '}' : scope management --------------------------------------

  void on_open_brace() {
    Scope s;
    s.start_line = line_;
    if (in_function() || paren_depth_ > 0) {
      s.kind = Scope::kBlock;  // lambda bodies, nested blocks, init lists.
    } else {
      s = classify_scope();
      s.start_line = line_;
    }
    ++brace_depth_;
    s.depth = brace_depth_;
    scopes_.push_back(std::move(s));
    clear_pending();
  }

  [[nodiscard]] Scope classify_scope() {
    Scope s;
    s.kind = Scope::kBlock;
    bool saw_namespace = false;
    bool saw_enum = false;
    std::size_t type_kw = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Token& t = pending_[i];
      if (!t.is_ident) continue;
      if (t.text == "namespace") saw_namespace = true;
      if (t.text == "enum") saw_enum = true;
      if ((t.text == "class" || t.text == "struct" || t.text == "union") &&
          type_kw == pending_.size()) {
        // `template <class T>` parameters are not type definitions.
        const bool tpl_param =
            i > 0 && (pending_[i - 1].text == "<" || pending_[i - 1].text == ",");
        if (!tpl_param) type_kw = i;
      }
    }
    if (saw_namespace) {
      s.kind = Scope::kNamespace;
      for (const Token& t : pending_) {
        if (t.is_ident && t.text != "namespace" && t.text != "inline") {
          s.name += (s.name.empty() ? "" : "::") + t.text;
        }
      }
      return s;
    }
    if (saw_enum) return s;
    if (type_kw != pending_.size()) {
      s.kind = Scope::kClass;
      // Name: last identifier before the base-clause ':' (skipping
      // attribute macros like ROARRAY_CAPABILITY("...") and `final`).
      for (std::size_t i = type_kw + 1; i < pending_.size(); ++i) {
        const Token& t = pending_[i];
        if (!t.is_ident && t.text == ":") break;
        if (t.is_ident && t.text != "final") s.name = t.text;
      }
      return s;
    }
    if (!pending_eq_) {
      const std::optional<FunctionSig> sig =
          extract_function_sig(pending_, current_class());
      if (sig.has_value()) {
        s.kind = Scope::kFunction;
        s.name = sig->name;
        s.owner = sig->owner;
        if (!sig->is_ctor) {
          MethodAnnotations anno;
          extract_annotations(pending_, anno);
          merge_annotations(sig->owner, sig->name, anno);
        }
        return s;
      }
    }
    return s;  // aggregate initializer or other brace construct.
  }

  void on_close_brace() {
    --brace_depth_;
    while (!scopes_.empty() && scopes_.back().depth > brace_depth_) {
      close_scope(scopes_.back());
      scopes_.pop_back();
    }
    while (!held_.empty() && held_.back().depth > brace_depth_) {
      held_.pop_back();
    }
    clear_pending();
  }

  void close_scope(const Scope& s) {
    if (s.kind != Scope::kFunction) return;
    model_.functions.push_back(
        {s.owner, s.name, file_.path, s.start_line, line_});
  }

  // -- ';' : member declarations at class scope ---------------------------

  void on_statement_end() {
    if (innermost_kind() == Scope::kClass) parse_class_member();
    clear_pending();
  }

  void parse_class_member() {
    const std::string cls = current_class();
    const std::size_t n = pending_.size();
    // Lock member: `... Mutex <name>;` with nothing (no '&'/'*') between
    // the type and the name — MutexLock's `Mutex& m_;` must not register.
    if (n >= 2 && pending_[n - 1].is_ident && pending_[n - 2].is_ident &&
        pending_[n - 2].text == "Mutex") {
      model_.locks.push_back({cls, pending_[n - 1].text, file_.path, line_});
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (pending_[i].is_ident && pending_[i].text == "ROARRAY_GUARDED_BY") {
        GuardedMember g;
        g.cls = cls;
        if (i > 0 && pending_[i - 1].is_ident) g.member = pending_[i - 1].text;
        if (i + 2 < n && pending_[i + 1].text == "(" &&
            pending_[i + 2].is_ident) {
          g.guard = pending_[i + 2].text;
        }
        g.path = file_.path;
        g.line = line_;
        model_.guarded.push_back(std::move(g));
        return;
      }
    }
    // Method declaration carrying thread-safety annotations.
    MethodAnnotations anno;
    extract_annotations(pending_, anno);
    if (anno.excludes.empty() && anno.requires_held.empty()) return;
    const std::optional<FunctionSig> sig = extract_function_sig(pending_, cls);
    if (sig.has_value() && !sig->is_ctor) {
      merge_annotations(sig->owner, sig->name, anno);
    }
  }

  void merge_annotations(const std::string& owner, const std::string& name,
                         const MethodAnnotations& anno) {
    MethodAnnotations& slot = model_.annotations[{owner, name}];
    slot.excludes.insert(anno.excludes.begin(), anno.excludes.end());
    slot.requires_held.insert(anno.requires_held.begin(),
                              anno.requires_held.end());
  }

  // -- helpers ------------------------------------------------------------

  [[nodiscard]] bool in_function() const {
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::kFunction) return true;
    }
    return false;
  }

  [[nodiscard]] const Scope* innermost_function() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return &*it;
    }
    return nullptr;
  }

  [[nodiscard]] Scope::Kind innermost_kind() const {
    return scopes_.empty() ? Scope::kNamespace : scopes_.back().kind;
  }

  [[nodiscard]] std::string current_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return {};
  }

  [[nodiscard]] std::vector<std::string> held_snapshot() const {
    std::vector<std::string> out;
    out.reserve(held_.size());
    for (const HeldLock& h : held_) out.push_back(h.cls + "::" + h.member);
    return out;
  }

  void clear_pending() {
    pending_.clear();
    pending_eq_ = false;
  }

  const SourceFile& file_;
  CodeModel& model_;
  int line_ = 0;
  int brace_depth_ = 0;
  int paren_depth_ = 0;
  std::vector<Scope> scopes_;
  std::vector<Token> pending_;
  bool pending_eq_ = false;
  std::vector<HeldLock> held_;
  bool capturing_ = false;
  int capture_entry_depth_ = 0;
  int capture_line_ = 0;
  std::vector<Token> capture_tokens_;
  std::string prev1_;
  std::string prev2_;
};

}  // namespace

void scan_file(const SourceFile& file, CodeModel& model) {
  FileScanner scanner(file, model);
  scanner.run();
}

}  // namespace roarray::srctool
