// Built-in fixture battery for roarray_analyze (--self-test): every
// rule family gets at least one clean and one violating fixture, plus
// fixtures for suppressions, path scopes and fail-closed spec handling.
// Fixtures are synthetic in-memory files run through exactly the
// production pipeline (scope_path -> scan -> rules -> suppression
// filter), so a behavior change that weakens a rule fails here before it
// reaches CI.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "rules.hpp"

namespace roarray::srctool {

namespace {

struct FixtureFile {
  std::string path;
  std::string content;
};

struct Expected {
  std::string rule;
  std::string message_substring;
};

struct Fixture {
  std::string name;
  std::string layering_spec;
  std::string lock_spec;
  std::string hot_spec;
  std::vector<FixtureFile> files;
  std::vector<Expected> expect;
};

/// Layering map used by lock/hot fixtures that don't exercise layering:
/// everything under src/ is one module, so includes never cross edges.
const char* const kOneModule = "module all src/\n";

/// Two-module map with a single allowed downward edge beta -> alpha.
const char* const kTwoModules =
    "module alpha src/alpha/\n"
    "module beta src/beta/\n"
    "allow beta alpha\n";

[[nodiscard]] std::vector<Fixture> make_fixtures() {
  std::vector<Fixture> fx;

  // -- token rules ---------------------------------------------------------
  // Single-file fixtures under the one-module map (so the semantic
  // families stay quiet), each expecting an exact multiset of rules.

  const auto token = [&fx](std::string name, std::string path,
                           std::string content,
                           const std::vector<std::string>& rules) {
    std::vector<Expected> expect;
    for (const std::string& r : rules) expect.push_back({r, ""});
    fx.push_back({std::move(name), kOneModule, "", "",
                  {{std::move(path), std::move(content)}}, std::move(expect)});
  };

  token("token: rand call flagged", "src/dsp/a.cpp",
        "int f() { return rand(); }\n", {"determinism"});
  token("token: std::rand flagged", "src/dsp/a.cpp",
        "#include <cstdlib>\nint f() { return std::rand(); }\n",
        {"determinism"});
  token("token: random_device flagged", "src/core/b.cpp",
        "std::random_device rd;\n", {"determinism", "mutable-global"});
  token("token: wall clock flagged", "src/core/b.cpp",
        "auto t = std::chrono::system_clock::now();\n", {"determinism"});
  token("token: time() call flagged", "src/core/b.cpp",
        "long f() { return time(nullptr); }\n", {"determinism"});
  token("token: runtime( is not time(", "src/core/b.cpp",
        "void runtime(int); void f() { runtime (3); }\n", {});
  token("token: comment mention ok", "src/core/b.cpp",
        "// steady_clock would break determinism here\nint x() { return 1; }\n",
        {});
  token("token: string mention ok", "src/core/b.cpp",
        "const char* k = \"std::rand() is banned\";\n", {});
  token("token: block comment ok", "src/core/b.cpp",
        "/* srand(7) was\n   the old seeding */\nint y() { return 2; }\n", {});
  token("token: suppression honored", "src/core/b.cpp",
        "long f() { return time(nullptr); }  "
        "// roarray-analyze: allow(determinism) boot stamp only\n",
        {});
  token("token: clock outside src ok", "bench/b.cpp",
        "auto t = std::chrono::steady_clock::now();\n", {});
  token("token: iostream include flagged", "src/eval/c.cpp",
        "#include <iostream>\n", {"no-iostream"});
  token("token: cerr use flagged", "src/eval/c.cpp",
        "void f() { std::cerr << 1; }\n", {"no-iostream"});
  token("token: iostream in tests ok", "tests/t.cpp",
        "#include <iostream>\n", {});
  token("token: missing pragma once", "src/dsp/h.hpp", "int f();\n",
        {"pragma-once"});
  token("token: pragma once present", "src/dsp/h.hpp",
        "// doc\n#pragma once\nint f();\n", {});
  token("token: pragma enforced outside src too", "tests/t.hpp", "int f();\n",
        {"pragma-once"});
  token("token: mutable global flagged", "src/music/g.cpp",
        "static int call_count = 0;\n", {"mutable-global"});
  token("token: inline global flagged", "src/music/g.hpp",
        "#pragma once\ninline int hits = 0;\n", {"mutable-global"});
  token("token: plain global flagged", "src/music/g.cpp",
        "int counter = 0;\n", {"mutable-global"});
  token("token: const global ok", "src/music/g.cpp",
        "static const int kLimit = 3;\n", {});
  token("token: constexpr global ok", "src/music/g.hpp",
        "#pragma once\ninline constexpr double kPi = 3.14;\n", {});
  token("token: function def ok", "src/music/g.cpp",
        "static int helper() { return 1; }\n", {});
  token("token: indented local ok", "src/music/g.cpp",
        "int f() {\n  static int memo = compute();\n  return memo;\n}\n", {});
  token("token: runtime exempt", "src/runtime/pool.cpp",
        "inline thread_local bool in_region = false;\n", {});
  token("token: global in tests ok", "tests/t.cpp",
        "static int hits = 0;\n", {});
  token("token: suppressed global ok", "src/music/g.cpp",
        "static int hits = 0;  // roarray-analyze: allow(mutable-global) why\n",
        {});
  token("token: bare fread flagged in io", "src/io/r.cpp",
        "void f(FILE* fp, char* b) {\n  fread(b, 1, 8, fp);\n}\n",
        {"unchecked-io"});
  token("token: void-cast fwrite flagged in io", "src/io/w.cpp",
        "void f(FILE* fp, const char* b) {\n  (void)fwrite(b, 1, 8, fp);\n}\n",
        {"unchecked-io"});
  token("token: std::fread flagged in io", "src/io/r.cpp",
        "void f(FILE* fp, char* b) {\n  std::fread(b, 1, 8, fp);\n}\n",
        {"unchecked-io"});
  token("token: checked fread ok in io", "src/io/r.cpp",
        "bool f(FILE* fp, char* b) {\n  return fread(b, 1, 8, fp) == 8;\n}\n",
        {});
  token("token: assigned fwrite ok in io", "src/io/w.cpp",
        "void f(FILE* fp, const char* b) {\n"
        "  const size_t n = fwrite(b, 1, 8, fp);\n  (void)n;\n}\n",
        {});
  token("token: fread-like name ok in io", "src/io/r.cpp",
        "void fread_all(int);\nvoid f() {\n  fread_all(3);\n}\n", {});
  token("token: bare fread outside io ok", "src/sim/s.cpp",
        "void f(FILE* fp, char* b) {\n  fread(b, 1, 8, fp);\n}\n", {});
  token("token: suppressed fread ok in io", "src/io/r.cpp",
        "void f(FILE* fp, char* b) {\n"
        "  fread(b, 1, 8, fp);  // roarray-analyze: allow(unchecked-io) probe\n"
        "}\n",
        {});
  token("token: immintrin include flagged outside backend",
        "src/linalg/gemm.cpp",
        "#include <immintrin.h>\n", {"intrinsics"});
  token("token: arm_neon include flagged outside backend", "src/dsp/x.cpp",
        "#include <arm_neon.h>\n", {"intrinsics"});
  token("token: avx call flagged outside backend", "src/sparse/p.cpp",
        "void f(double* x) {\n  __m256d v = _mm256_loadu_pd(x);\n"
        "  _mm256_storeu_pd(x, v);\n}\n",
        {"intrinsics", "intrinsics"});
  token("token: neon call flagged outside backend", "src/channel/c.cpp",
        "void f(double* x) {\n  auto v = vld1q_f64(x);\n"
        "  vst1q_f64(x, vfmaq_f64(v, v, v));\n}\n",
        {"intrinsics", "intrinsics"});
  token("token: intrinsics flagged in tests too", "tests/t.cpp",
        "void f(double* x) {\n  auto v = _mm_loadu_pd(x);\n  (void)v;\n}\n",
        {"intrinsics"});
  token("token: intrinsics ok inside backend",
        "src/linalg/backend/simd_avx2.cpp",
        "#include <immintrin.h>\n"
        "void f(double* x) {\n  _mm256_storeu_pd(x, _mm256_setzero_pd());\n}\n",
        {});
  token("token: intrinsic in comment ok", "src/linalg/gemm.cpp",
        "// the backend's _mm256_fmadd_pd path handles this\nint f();\n", {});
  token("token: intrinsic in string ok", "src/eval/r.cpp",
        "const char* k = \"_mm256_fmadd_pd\";\n", {});
  token("token: vector-ish name ok", "src/music/m.cpp",
        "int vq_f6(int virtq_lanes);\nvoid f(int verify_f64q);\n", {});
  token("token: suppressed intrinsic ok", "src/dsp/y.cpp",
        "auto v = _mm_pause();  "
        "// roarray-analyze: allow(intrinsics) spin hint\n",
        {});
  // Serve-layer pair: the service is src/ code like any other —
  // iostream debugging is flagged, while a clean header with
  // #pragma once and leaf-lock annotations passes untouched.
  token("token: iostream flagged in serve", "src/serve/service.cpp",
        "#include <iostream>\nvoid dbg() { std::cout << \"pump\\n\"; }\n",
        {"no-iostream", "no-iostream"});
  token("token: annotated serve header ok", "src/serve/service.hpp",
        "// streaming service\n#pragma once\n"
        "#include \"runtime/thread_annotations.hpp\"\n"
        "class S {\n  mutable roarray::runtime::Mutex mutex_;\n"
        "  bool stopping_ ROARRAY_GUARDED_BY(mutex_) = false;\n};\n",
        {});

  // Scopes come from the path below the scanned root, never from the
  // directories above it: a checkout living under some ".../src/" keeps
  // its tests/ lenient and its src/ strict.
  token("token: tests/ under an ancestor src/ stays test code",
        scope_path("/home/ci/src/checkout/tests",
                   "/home/ci/src/checkout/tests/sim/t.cpp"),
        "#include <iostream>\n"
        "void f() { std::cout << std::rand(); }\n",
        {});
  token("token: src/ under an ancestor src/ stays library code",
        scope_path("/home/ci/src/checkout/src/",
                   "/home/ci/src/checkout/src/dsp/a.cpp"),
        "#include <iostream>\n"
        "void f() { std::cout << std::rand(); }\n",
        {"determinism", "no-iostream", "no-iostream"});

  // -- include layering ----------------------------------------------------

  fx.push_back({"layering: allowed downward edge is clean",
                kTwoModules,
                "",
                "",
                {{"src/alpha/a.hpp", "#pragma once\n"},
                 {"src/beta/b.hpp",
                  "#pragma once\n#include \"alpha/a.hpp\"\n"}},
                {}});

  fx.push_back({"layering: upward include flagged",
                kTwoModules,
                "",
                "",
                {{"src/alpha/a.hpp",
                  "#pragma once\n#include \"beta/b.hpp\"\n"},
                 {"src/beta/b.hpp", "#pragma once\n"}},
                {{"layering", "alpha -> beta"}}});

  fx.push_back({"layering: includer outside the module map flagged",
                kTwoModules,
                "",
                "",
                {{"src/gamma/g.hpp",
                  "#pragma once\n#include \"alpha/a.hpp\"\n"},
                 {"src/alpha/a.hpp", "#pragma once\n"}},
                {{"layering", "not covered by the module map"}}});

  fx.push_back({"layering: unmapped include target flagged",
                kTwoModules,
                "",
                "",
                {{"src/alpha/a.hpp",
                  "#pragma once\n#include \"delta/d.hpp\"\n"}},
                {{"layering", "\"delta/d.hpp\""}}});

  fx.push_back({"layering: intra-module include needs no allow edge",
                kTwoModules,
                "",
                "",
                {{"src/alpha/a.hpp",
                  "#pragma once\n#include \"alpha/util.hpp\"\n"},
                 {"src/alpha/util.hpp", "#pragma once\n"}},
                {}});

  fx.push_back({"layering: cyclic allow spec fails closed",
                "module alpha src/alpha/\n"
                "module beta src/beta/\n"
                "allow alpha beta\n"
                "allow beta alpha\n",
                "",
                "",
                {{"src/alpha/a.hpp", "#pragma once\n"}},
                {{"spec", "cyclic"}}});

  fx.push_back({"layering: malformed directive fails closed",
                "module alpha src/alpha/\nalloww beta alpha\n",
                "",
                "",
                {{"src/alpha/a.hpp", "#pragma once\n"}},
                {{"spec", "malformed layering directive"}}});

  fx.push_back({"layering: suppression comment is honored",
                kTwoModules,
                "",
                "",
                {{"src/alpha/a.hpp",
                  "#pragma once\n#include \"beta/b.hpp\"  "
                  "// roarray-analyze: allow(layering) bootstrap shim\n"},
                 {"src/beta/b.hpp", "#pragma once\n"}},
                {}});

  // -- lock order ----------------------------------------------------------

  const char* const kPairHpp =
      "#pragma once\n"
      "namespace serve {\n"
      "class S {\n"
      " public:\n"
      "  void outer() ROARRAY_EXCLUDES(big_, small_);\n"
      " private:\n"
      "  mutable Mutex big_;\n"
      "  mutable Mutex small_;\n"
      "};\n"
      "}  // namespace serve\n";
  const char* const kPairCpp =
      "#include \"serve/s.hpp\"\n"
      "namespace serve {\n"
      "void S::outer() {\n"
      "  MutexLock a(big_);\n"
      "  {\n"
      "    MutexLock b(small_);\n"
      "  }\n"
      "}\n"
      "}  // namespace serve\n";

  fx.push_back({"lock-order: documented nesting is clean",
                kOneModule,
                "order serve::S::big_ > serve::S::small_\n",
                "",
                {{"src/serve/s.hpp", kPairHpp}, {"src/serve/s.cpp", kPairCpp}},
                {}});

  fx.push_back({"lock-order: undocumented nesting flagged",
                kOneModule,
                "",
                "",
                {{"src/serve/s.hpp", kPairHpp}, {"src/serve/s.cpp", kPairCpp}},
                {{"lock-order", "not documented"}}});

  fx.push_back(
      {"lock-order: transitive documentation covers A -> C",
       kOneModule,
       "order serve::T::a_ > serve::T::b_\n"
       "order serve::T::b_ > serve::T::c_\n",
       "",
       {{"src/serve/t.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class T {\n"
         " public:\n"
         "  void f() ROARRAY_EXCLUDES(a_, c_);\n"
         " private:\n"
         "  mutable Mutex a_;\n"
         "  mutable Mutex b_;\n"
         "  mutable Mutex c_;\n"
         "};\n"
         "void T::f() {\n"
         "  MutexLock la(a_);\n"
         "  {\n"
         "    MutexLock lc(c_);\n"
         "  }\n"
         "}\n"
         "}\n"}},
       {}});

  fx.push_back(
      {"lock-order: synthetic two-mutex cycle detected",
       kOneModule,
       "",
       "",
       {{"src/serve/ab.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class B;\n"
         "class A {\n"
         " public:\n"
         "  void f(B& b) ROARRAY_EXCLUDES(a_);\n"
         "  void acquire_a() ROARRAY_EXCLUDES(a_);\n"
         "  mutable Mutex a_;\n"
         "};\n"
         "class B {\n"
         " public:\n"
         "  void g(A& a) ROARRAY_EXCLUDES(b_);\n"
         "  void acquire_b() ROARRAY_EXCLUDES(b_);\n"
         "  mutable Mutex b_;\n"
         "};\n"
         "void A::acquire_a() { MutexLock l(a_); }\n"
         "void B::acquire_b() { MutexLock l(b_); }\n"
         "void A::f(B& b) {\n"
         "  MutexLock l(a_);\n"
         "  b.acquire_b();\n"
         "}\n"
         "void B::g(A& a) {\n"
         "  MutexLock l(b_);\n"
         "  a.acquire_a();\n"
         "}\n"
         "}\n"}},
       {{"lock-order", "deadlock"},
        {"lock-order", "serve::A::a_ -> serve::B::b_"},
        {"lock-order", "serve::B::b_ -> serve::A::a_"}}});

  fx.push_back(
      {"lock-order: leaf lock must not nest",
       kOneModule,
       "leaf serve::L::small_\n",
       "",
       {{"src/serve/l.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class L {\n"
         " public:\n"
         "  void f() ROARRAY_EXCLUDES(small_, other_);\n"
         " private:\n"
         "  mutable Mutex small_;\n"
         "  mutable Mutex other_;\n"
         "};\n"
         "void L::f() {\n"
         "  MutexLock a(small_);\n"
         "  {\n"
         "    MutexLock b(other_);\n"
         "  }\n"
         "}\n"
         "}\n"}},
       {{"lock-order", "leaf lock serve::L::small_"}}});

  fx.push_back(
      {"lock-order: recursive acquisition flagged",
       kOneModule,
       "",
       "",
       {{"src/serve/r.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class R {\n"
         " public:\n"
         "  void f() ROARRAY_EXCLUDES(m_);\n"
         " private:\n"
         "  mutable Mutex m_;\n"
         "};\n"
         "void R::f() {\n"
         "  MutexLock a(m_);\n"
         "  {\n"
         "    MutexLock b(m_);\n"
         "  }\n"
         "}\n"
         "}\n"}},
       {{"lock-order", "recursive acquisition"}}});

  fx.push_back(
      {"lock-order: missing EXCLUDES on method and destructor",
       kOneModule,
       "",
       "",
       {{"src/serve/e.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class E {\n"
         " public:\n"
         "  ~E();\n"
         "  void poke();\n"
         "  void stop_all() ROARRAY_EXCLUDES(m_);\n"
         " private:\n"
         "  mutable Mutex m_;\n"
         "};\n"
         "void E::poke() { MutexLock l(m_); }\n"
         "void E::stop_all() { MutexLock l(m_); }\n"
         "E::~E() { stop_all(); }\n"
         "}\n"}},
       {{"lock-order", "E::poke acquires E::m_"},
        {"lock-order", "E::~E acquires E::m_ (via stop_all())"}}});

  fx.push_back(
      {"lock-order: annotated destructor is clean",
       kOneModule,
       "",
       "",
       {{"src/serve/d.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class D {\n"
         " public:\n"
         "  ~D() ROARRAY_EXCLUDES(m_);\n"
         "  void stop_all() ROARRAY_EXCLUDES(m_);\n"
         " private:\n"
         "  mutable Mutex m_;\n"
         "};\n"
         "void D::stop_all() { MutexLock l(m_); }\n"
         "D::~D() { stop_all(); }\n"
         "}\n"}},
       {}});

  fx.push_back(
      {"lock-order: REQUIRES plus acquire is a self-deadlock",
       kOneModule,
       "",
       "",
       {{"src/serve/q.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class Q {\n"
         " public:\n"
         "  void locked_op() ROARRAY_REQUIRES(m_);\n"
         " private:\n"
         "  mutable Mutex m_;\n"
         "};\n"
         "void Q::locked_op() { MutexLock l(m_); }\n"
         "}\n"}},
       {{"lock-order", "guaranteed self-deadlock"},
        {"lock-order", "not annotated ROARRAY_EXCLUDES(m_)"}}});

  fx.push_back(
      {"lock-order: entrypoint and callback under a held lock",
       kOneModule,
       "entrypoint estimate_entry\ncallback on_done\n",
       "",
       {{"src/serve/c.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class C {\n"
         " public:\n"
         "  void f() ROARRAY_EXCLUDES(m_);\n"
         " private:\n"
         "  mutable Mutex m_;\n"
         "};\n"
         "void C::f() {\n"
         "  MutexLock l(m_);\n"
         "  estimate_entry(1);\n"
         "  on_done(2);\n"
         "}\n"
         "}\n"}},
       {{"lock-order", "across call to 'estimate_entry'"},
        {"lock-order", "across call to 'on_done'"}}});

  fx.push_back(
      {"lock-order: GUARDED_BY must name a real mutex member",
       kOneModule,
       "",
       "",
       {{"src/serve/g.hpp",
         "#pragma once\n"
         "namespace serve {\n"
         "class G {\n"
         " private:\n"
         "  mutable Mutex m_;\n"
         "  int ok_ ROARRAY_GUARDED_BY(m_) = 0;\n"
         "  int bad_ ROARRAY_GUARDED_BY(nope_) = 0;\n"
         "};\n"
         "}\n"}},
       {{"lock-order", "ROARRAY_GUARDED_BY(nope_)"}}});

  fx.push_back(
      {"lock-order: raw std primitives outside the exempt wrapper",
       kOneModule,
       "primitive-exempt src/alpha/wrap.hpp\n",
       "",
       {{"src/alpha/wrap.hpp",
         "#pragma once\nclass W { std::mutex ok_; };\n"},
        {"src/serve/raw.hpp",
         "#pragma once\nclass V { std::mutex bad_; };\n"}},
       {{"lock-order", "std::mutex is invisible"}}});

  fx.push_back({"lock-order: spec naming an unknown lock fails closed",
                kOneModule,
                "order serve::Ghost::m_ > serve::Ghost::n_\n",
                "",
                {{"src/serve/empty.hpp", "#pragma once\n"}},
                {{"spec", "serve::Ghost::m_"},
                 {"spec", "serve::Ghost::n_"}}});

  // -- hot-path allocation -------------------------------------------------

  fx.push_back(
      {"hot-alloc: allocation-free backend kernel is clean",
       kOneModule,
       "",
       "hot-dir src/linalg/backend/\n",
       {{"src/linalg/backend/k.cpp",
         "#include \"linalg/backend/k.hpp\"\n"
         "void axpy(int n, const double* x, double* y) {\n"
         "  for (int i = 0; i < n; ++i) y[i] += 2.0 * x[i];\n"
         "}\n"},
        {"src/linalg/backend/k.hpp", "#pragma once\n"}},
       {}});

  fx.push_back(
      {"hot-alloc: push_back in a backend kernel flagged",
       kOneModule,
       "",
       "hot-dir src/linalg/backend/\n",
       {{"src/linalg/backend/k.cpp",
         "void collect(int n, Sink& out) {\n"
         "  for (int i = 0; i < n; ++i) out.vals.push_back(i);\n"
         "}\n"}},
       {{"hot-alloc", ".push_back()"}}});

  fx.push_back(
      {"hot-alloc: operator new in a backend kernel flagged",
       kOneModule,
       "",
       "hot-dir src/linalg/backend/\n",
       {{"src/linalg/backend/k.cpp",
         "double* scratch(int n) {\n"
         "  return new double[static_cast<unsigned long>(n)];\n"
         "}\n"}},
       {{"hot-alloc", "operator new"}}});

  fx.push_back(
      {"hot-alloc: hot-fn scope flags only the named function",
       kOneModule,
       "",
       "hot-fn prox_fn\n",
       {{"src/sparse/p.hpp",
         "#pragma once\n"
         "namespace sparse {\n"
         "inline void prox_fn(int n, double* x) {\n"
         "  std::vector<double> tmp(static_cast<unsigned long>(n), 0.0);\n"
         "  for (int i = 0; i < n; ++i) x[i] += tmp[static_cast<unsigned long>(i)];\n"
         "}\n"
         "inline void cold_fn(int n) {\n"
         "  std::vector<double> fine(static_cast<unsigned long>(n), 0.0);\n"
         "  (void)fine;\n"
         "}\n"
         "}\n"}},
       {{"hot-alloc", "owning std::vector"}}});

  fx.push_back(
      {"hot-alloc: hot-fn reaches a pass in an anonymous namespace",
       kOneModule,
       "",
       "hot-fn momentum_update\n",
       {{"src/sparse/f.cpp",
         "namespace sparse {\n"
         "namespace {\n"
         "void momentum_update(const double* x, double* z, long n) {\n"
         "  std::vector<double> planted(static_cast<unsigned long>(n));\n"
         "  for (long i = 0; i < n; ++i) z[i] = x[i];\n"
         "}\n"
         "}  // namespace\n"
         "}  // namespace sparse\n"}},
       {{"hot-alloc", "owning std::vector"}}});

  fx.push_back(
      {"hot-alloc: references and pointers to containers are fine",
       kOneModule,
       "",
       "hot-fn hot_ref\n",
       {{"src/sparse/r.hpp",
         "#pragma once\n"
         "inline void hot_ref(const std::vector<double>& v, std::string* s) {\n"
         "  (void)v;\n"
         "  (void)s;\n"
         "}\n"}},
       {}});

  fx.push_back(
      {"hot-alloc: suppression with rationale is honored",
       kOneModule,
       "",
       "hot-dir src/linalg/backend/\n",
       {{"src/linalg/backend/k.cpp",
         "void setup(int n, Sink& out) {\n"
         "  out.vals.reserve(static_cast<unsigned long>(n));  "
         "// roarray-analyze: allow(hot-alloc) one-time warmup before loop\n"
         "}\n"}},
       {}});

  fx.push_back({"hot-alloc: spec naming an unknown function fails closed",
                kOneModule,
                "",
                "hot-fn prox_fn\nhot-fn retired_pass\n",
                {{"src/sparse/p.hpp",
                  "#pragma once\n"
                  "inline void prox_fn(int n, double* x) {\n"
                  "  for (int i = 0; i < n; ++i) x[i] *= 0.5;\n"
                  "}\n"}},
                {{"spec", "function not found in the scanned sources: "
                          "retired_pass"}}});

  fx.push_back({"hot-alloc: malformed hot-path directive fails closed",
                kOneModule,
                "",
                "hot-dirs src/linalg/backend/\n",
                {{"src/serve/empty.hpp", "#pragma once\n"}},
                {{"spec", "malformed hot-path directive"}}});

  return fx;
}

[[nodiscard]] bool run_fixture(const Fixture& fx, std::string& diag) {
  Specs specs;
  specs.layering_origin = "layering.txt";
  specs.lock_order_origin = "lock_order.txt";
  specs.hot_origin = "hot_paths.txt";
  std::vector<Finding> spec_findings;
  (void)parse_layering_spec(fx.layering_spec, specs.layering_origin,
                            specs.layering, spec_findings);
  (void)parse_lock_order_spec(fx.lock_spec, specs.lock_order_origin,
                              specs.lock_order, spec_findings);
  (void)parse_hot_path_spec(fx.hot_spec, specs.hot_origin, specs.hot,
                            spec_findings);

  std::vector<SourceFile> files;
  for (const FixtureFile& ff : fx.files) {
    SourceFile sf;
    sf.path = ff.path;
    std::string cur;
    for (const char c : ff.content) {
      if (c == '\n') {
        sf.raw.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    if (!cur.empty()) sf.raw.push_back(cur);
    files.push_back(std::move(sf));
  }

  std::vector<Finding> got = run_rules(files, specs);
  got.insert(got.end(), spec_findings.begin(), spec_findings.end());

  std::vector<bool> used(got.size(), false);
  bool ok = true;
  for (const Expected& e : fx.expect) {
    bool matched = false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (used[i] || got[i].rule != e.rule) continue;
      if (got[i].message.find(e.message_substring) == std::string::npos) {
        continue;
      }
      used[i] = true;
      matched = true;
      break;
    }
    if (!matched) {
      diag += "  missing expected [" + e.rule + "] ~ \"" +
              e.message_substring + "\"\n";
      ok = false;
    }
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!used[i]) {
      diag += "  unexpected " + got[i].path + ":" +
              std::to_string(got[i].line) + " [" + got[i].rule + "] " +
              got[i].message + "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int run_self_test() {
  const std::vector<Fixture> fixtures = make_fixtures();
  int failed = 0;
  for (const Fixture& fx : fixtures) {
    std::string diag;
    if (!run_fixture(fx, diag)) {
      std::fprintf(stderr, "self-test FAIL: %s\n%s", fx.name.c_str(),
                   diag.c_str());
      ++failed;
    }
  }
  if (failed != 0) {
    std::fprintf(stderr, "roarray_analyze self-test: %d fixture(s) failed\n",
                 failed);
    return 1;
  }
  std::printf("roarray_analyze self-test: %zu fixtures OK\n", fixtures.size());
  return 0;
}

}  // namespace roarray::srctool
