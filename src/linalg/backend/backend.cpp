// Backend selection: force() override, else ROARRAY_BACKEND, else auto
// (simd when this binary has a SIMD table and the CPU supports it).
// Resolution happens once per process and is cached — see backend.hpp
// for why selection is deliberately process-global.
#include "linalg/backend/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace roarray::linalg::backend {

// Defined by the architecture-specific translation units; the CMake
// list adds each file (and its ROARRAY_HAVE_SIMD_* define) only when
// the target architecture and compiler support it, so these symbols
// exist exactly when the define does.
#if defined(ROARRAY_HAVE_SIMD_AVX2)
const Backend* simd_avx2_table();
#endif

bool simd_compiled() {
#if defined(ROARRAY_HAVE_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

const Backend* simd() {
#if defined(ROARRAY_HAVE_SIMD_AVX2)
  // The TU is compiled with -mavx2 -mfma -mpclmul; the runtime check
  // keeps the binary usable on CPUs without those units.
  static const Backend* const kSimd =
      (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
       __builtin_cpu_supports("pclmul"))
          ? simd_avx2_table()
          : nullptr;
  return kSimd;
#else
  return nullptr;
#endif
}

const char* cpu_features() {
#if defined(__x86_64__)
  static const char* const kFeatures = [] {
    const bool avx2 = __builtin_cpu_supports("avx2");
    const bool fma = __builtin_cpu_supports("fma");
    const bool avx512 = __builtin_cpu_supports("avx512f");
    if (avx2 && fma && avx512) return "avx2,fma,avx512f";
    if (avx2 && fma) return "avx2,fma";
    if (avx2) return "avx2";
    if (fma) return "fma";
    return "";
  }();
  return kFeatures;
#elif defined(__aarch64__)
  return "neon";
#else
  return "";
#endif
}

namespace {

enum class Request { kAuto, kScalar, kSimd };

/// Parses ROARRAY_BACKEND once. Unknown values fall back to auto (the
/// CI leg probes dispatch_info() rather than relying on errors here).
Request requested() {
  static const Request kRequest = [] {
    const char* env = std::getenv("ROARRAY_BACKEND");
    if (env == nullptr) return Request::kAuto;
    if (std::strcmp(env, "scalar") == 0) return Request::kScalar;
    if (std::strcmp(env, "simd") == 0) return Request::kSimd;
    return Request::kAuto;
  }();
  return kRequest;
}

const char* request_name(Request r) {
  switch (r) {
    case Request::kScalar: return "scalar";
    case Request::kSimd: return "simd";
    default: return "auto";
  }
}

/// The env/auto choice, resolved once. ROARRAY_BACKEND=simd on a CPU
/// without the features still yields scalar (graceful fallback,
/// recorded via dispatch_info().simd_supported).
const Backend* resolved() {
  static const Backend* const kResolved = [] {
    const Backend* vec = simd();
    if (requested() == Request::kScalar) return &scalar();
    return vec != nullptr ? vec : &scalar();
  }();
  return kResolved;
}

std::atomic<const Backend*>& force_slot() {
  static std::atomic<const Backend*> slot{nullptr};
  return slot;
}

}  // namespace

const Backend& active() {
  const Backend* forced = force_slot().load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  return *resolved();
}

Dispatch dispatch_info() {
  Dispatch d;
  d.selected = &active();
  d.requested = force_slot().load(std::memory_order_acquire) != nullptr
                    ? "force"
                    : request_name(requested());
  d.simd_compiled = simd_compiled();
  d.simd_supported = simd() != nullptr;
  return d;
}

void force(const Backend* be) {
  force_slot().store(be, std::memory_order_release);
}

}  // namespace roarray::linalg::backend
