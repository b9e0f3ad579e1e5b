#pragma once

// Build identity, reported the same way everywhere it matters: the
// tools' --version output, the run-ledger manifest (common/ledger.h),
// and the explain report header. Keeping one definition guarantees an
// analyst can line up a saved ledger with the binary that wrote it.

#include <string>

namespace acobe {

/// Repository version; bump on externally visible format changes
/// (ledger/explain schemas carry their own version strings on top).
inline constexpr const char kAcobeVersion[] = "0.8.0";

struct BuildInfo {
  std::string version;     // kAcobeVersion
  std::string build_type;  // CMAKE_BUILD_TYPE baked in at compile time
  std::string simd;        // "avx2" or "scalar" (GEMM kernel dispatch)
  bool telemetry = false;  // instrumentation compiled in
  // Resolved GEMM thread count, stamped by nn::AnnotateBuildInfo. Left
  // at 0 by tools with no neural-net dependency (acobe_gen), whose
  // manifests simply omit the field.
  int nn_threads = 0;
};

/// The CPU probe behind the GEMM full-tile kernel choice (nn/gemm.cpp
/// dispatches on this very function), kept here so acobe_gen — which
/// has no neural-net dependency — reports it too. Non-x86 builds always
/// run the portable kernel.
inline const char* ActiveSimdName() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
#else
  return "scalar";
#endif
}

inline BuildInfo GetBuildInfo() {
  BuildInfo info;
  info.version = kAcobeVersion;
#ifdef ACOBE_BUILD_TYPE
  info.build_type = ACOBE_BUILD_TYPE;
#else
  info.build_type = "unknown";
#endif
  info.simd = ActiveSimdName();
#ifdef ACOBE_TELEMETRY_DISABLED
  info.telemetry = false;
#else
  info.telemetry = true;
#endif
  return info;
}

}  // namespace acobe
