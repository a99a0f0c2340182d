#include "simcache/way_scan.h"

#include <cstdlib>
#include <cstring>

namespace catdb::simcache {

SimdLevel DetectSimdLevel() {
#if CATDB_WAY_SCAN_X86
  // The binary is compiled for the x86-64 baseline and must keep running on
  // hosts without AVX-512F, so the kernels are enabled by this run-time
  // check (which also requires the OS to save the AVX-512 register state).
  if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
#endif
  return SimdLevel::kScalar;
}

SimdLevel DefaultSimdLevel() {
  static const SimdLevel level = [] {
    const char* env = std::getenv("CATDB_NO_SIMD");
    if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
      return SimdLevel::kScalar;
    }
    return DetectSimdLevel();
  }();
  return level;
}

}  // namespace catdb::simcache
