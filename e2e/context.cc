#include "context.h"

#include <unistd.h>

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "base/parallel.h"
#include "tensor/simd.h"

#ifndef GELC_E2E_BUILD_TYPE
#define GELC_E2E_BUILD_TYPE "unknown"
#endif
#ifndef GELC_E2E_COMPILER
#define GELC_E2E_COMPILER "unknown"
#endif

namespace gelc::e2e {

namespace {

// The processor brand string from cpuid leaves 0x80000002-4.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    unsigned* r = regs + 4 * leaf;
    if (__get_cpuid(0x80000002 + leaf, &r[0], &r[1], &r[2], &r[3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  const size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

}  // namespace

std::vector<std::pair<std::string, std::string>> HostContext(
    const std::string& revision) {
  return {
      {"cpu", CpuModel()},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"pool_threads", std::to_string(ParallelThreadCount())},
      {"simd", simd::TierName(simd::ActiveTier())},
      {"compiler", GELC_E2E_COMPILER},
      {"build_type", GELC_E2E_BUILD_TYPE},
      {"revision", revision},
  };
}

}  // namespace gelc::e2e
