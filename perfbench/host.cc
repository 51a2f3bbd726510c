#include "host.h"

#include <sys/resource.h>

#include <cstring>
#include <thread>

#include "spans.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <x86intrin.h>
#define PERFBENCH_X86 1
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
#ifdef PERFBENCH_X86
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

double CpuMhz() {
#ifdef PERFBENCH_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0, &eax, &ebx, &ecx, &edx) && eax >= 0x16 &&
      __get_cpuid(0x16, &eax, &ebx, &ecx, &edx) && (eax & 0xffff) != 0) {
    return static_cast<double>(eax & 0xffff);
  }
  const int64_t t0 = NowNs();
  const uint64_t c0 = __rdtsc();
  while (NowNs() - t0 < 20'000'000) {
  }
  const uint64_t c1 = __rdtsc();
  const int64_t t1 = NowNs();
  return static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0) * 1e3;
#else
  return 0;
#endif
}

}  // namespace

HostStamp ReadHost() {
  HostStamp h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu_model = CpuModel();
  h.cpu_mhz = CpuMhz();
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __VERSION__
  h.compiler = __VERSION__;
#endif
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
