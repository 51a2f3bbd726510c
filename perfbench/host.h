#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

/// What every result is stamped with so numbers from different hosts or
/// builds are never compared blindly.
struct HostStamp {
  unsigned nproc = 0;
  std::string cpu_model;  ///< CPUID brand string
  /// CPUID leaf 0x16 base frequency when the CPU reports it, otherwise the
  /// time-stamp counter rate measured against the steady clock.
  double cpu_mhz = 0;
  std::string build_type;
  std::string compiler;
};

HostStamp ReadHost();

/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
