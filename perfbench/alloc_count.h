#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations made through the global operator new since process
/// start. alloc_count.cc replaces every operator new/delete of the
/// benchmark binary to keep these counts. The counters are plain integers:
/// the benchmark refuses to run the simulator on more than one thread.
struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& o) const {
    return {calls - o.calls, bytes - o.bytes};
  }
  AllocCount& operator+=(const AllocCount& o) {
    calls += o.calls;
    bytes += o.bytes;
    return *this;
  }
};

AllocCount AllocSnapshot();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
