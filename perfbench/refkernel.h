#ifndef PERFBENCH_REFKERNEL_H_
#define PERFBENCH_REFKERNEL_H_

namespace perfbench {

/// Runs a fixed reference workload that lives in the benchmark's own files
/// and returns its host seconds. It allocates only from its own static arena,
/// never from the global heap, so its cost changes only with host speed.
double ReferenceKernelSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_REFKERNEL_H_
