// detlint-fixture: path=bench/raw_thread_neg.cc
#include <atomic>

std::atomic<uint64_t> g_heap_allocs{0};
