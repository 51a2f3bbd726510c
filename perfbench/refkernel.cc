#include "refkernel.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <new>
#include <queue>
#include <unordered_map>
#include <vector>

#include "spans.h"

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A heap-allocated callable, as a type-erased event callback is.
struct Closure {
  uint64_t payload[3];
  void (*fn)(const Closure&, uint64_t* sink);
};

struct Event {
  uint64_t when;
  uint64_t seq;
  Closure* fn;
  bool operator>(const Event& o) const {
    return when != o.when ? when > o.when : seq > o.seq;
  }
};

/// The kernel's only memory. It lives in static storage, reserved when the
/// process loads, so the global heap that the library shares (its free
/// lists, its layout, what the simulated cluster holds between slices)
/// cannot reach the kernel's allocation pattern or cost. Every call starts
/// the arena from its first byte.
constexpr std::size_t kArenaBytes = std::size_t{32} << 20;
alignas(std::max_align_t) std::byte g_arena[kArenaBytes];

volatile uint64_t g_sink = 0;  // keeps the kernel's work observable

}  // namespace

double ReferenceKernelSeconds() {
  // Event-queue pops, closure allocation and hash-map churn over a working
  // set of a few MB: the same kind of work as the simulated cluster, on
  // fixed inputs and in memory that no repository code can touch.
  constexpr int kEvents = 60'000;
  constexpr uint64_t kKeys = 1 << 18;
  const int64_t t0 = NowNs();
  {
    // Running out of the arena throws rather than fall back to the heap.
    std::pmr::monotonic_buffer_resource arena(
        g_arena, kArenaBytes, std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    auto make_closure = [&pool](uint64_t a, uint64_t b, uint64_t c) {
      return new (pool.allocate(sizeof(Closure), alignof(Closure)))
          Closure{{a, b, c}, [](const Closure& self, uint64_t* sink) {
                    *sink += self.payload[0] ^ self.payload[2];
                  }};
    };
    std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> queue(
        std::greater<>{}, std::pmr::vector<Event>(&pool));
    std::pmr::unordered_map<uint64_t, std::pmr::vector<uint64_t>> table(&pool);
    uint64_t state = 42, seq = 0, now = 0, sink = 0;
    for (int i = 0; i < 2000; ++i) {
      state = Mix(state);
      queue.push(Event{state % 1000, seq++, make_closure(0, 0, 0)});
    }
    for (int i = 0; i < kEvents; ++i) {
      const Event e = queue.top();
      queue.pop();
      now = e.when;
      e.fn->fn(*e.fn, &sink);
      pool.deallocate(e.fn, sizeof(Closure), alignof(Closure));
      state = Mix(state);
      const uint64_t key = state % kKeys;
      std::pmr::vector<uint64_t>& row = table[key];
      if (row.size() > 4) {
        sink += row.front();
        table.erase(key);
      } else {
        row.push_back(state);
      }
      queue.push(Event{now + 1 + (state >> 40) % 1000, seq++,
                       make_closure(state, now, sink)});
    }
    while (!queue.empty()) {
      pool.deallocate(queue.top().fn, sizeof(Closure), alignof(Closure));
      queue.pop();
    }
    g_sink = sink;
  }
  return (NowNs() - t0) * 1e-9;
}

}  // namespace perfbench
