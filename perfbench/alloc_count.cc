// Global operator new/delete replacements that count allocation calls and
// requested bytes. Every replaceable signature is defined so no allocation
// escapes the count and every delete matches its allocator.

#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

uint64_t g_calls = 0;
uint64_t g_bytes = 0;

void* Allocate(std::size_t size) {
  ++g_calls;
  g_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  ++g_calls;
  g_bytes += size;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

AllocCount AllocSnapshot() { return {g_calls, g_bytes}; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::AllocateAligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::AllocateAligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
