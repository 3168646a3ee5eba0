#include "heap.h"

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace gelc::e2e {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void* Track(void* p) {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return p;
  const auto size = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  }
  std::free(p);
}

void* Allocate(size_t size, size_t align, bool nothrow) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr && !nothrow) throw std::bad_alloc();
  return Track(p);
}

constexpr size_t kPlain = alignof(std::max_align_t);

}  // namespace

void StartHeapCount() {
  g_live.store(0);
  g_peak.store(0);
  g_counting.store(true);
}

size_t StopHeapCount() {
  g_counting.store(false);
  return static_cast<size_t>(g_peak.load());
}

}  // namespace gelc::e2e

using gelc::e2e::Allocate;
using gelc::e2e::Release;
using gelc::e2e::kPlain;

void* operator new(size_t n) { return Allocate(n, kPlain, false); }
void* operator new[](size_t n) { return Allocate(n, kPlain, false); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, kPlain, true);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, kPlain, true);
}
void* operator new(size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<size_t>(a), false);
}
void* operator new[](size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<size_t>(a), false);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<size_t>(a), true);
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<size_t>(a), true);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}
