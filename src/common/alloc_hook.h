// Global-allocation counting hook for measurement binaries.
//
// Including this header replaces the program's global operator new/delete
// with malloc/free-backed versions that count calls and bytes — the
// instrument behind the zero-allocation guarantees of the storage read
// path (DESIGN.md §6): tests/pgrid/local_store_test.cc asserts scans
// allocate nothing, bench/bench_local_scan.cc reports allocs/op.
//
// Include it from exactly ONE translation unit of a test or benchmark
// binary (the replacement operators have external linkage; a second
// inclusion in the same binary fails to link, which is the guard). Never
// include it from library code.
#ifndef UNISTORE_COMMON_ALLOC_HOOK_H_
#define UNISTORE_COMMON_ALLOC_HOOK_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace unistore {
namespace alloc_hook {

inline std::atomic<uint64_t>& Calls() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

inline std::atomic<uint64_t>& Bytes() {
  static std::atomic<uint64_t> bytes{0};
  return bytes;
}

/// Allocation calls performed while running `fn`.
template <typename Fn>
uint64_t CountCalls(Fn&& fn) {
  const uint64_t before = Calls().load(std::memory_order_relaxed);
  fn();
  return Calls().load(std::memory_order_relaxed) - before;
}

}  // namespace alloc_hook
}  // namespace unistore

// GCC pairs the replaced operator new (malloc-backed) with the library
// delete at some instantiation sites and flags a mismatch that is not
// there — new/delete below are a matched malloc/free pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  unistore::alloc_hook::Calls().fetch_add(1, std::memory_order_relaxed);
  unistore::alloc_hook::Bytes().fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too (std::stable_sort and std::inplace_merge take
// their scratch buffers through them): left to the library, they would
// allocate through its own new and free through the delete below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  unistore::alloc_hook::Calls().fetch_add(1, std::memory_order_relaxed);
  unistore::alloc_hook::Bytes().fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // UNISTORE_COMMON_ALLOC_HOOK_H_
