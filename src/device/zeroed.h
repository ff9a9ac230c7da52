// Zero-filled arrays backed by an anonymous mapping.
//
// The kernel zero-fills each page of an anonymous private mapping on first
// touch, so an array that starts all-zero costs neither an initialization
// pass nor resident memory for capacity that is never written.  The chunk
// pool with its stamps and free links, the per-chunk level bytes, the
// foresight tables and the snapshot record arena are sized for the whole
// pool but written only as far as the structure reaches, and every set-up
// builds them anew.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <memory>
#include <new>

namespace gfsl::device {

struct Unmap {
  std::size_t bytes;
  void operator()(void* p) const { ::munmap(p, bytes); }
};

template <typename T>
using ZeroedArray = std::unique_ptr<T[], Unmap>;

/// `n` elements of T, all-zero bytes until written.  T must be valid as
/// all-zero bytes: the integers, the lock-free atomics of integers and the
/// version records built of them used here are (all-zero is their
/// value-initialized state).
template <typename T>
ZeroedArray<T> map_zeroed(std::size_t n) {
  const std::size_t bytes = sizeof(T) * n;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return ZeroedArray<T>(static_cast<T*>(p), Unmap{bytes});
}

}  // namespace gfsl::device
