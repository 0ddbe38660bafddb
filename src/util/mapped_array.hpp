// MappedArray: an append-only array of trivially copyable elements whose
// large storage is a private anonymous memory mapping of its own.
//
// A std::vector that grows by doubling leaves its old blocks in the malloc
// heap. Once glibc frees one mmapped block it raises its dynamic mmap
// threshold, so every later large vector grows inside the brk heap, and a
// long-lived array that keeps doubling there (a stream transcript) leaves
// holes the heap cannot return. A MappedArray keeps storage of up to
// kMappedArrayFloor bytes (glibc's default mmap threshold, held fixed) in
// one heap block, so tiny arrays cost no system call and no mapping.
// Larger storage is a mapping that grows in place with
// mremap(MREMAP_MAYMOVE): the kernel moves page tables, so growth copies
// no element and never holds old and new storage at once, and munmap hands
// the pages straight back. The mapping calls are Linux-only.
//
// Under AddressSanitizer the unused tail [size, capacity) is poisoned, so
// a read past the end is caught in a mapping (which has no redzones) as in
// a heap block; operator[] checks its index with DTM_ASSERT in every build.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>

#include "util/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DTM_MAPPED_ARRAY_POISONS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DTM_MAPPED_ARRAY_POISONS 1
#endif
#endif
#ifdef DTM_MAPPED_ARRAY_POISONS
#include <sanitizer/asan_interface.h>
#endif

namespace dtm {

/// Storage above this many bytes is a memory mapping; at or below it, one
/// heap block.
inline constexpr std::size_t kMappedArrayFloor = 128 * 1024;

namespace detail {

/// Moves storage `p` of `old_bytes` (its first `used_bytes` live) to a
/// block of at least `bytes` > old_bytes and returns it; `bytes` is raised
/// to the block's real size (a mapping is page-rounded). Throws
/// std::bad_alloc when the system refuses.
void* grow_storage(void* p, std::size_t old_bytes, std::size_t used_bytes,
                   std::size_t& bytes);
/// Releases storage of `bytes` that grow_storage returned.
void free_storage(void* p, std::size_t bytes);

}  // namespace detail

template <class T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  MappedArray() = default;
  /// A deep copy, sized to `other`'s elements.
  MappedArray(const MappedArray& other) { append(other); }
  MappedArray(MappedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  MappedArray& operator=(MappedArray other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  ~MappedArray() { release(); }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  /// True when the storage is a memory mapping rather than a heap block.
  bool mapped() const { return capacity_ * sizeof(T) > kMappedArrayFloor; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](std::size_t i) {
    DTM_ASSERT(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    DTM_ASSERT(i < size_);
    return data_[i];
  }

  void reserve(std::size_t n) {
    if (n > capacity_) reallocate(n);
  }
  void push_back(const T& value) {
    if (size_ == capacity_) reallocate(std::max(2 * capacity_, kMinCapacity));
    set_size(size_ + 1);
    data_[size_ - 1] = value;
  }
  /// Appends `values`, which must not alias this array.
  void append(std::span<const T> values) {
    const std::size_t n = size_ + values.size();
    if (n > capacity_) reallocate(std::max({n, 2 * capacity_, kMinCapacity}));
    const std::size_t at = size_;
    set_size(n);
    std::copy(values.begin(), values.end(), data_ + at);
  }
  /// Cuts the array to its first `n` <= size() elements; the storage stays.
  void truncate(std::size_t n) {
    DTM_ASSERT(n <= size_);
    set_size(n);
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  void reallocate(std::size_t n) {
    DTM_REQUIRE(n <= static_cast<std::size_t>(-1) / sizeof(T),
                "MappedArray of " << n << " elements overflows");
    std::size_t bytes = n * sizeof(T);
    poison_tail(false);
    data_ = static_cast<T*>(detail::grow_storage(
        data_, capacity_ * sizeof(T), size_ * sizeof(T), bytes));
    capacity_ = bytes / sizeof(T);
    poison_tail(true);
  }
  void release() {
    if (data_ == nullptr) return;
    poison_tail(false);
    detail::free_storage(data_, capacity_ * sizeof(T));
  }
  void set_size(std::size_t n) {
#ifdef DTM_MAPPED_ARRAY_POISONS
    if (n > size_) {
      ASAN_UNPOISON_MEMORY_REGION(data_ + size_, (n - size_) * sizeof(T));
    } else {
      ASAN_POISON_MEMORY_REGION(data_ + n, (size_ - n) * sizeof(T));
    }
#endif
    size_ = n;
  }
  /// Poisons [size, capacity), or unpoisons it before the storage moves or
  /// is released (a stale poisoned range would trip its next owner).
  void poison_tail(bool poison) {
#ifdef DTM_MAPPED_ARRAY_POISONS
    if (poison) {
      ASAN_POISON_MEMORY_REGION(data_ + size_, (capacity_ - size_) * sizeof(T));
    } else {
      ASAN_UNPOISON_MEMORY_REGION(data_ + size_,
                                  (capacity_ - size_) * sizeof(T));
    }
#else
    (void)poison;
#endif
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace dtm
