#include "util/mapped_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <new>

namespace dtm::detail {

namespace {

bool is_mapping(std::size_t bytes) { return bytes > kMappedArrayFloor; }

std::size_t page_round(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

void* grow_storage(void* p, std::size_t old_bytes, std::size_t used_bytes,
                   std::size_t& bytes) {
  if (!is_mapping(bytes)) {
    void* q = std::realloc(p, bytes);
    if (q == nullptr) throw std::bad_alloc();
    return q;
  }
  bytes = page_round(bytes);
  if (is_mapping(old_bytes)) {
    void* q = mremap(p, old_bytes, bytes, MREMAP_MAYMOVE);
    if (q == MAP_FAILED) throw std::bad_alloc();
    return q;
  }
  void* q = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (q == MAP_FAILED) throw std::bad_alloc();
  if (used_bytes > 0) std::memcpy(q, p, used_bytes);
  std::free(p);
  return q;
}

void free_storage(void* p, std::size_t bytes) {
  if (is_mapping(bytes)) {
    munmap(p, bytes);
  } else {
    std::free(p);
  }
}

}  // namespace dtm::detail
