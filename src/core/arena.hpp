// Bump-pointer arena for per-phase scratch allocations.
//
// A shard's usage week builds its row columns in bursts: every flow of
// every device appends a row, and the columns die together once the week's
// reports are built. A bump allocator turns that churn into pointer
// arithmetic: allocation is an offset add, deallocation is a no-op, and
// the arena's destruction returns every chunk at once.
//
// Lifetime rules (see DESIGN.md §4f):
//   * Memory handed out by an Arena is valid until the arena is destroyed.
//   * Containers using ArenaAllocator must be destroyed before their arena
//     (declare the arena first).
//   * Arenas are single-threaded by design; each owner keeps its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace wlm::core {

class Arena {
 public:
  explicit Arena(std::size_t initial_chunk_bytes = 16 * 1024)
      : min_chunk_(initial_chunk_bytes < 64 ? 64 : initial_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (power of two). Alignment is
  /// applied to the absolute address, not the chunk-relative offset — chunk
  /// bases from new[] only guarantee alignof(max_align_t), so over-aligned
  /// requests must pad from the real pointer value.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    std::size_t offset = aligned_offset(align);
    if (current_ == nullptr || offset + bytes > capacity_) {
      grow(bytes + align);
      offset = aligned_offset(align);
    }
    used_ = offset + bytes;
    bytes_served_ += bytes;
    return current_ + offset;
  }

  /// Total bytes handed out since construction (diagnostics).
  [[nodiscard]] std::uint64_t bytes_served() const { return bytes_served_; }
  /// Bytes currently held from the system.
  [[nodiscard]] std::size_t capacity() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  /// Smallest offset >= used_ whose absolute address is `align`-aligned.
  [[nodiscard]] std::size_t aligned_offset(std::size_t align) const {
    const auto base = reinterpret_cast<std::uintptr_t>(current_);
    const std::uintptr_t aligned =
        (base + used_ + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1);
    return static_cast<std::size_t>(aligned - base);
  }

  void grow(std::size_t at_least) {
    std::size_t next = capacity_ > 0 ? capacity_ * 2 : min_chunk_;
    while (next < at_least) next *= 2;
    // Uninitialized: a bump arena never reads a byte it did not write.
    chunks_.push_back(Chunk{std::make_unique_for_overwrite<std::byte[]>(next), next});
    current_ = chunks_.back().data.get();
    capacity_ = next;
    used_ = 0;
  }

  std::size_t min_chunk_;
  std::vector<Chunk> chunks_;
  std::byte* current_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::uint64_t bytes_served_ = 0;
};

/// Minimal std-compatible allocator over an Arena. deallocate() is a no-op;
/// memory comes back when the arena is destroyed. Suitable for scratch
/// containers that die with one phase.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}  // reclaimed wholesale with the arena

  [[nodiscard]] Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

/// Convenience alias for arena-backed scratch vectors.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace wlm::core
