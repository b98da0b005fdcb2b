// Bump-arena semantics: alignment, growth, and the std-allocator adapter
// (see DESIGN.md §4f lifetime rules — memory is valid until the arena is
// destroyed, deallocate() is a no-op).
#include "core/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace wlm::core {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(256);
  auto* a = static_cast<std::uint8_t*>(arena.allocate(10, 1));
  auto* b = static_cast<std::uint8_t*>(arena.allocate(16, 8));
  auto* c = static_cast<std::uint8_t*>(arena.allocate(1, 64));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  // Write patterns and confirm no overlap clobbers them.
  std::memset(a, 0xAA, 10);
  std::memset(b, 0xBB, 16);
  std::memset(c, 0xCC, 1);
  EXPECT_EQ(a[0], 0xAA);
  EXPECT_EQ(a[9], 0xAA);
  EXPECT_EQ(b[0], 0xBB);
  EXPECT_EQ(b[15], 0xBB);
  EXPECT_EQ(c[0], 0xCC);
  EXPECT_EQ(arena.bytes_served(), 27u);
}

TEST(Arena, GrowsBeyondInitialChunk) {
  Arena arena(64);
  // Far more than one chunk's worth; every allocation must still be usable.
  for (int i = 0; i < 100; ++i) {
    auto* p = static_cast<std::uint8_t*>(arena.allocate(40));
    std::memset(p, static_cast<int>(i & 0xFF), 40);
    EXPECT_EQ(p[39], static_cast<std::uint8_t>(i & 0xFF));
  }
  EXPECT_GE(arena.capacity(), 100u * 40u);
}

TEST(Arena, OversizeRequestGetsDedicatedChunk) {
  Arena arena(64);
  auto* p = arena.allocate(10'000);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 10'000);
  EXPECT_GE(arena.capacity(), 10'000u);
}

TEST(Arena, ArenaVectorUsesArenaMemory) {
  Arena arena(1024);
  const std::uint64_t before = arena.bytes_served();
  ArenaVector<int> v{ArenaAllocator<int>(arena)};
  v.reserve(100);
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_GT(arena.bytes_served(), before);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(v[i], i);
}

TEST(Arena, AllocatorEqualityFollowsArenaIdentity) {
  Arena a(64);
  Arena b(64);
  EXPECT_TRUE(ArenaAllocator<int>(a) == ArenaAllocator<int>(a));
  EXPECT_FALSE(ArenaAllocator<int>(a) == ArenaAllocator<int>(b));
  // Rebinding (e.g. int -> long) keeps pointing at the same arena.
  const ArenaAllocator<long> rebound{ArenaAllocator<int>(a)};
  EXPECT_EQ(rebound.arena(), &a);
}

}  // namespace
}  // namespace wlm::core
