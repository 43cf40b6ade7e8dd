#include "common/fifo.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace p2plab {
namespace {

std::vector<int> contents(const Fifo<int>& fifo) {
  std::vector<int> out;
  for (std::size_t i = 0; i < fifo.size(); ++i) out.push_back(fifo[i]);
  return out;
}

TEST(Fifo, NeverUsedQueueOwnsNoHeap) {
  const Fifo<int> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.capacity(), 0u);
}

TEST(Fifo, GrowsAcrossTheWrapPointInOrder) {
  Fifo<int> fifo;
  for (int i = 0; i < 4; ++i) fifo.push_back(i);
  ASSERT_EQ(fifo.capacity(), 4u);
  fifo.pop_front();
  fifo.pop_front();
  // The next two pushes wrap to the ring's start; the third finds it full
  // with the head mid-ring and must double without reordering.
  for (int i = 4; i < 9; ++i) fifo.push_back(i);
  EXPECT_EQ(fifo.capacity(), 8u);
  EXPECT_EQ(contents(fifo), (std::vector<int>{2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(fifo.front(), 2);
  EXPECT_EQ(fifo.back(), 8);
  for (int expected = 2; expected < 9; ++expected) {
    EXPECT_EQ(fifo.front(), expected);
    fifo.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, EraseInTheMiddleKeepsOrder) {
  Fifo<int> fifo;
  for (int i = 0; i < 4; ++i) fifo.push_back(i);
  fifo.pop_front();
  fifo.push_back(4);  // wrapped: the live range spans the ring's end
  fifo.erase(1);      // removes 2
  EXPECT_EQ(contents(fifo), (std::vector<int>{1, 3, 4}));
  fifo.erase(2);  // the back
  EXPECT_EQ(contents(fifo), (std::vector<int>{1, 3}));
  fifo.erase(0);  // the front
  EXPECT_EQ(contents(fifo), (std::vector<int>{3}));
  fifo.push_back(5);
  EXPECT_EQ(contents(fifo), (std::vector<int>{3, 5}));
}

TEST(Fifo, PopAndEraseReleaseWhatTheElementOwned) {
  Fifo<std::shared_ptr<int>> fifo;
  const auto a = std::make_shared<int>(1);
  const auto b = std::make_shared<int>(2);
  fifo.push_back(a);
  fifo.push_back(b);
  fifo.erase(0);
  EXPECT_EQ(a.use_count(), 1);
  fifo.pop_front();
  EXPECT_EQ(b.use_count(), 1);
}

TEST(Fifo, ClearReleasesTheRing) {
  Fifo<int> fifo;
  for (int i = 0; i < 10; ++i) fifo.push_back(i);
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.capacity(), 0u);
  fifo.push_back(7);
  EXPECT_EQ(contents(fifo), (std::vector<int>{7}));
}

}  // namespace
}  // namespace p2plab
