#include "mmwave/antenna.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mmwave::net {
namespace {

TEST(FlatTop, MainlobeAndSidelobe) {
  FlatTopPattern p(0.6, 0.05);
  EXPECT_DOUBLE_EQ(p.gain(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.gain(0.29), 1.0);
  EXPECT_DOUBLE_EQ(p.gain(0.31), 0.05);
  EXPECT_DOUBLE_EQ(p.gain(M_PI), 0.05);
}

TEST(FlatTop, BoundaryInclusive) {
  FlatTopPattern p(0.6, 0.1);
  EXPECT_DOUBLE_EQ(p.gain(0.3), 1.0);
}

TEST(FlatTop, SymmetricInTheta) {
  FlatTopPattern p(0.8, 0.02);
  EXPECT_DOUBLE_EQ(p.gain(-0.2), p.gain(0.2));
  EXPECT_DOUBLE_EQ(p.gain(-1.0), p.gain(1.0));
}

}  // namespace
}  // namespace mmwave::net
