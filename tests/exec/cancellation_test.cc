#include "exec/cancellation.h"

#include <gtest/gtest.h>

namespace swiftspatial::exec {
namespace {

TEST(CancellationToken, DefaultTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationToken, SourcePropagatesToCopies) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = a;
  EXPECT_FALSE(a.cancelled());
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(source.cancelled());
}

}  // namespace
}  // namespace swiftspatial::exec
