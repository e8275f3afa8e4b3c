// common/fnv: 64-bit FNV-1a against the published test vectors, and the
// u64 mix as the little-endian byte mix. The fingerprints built on it are
// pinned by FingerprintKnownAnswerTest.

#include "common/fnv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace coane {
namespace {

uint64_t FnvOf(const char* s) {
  return FnvMixBytes(kFnvBasis, s, std::strlen(s));
}

TEST(FnvTest, MatchesPublishedVectors) {
  EXPECT_EQ(FnvOf(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(FnvOf("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(FnvOf("foobar"), 0x85944171f73967e8ULL);
}

TEST(FnvTest, U64MixIsTheLittleEndianByteMix) {
  const uint64_t value = 0x0102030405060708ULL;
  const uint8_t le[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(FnvMixU64(kFnvBasis, value), FnvMixBytes(kFnvBasis, le, 8));
  // Mixing extends: chaining two mixes equals mixing the bytes in order.
  const uint8_t both[16] = {8, 7, 6, 5, 4, 3, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(FnvMixU64(FnvMixU64(kFnvBasis, value), 1),
            FnvMixBytes(kFnvBasis, both, 16));
}

}  // namespace
}  // namespace coane
