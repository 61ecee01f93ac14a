// Tests for ExecutedSet, the executed-comparison set shared by every
// PierPipeline and the sharded combiner, in each of its
// representations: the exact hash set, the scalable Bloom filter, and
// (mutable streams) the counting filter plus pair registry.

#include "core/executed_set.h"

#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace pier {
namespace {

struct Mode {
  const char* name;
  bool exact;
  bool mutable_stream;
};

// Stable test names (the default printer would dump the pointer).
void PrintTo(const Mode& mode, std::ostream* os) { *os << mode.name; }

class ExecutedSetTest : public ::testing::TestWithParam<Mode> {
 protected:
  ExecutedSet MakeSet() const {
    return ExecutedSet(GetParam().exact, GetParam().mutable_stream);
  }
};

// Retract needs the pair registry, which only mutable streams keep.
class MutableExecutedSetTest : public ExecutedSetTest {};

std::vector<std::pair<ProfileId, ProfileId>> RandomPairs(uint64_t seed,
                                                         size_t count) {
  Rng rng(seed);
  std::vector<std::pair<ProfileId, ProfileId>> pairs;
  for (size_t i = 0; i < count; ++i) {
    const auto x = static_cast<ProfileId>(rng.UniformInt(0, 499));
    const auto y = static_cast<ProfileId>(rng.UniformInt(0, 499));
    if (x != y) pairs.emplace_back(x, y);
  }
  return pairs;
}

std::string SnapshotBytes(const ExecutedSet& set) {
  std::ostringstream out;
  set.Snapshot(out);
  return out.str();
}

TEST_P(ExecutedSetTest, SnapshotRestoreSnapshotIsByteIdentical) {
  ExecutedSet set = MakeSet();
  const auto pairs = RandomPairs(1, 3000);
  for (const auto& [x, y] : pairs) set.TestAndAdd(x, y);
  if (GetParam().mutable_stream) {
    for (ProfileId id = 0; id < 500; id += 7) set.Retract(id);
  }
  const std::string bytes = SnapshotBytes(set);

  ExecutedSet restored = MakeSet();
  std::istringstream in(bytes);
  ASSERT_TRUE(restored.Restore(in));
  EXPECT_EQ(SnapshotBytes(restored), bytes);
  for (const auto& [x, y] : pairs) {
    EXPECT_EQ(restored.Contains(x, y), set.Contains(x, y));
  }
}

TEST_P(ExecutedSetTest, ContainsNeverReportsAKeyTestAndAddWouldAccept) {
  ExecutedSet set = MakeSet();
  for (const auto& [x, y] : RandomPairs(2, 4000)) {
    const bool contained = set.Contains(x, y);
    const bool already = set.TestAndAdd(x, y);
    // Contains is the read-only half of TestAndAdd: a pair it reports
    // is one TestAndAdd rejects, and the exact set agrees both ways.
    if (contained) {
      EXPECT_TRUE(already);
    }
    if (GetParam().exact) {
      EXPECT_EQ(contained, already);
    }
    EXPECT_TRUE(set.Contains(x, y));
    EXPECT_TRUE(set.Contains(y, x));  // pair keys are unordered
  }
}

TEST_P(MutableExecutedSetTest, RetractWithdrawsExactlyTheRegisteredPairs) {
  ExecutedSet set = MakeSet();
  EXPECT_FALSE(set.TestAndAdd(1, 2));
  EXPECT_FALSE(set.TestAndAdd(3, 1));
  EXPECT_FALSE(set.TestAndAdd(2, 3));
  EXPECT_FALSE(set.TestAndAdd(4, 5));
  EXPECT_TRUE(set.TestAndAdd(2, 1));  // not registered a second time

  EXPECT_EQ(set.Retract(1), 2u);
  EXPECT_FALSE(set.Contains(1, 2));
  EXPECT_FALSE(set.Contains(1, 3));
  EXPECT_TRUE(set.Contains(2, 3));
  EXPECT_TRUE(set.Contains(4, 5));
  EXPECT_EQ(set.Retract(1), 0u);  // already withdrawn
  // The withdrawn pairs pass again and are registered afresh.
  EXPECT_FALSE(set.TestAndAdd(1, 2));
  EXPECT_FALSE(set.TestAndAdd(1, 3));
  EXPECT_EQ(set.Retract(1), 2u);
  EXPECT_EQ(set.Retract(2), 1u);  // (2, 3) only
  EXPECT_EQ(set.Retract(5), 1u);  // (4, 5)
  EXPECT_FALSE(set.Contains(2, 3));
  EXPECT_FALSE(set.Contains(4, 5));
}

TEST_P(ExecutedSetTest, TruncatedPayloadFailsRestore) {
  ExecutedSet set = MakeSet();
  for (const auto& [x, y] : RandomPairs(3, 200)) set.TestAndAdd(x, y);
  const std::string bytes = SnapshotBytes(set);
  ASSERT_GT(bytes.size(), 16u);
  for (const size_t keep : {size_t{0}, size_t{1}, size_t{8}, size_t{9},
                            bytes.size() / 3, bytes.size() / 2,
                            bytes.size() - 1}) {
    ExecutedSet restored = MakeSet();
    std::istringstream in(bytes.substr(0, keep));
    EXPECT_FALSE(restored.Restore(in)) << "kept " << keep << " bytes";
  }
}

std::string ModeName(const ::testing::TestParamInfo<Mode>& info) {
  return info.param.name;
}

constexpr Mode kExactMutable{"ExactMutable", true, true};
constexpr Mode kCountingMutable{"CountingMutable", false, true};

INSTANTIATE_TEST_SUITE_P(AllModes, ExecutedSetTest,
                         ::testing::Values(Mode{"Exact", true, false},
                                           Mode{"Bloom", false, false},
                                           kExactMutable, kCountingMutable),
                         ModeName);
INSTANTIATE_TEST_SUITE_P(MutableModes, MutableExecutedSetTest,
                         ::testing::Values(kExactMutable, kCountingMutable),
                         ModeName);

}  // namespace
}  // namespace pier
