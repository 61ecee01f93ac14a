// Pins the snapshot bytes of every pair filter the engine runs: the
// 1-bit and counting scalable Bloom filters, the executed-comparison
// set in each of its four (exact, mutable) modes, and the I-PBS
// prioritizer section that carries the comparison filter CF. Each
// payload comes from fixed inputs and is compared by CRC32C against a
// constant, so a refactor of the filter stack that moves a single bit,
// reorders a field or changes a slice's sizing fails here. A change
// that alters these bytes on purpose must say so and re-record the
// constants; recovery tests only compare Snapshot -> Restore ->
// Snapshot within one build and cannot see such a change.

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/executed_set.h"
#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "model/dataset.h"
#include "persist/crc32c.h"
#include "persist/snapshot.h"
#include "util/counting_bloom_filter.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/scalable_bloom_filter.h"

namespace pier {
namespace {

template <typename T>
uint32_t SnapshotCrc(const T& component) {
  std::ostringstream out;
  component.Snapshot(out);
  return persist::Crc32c(out.str());
}

TEST(FilterBytesTest, ScalableBloomFilter) {
  ScalableBloomFilter filter;
  for (uint64_t k = 0; k < 50000; ++k) filter.Add(Mix64(k));
  EXPECT_EQ(SnapshotCrc(filter), 0x6693df1fu);
}

TEST(FilterBytesTest, ScalableCountingBloomFilter) {
  ScalableCountingBloomFilter filter;
  std::vector<uint64_t> inserted;
  for (uint64_t k = 0; k < 50000; ++k) {
    if (!filter.TestAndAdd(Mix64(k))) inserted.push_back(Mix64(k));
  }
  for (size_t i = 0; i < inserted.size(); i += 7) filter.Remove(inserted[i]);
  EXPECT_EQ(SnapshotCrc(filter), 0x9e83199au);
}

TEST(FilterBytesTest, ExecutedSetAllModes) {
  struct Case {
    bool exact;
    bool mutable_stream;
    uint32_t crc;
  };
  const Case cases[] = {{true, false, 0xb670c1f5u},
                        {true, true, 0xdfabf774u},
                        {false, false, 0x7559df58u},
                        {false, true, 0x310ff4c6u}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "exact=" << c.exact
                                    << " mutable=" << c.mutable_stream);
    ExecutedSet set(c.exact, c.mutable_stream);
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
      const auto x = static_cast<ProfileId>(rng.UniformInt(0, 1999));
      const auto y = static_cast<ProfileId>(rng.UniformInt(0, 1999));
      if (x != y) set.TestAndAdd(x, y);
    }
    set.Retract(17);
    EXPECT_EQ(SnapshotCrc(set), c.crc);
  }
}

// The pier.prioritizer section of an I-PBS pipeline: CI, PI, the
// comparison filter CF and the CmpIndex. The mutable run deletes and
// corrects profiles mid-stream, so CF's counting filter and pair
// registry both carry retractions.
uint32_t IPbsPrioritizerCrc(bool mutable_stream) {
  CensusOptions census;
  census.num_records = 3000;
  const Dataset d = GenerateCensus(census);
  PierOptions options;
  options.kind = d.kind;
  options.strategy = PierStrategy::kIPbs;
  options.mutable_stream = mutable_stream;
  PierPipeline pipeline(options);
  const std::vector<Increment> increments = SplitIntoIncrements(d, 10);
  for (size_t i = 0; i < increments.size(); ++i) {
    const Increment& inc = increments[i];
    pipeline.Ingest(std::vector<EntityProfile>(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end)));
    pipeline.EmitBatch(300);
    if (mutable_stream && i == 4) {
      pipeline.Delete({3, 40, 41, 500});
      pipeline.Update({d.profiles[7], d.profiles[90]});
      pipeline.EmitBatch(300);
    }
  }
  persist::SnapshotBuilder builder;
  pipeline.Snapshot(builder);
  std::istringstream in(builder.Bytes());
  persist::SnapshotReader reader;
  std::string error;
  EXPECT_TRUE(reader.Parse(in, &error)) << error;
  const std::string* section = reader.Section("pier.prioritizer");
  EXPECT_NE(section, nullptr);
  return section == nullptr ? 0 : persist::Crc32c(*section);
}

TEST(FilterBytesTest, IPbsPrioritizerSectionAppendOnly) {
  EXPECT_EQ(IPbsPrioritizerCrc(false), 0x24c2fa4au);
}

TEST(FilterBytesTest, IPbsPrioritizerSectionMutable) {
  EXPECT_EQ(IPbsPrioritizerCrc(true), 0xaa683368u);
}

}  // namespace
}  // namespace pier
