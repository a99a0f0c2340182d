#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/machine.h"
#include "storage/agg_hash_table.h"
#include "storage/bitpacked_vector.h"
#include "storage/datagen.h"
#include "storage/dict_column.h"
#include "storage/dictionary.h"
#include "storage/inverted_index.h"
#include "storage/raw_column.h"
#include "storage/sim_bitvector.h"
#include "storage/table.h"

namespace catdb::storage {
namespace {

sim::MachineConfig TinyMachine() {
  sim::MachineConfig cfg;
  cfg.hierarchy.num_cores = 2;
  cfg.hierarchy.l1 = simcache::CacheGeometry{4, 2};
  cfg.hierarchy.l2 = simcache::CacheGeometry{8, 2};
  cfg.hierarchy.llc = simcache::CacheGeometry{32, 4};
  return cfg;
}

TEST(DictionaryTest, SortsAndDeduplicates) {
  Dictionary dict = Dictionary::FromValues({5, 3, 5, 1, 3});
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.Decode(0), 1);
  EXPECT_EQ(dict.Decode(1), 3);
  EXPECT_EQ(dict.Decode(2), 5);
}

TEST(DictionaryTest, OrderPreservingCodes) {
  // The core property the column scan relies on: value order == code order.
  Rng rng(11);
  std::vector<int32_t> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(static_cast<int32_t>(rng.Uniform(10000)));
  }
  Dictionary dict = Dictionary::FromValues(values);
  for (uint32_t c = 1; c < dict.size(); ++c) {
    EXPECT_LT(dict.Decode(c - 1), dict.Decode(c));
  }
}

TEST(DictionaryTest, CodeOfAndLowerBound) {
  Dictionary dict = Dictionary::FromValues({10, 20, 30});
  EXPECT_EQ(dict.CodeOf(20), 1);
  EXPECT_EQ(dict.CodeOf(15), -1);
  EXPECT_EQ(dict.LowerBoundCode(15), 1u);
  EXPECT_EQ(dict.LowerBoundCode(30), 2u);
  EXPECT_EQ(dict.LowerBoundCode(31), 3u);
}

TEST(DictionaryTest, SimDecodeChargesAccess) {
  sim::Machine m(TinyMachine());
  Dictionary dict = Dictionary::FromValues({1, 2, 3});
  dict.AttachSim(&m);
  sim::ExecContext ctx(&m, 0);
  EXPECT_EQ(dict.DecodeSim(ctx, 2), 3);
  EXPECT_GT(m.clock(0), 0u);
}

// Property: bit-packed round trip at every width.
class BitPackWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitPackWidthTest, RoundTripsRandomCodes) {
  const uint32_t width = GetParam();
  const uint64_t mask = width >= 64 ? ~0ull : (1ull << width) - 1;
  Rng rng(width);
  BitPackedVector v(257, width);
  std::vector<uint32_t> expected(257);
  for (uint64_t i = 0; i < v.size(); ++i) {
    expected[i] = static_cast<uint32_t>(rng.Next() & mask);
    v.Set(i, expected[i]);
  }
  for (uint64_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.Get(i), expected[i]) << "width=" << width << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPackWidthTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 12, 13, 16, 17,
                                           20, 24, 31, 32));

TEST(BitPackedVectorTest, OverwriteDoesNotCorruptNeighbours) {
  BitPackedVector v(10, 20);
  for (uint64_t i = 0; i < 10; ++i) v.Set(i, 0xFFFFF);
  v.Set(5, 0);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(v.Get(i), i == 5 ? 0u : 0xFFFFFu);
  }
}

TEST(BitPackedVectorTest, SizeBytesTracksWidth) {
  BitPackedVector v(1000, 20);
  EXPECT_GE(v.SizeBytes() * 8, 1000ull * 20);
  EXPECT_LE(v.SizeBytes(), 1000ull * 20 / 8 + 24);
}

TEST(DictColumnTest, EncodeDecodeRoundTrip) {
  Rng rng(13);
  std::vector<int32_t> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<int32_t>(rng.Uniform(100)) - 50);
  }
  DictColumn col = DictColumn::Encode(values);
  ASSERT_EQ(col.size(), values.size());
  for (uint64_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col.GetValue(i), values[i]);
  }
}

TEST(DictColumnTest, FromDictAndCodes) {
  Dictionary dict = Dictionary::FromSortedDistinct({10, 20, 30, 40});
  DictColumn col = DictColumn::FromDictAndCodes(dict, {3, 0, 2});
  EXPECT_EQ(col.GetValue(0), 40);
  EXPECT_EQ(col.GetValue(1), 10);
  EXPECT_EQ(col.GetValue(2), 30);
}

TEST(DictColumnTest, SimPointAccessChargesTwoAccesses) {
  sim::Machine m(TinyMachine());
  DictColumn col = DictColumn::Encode({7, 8, 9, 7});
  col.AttachSim(&m);
  sim::ExecContext ctx(&m, 0);
  EXPECT_EQ(col.dict().DecodeSim(ctx, col.codes().GetSim(ctx, 2)), 9);
  // Two dependent misses: code vector + dictionary.
  EXPECT_EQ(m.hierarchy().stats().llc.misses, 2u);
}

TEST(TableTest, AddAndLookupColumns) {
  Table t("T");
  ASSERT_TRUE(t.AddColumn("a", DictColumn::Encode({1, 2, 3})).ok());
  ASSERT_TRUE(t.AddColumn("b", DictColumn::Encode({4, 5, 6})).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_NE(t.GetColumn("a"), nullptr);
  EXPECT_EQ(t.GetColumn("c"), nullptr);
  EXPECT_EQ(t.column_names()[1], "b");
}

TEST(TableTest, RejectsDuplicateAndMismatchedColumns) {
  Table t("T");
  ASSERT_TRUE(t.AddColumn("a", DictColumn::Encode({1, 2, 3})).ok());
  EXPECT_EQ(t.AddColumn("a", DictColumn::Encode({1, 2, 3})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t.AddColumn("b", DictColumn::Encode({1})).code(),
            StatusCode::kInvalidArgument);
}

TEST(SimBitVectorTest, SetTestAndClear) {
  SimBitVector bv(1000);
  EXPECT_FALSE(bv.Test(123));
  bv.Set(123);
  EXPECT_TRUE(bv.Test(123));
  EXPECT_FALSE(bv.Test(124));
  bv.ClearAll();
  EXPECT_FALSE(bv.Test(123));
}

TEST(SimBitVectorTest, SizeBytesIsCeilBits) {
  EXPECT_EQ(SimBitVector(1).SizeBytes(), 8u);
  EXPECT_EQ(SimBitVector(64).SizeBytes(), 8u);
  EXPECT_EQ(SimBitVector(65).SizeBytes(), 16u);
}

// Property: AggHashTable matches a reference map over random workloads.
class AggHashTablePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AggHashTablePropertyTest, MatchesReferenceMaxMap) {
  const uint32_t key_space = GetParam();
  AggHashTable table = AggHashTable::ForExpectedKeys(key_space);
  std::unordered_map<uint32_t, int32_t> reference;
  Rng rng(key_space);
  for (int i = 0; i < 20000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(key_space));
    const int32_t value = static_cast<int32_t>(rng.Uniform(1 << 30)) - (1 << 29);
    table.UpsertMax(key, value);
    auto [it, inserted] = reference.try_emplace(key, value);
    if (!inserted && value > it->second) it->second = value;
  }
  EXPECT_EQ(table.num_entries(), reference.size());
  for (const auto& [key, value] : reference) {
    int32_t got = 0;
    ASSERT_TRUE(table.Lookup(key, &got)) << key;
    EXPECT_EQ(got, value) << key;
  }
  int32_t dummy;
  EXPECT_FALSE(table.Lookup(key_space + 1, &dummy));
}

INSTANTIATE_TEST_SUITE_P(KeySpaces, AggHashTablePropertyTest,
                         ::testing::Values(1, 2, 17, 100, 1000, 50000));

TEST(AggHashTableTest, ClearKeepsCapacity) {
  AggHashTable t = AggHashTable::ForExpectedKeys(100);
  const uint64_t cap = t.capacity_slots();
  t.UpsertMax(1, 5);
  t.Clear();
  EXPECT_EQ(t.num_entries(), 0u);
  EXPECT_EQ(t.capacity_slots(), cap);
  int32_t v;
  EXPECT_FALSE(t.Lookup(1, &v));
}

TEST(AggHashTableTest, SlotIterationSeesAllEntries) {
  AggHashTable t = AggHashTable::ForExpectedKeys(64);
  for (uint32_t k = 0; k < 64; ++k) t.UpsertMax(k, static_cast<int32_t>(k));
  std::map<uint32_t, int32_t> seen;
  for (uint64_t s = 0; s < t.capacity_slots(); ++s) {
    if (t.SlotOccupied(s)) seen[t.SlotKey(s)] = t.SlotValue(s);
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(seen[63], 63);
}

TEST(AggHashTableTest, SimUpsertMatchesHostSemantics) {
  sim::Machine m(TinyMachine());
  AggHashTable t = AggHashTable::ForExpectedKeys(16);
  t.AttachSim(&m);
  sim::ExecContext ctx(&m, 0);
  t.UpsertMaxSim(ctx, 3, 10);
  t.UpsertMaxSim(ctx, 3, 5);
  t.UpsertMaxSim(ctx, 3, 20);
  int32_t v;
  ASSERT_TRUE(t.Lookup(3, &v));
  EXPECT_EQ(v, 20);
  EXPECT_GT(m.clock(0), 0u);
}

TEST(InvertedIndexTest, PostingsAreExactAndComplete) {
  DictColumn col = DictColumn::Encode({5, 7, 5, 9, 7, 5});
  InvertedIndex index = InvertedIndex::Build(col);
  ASSERT_EQ(index.num_codes(), 3u);
  // code 0 == value 5 at rows {0, 2, 5}.
  auto [b, e] = index.Lookup(0);
  std::vector<uint32_t> rows(index.row_data().begin() + b,
                             index.row_data().begin() + e);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 2, 5}));
  // Every row appears exactly once across all postings.
  EXPECT_EQ(index.row_data().size(), col.size());
}

TEST(InvertedIndexTest, SimLookupChargesPostingLines) {
  sim::Machine m(TinyMachine());
  std::vector<int32_t> values(1000, 1);  // one giant posting list
  DictColumn col = DictColumn::Encode(values);
  col.AttachSim(&m);
  InvertedIndex index = InvertedIndex::Build(col);
  index.AttachSim(&m);
  sim::ExecContext ctx(&m, 0);
  auto [b, e] = index.LookupSim(ctx, 0);
  EXPECT_EQ(e - b, 1000u);
  // 1000 row ids * 4 B = 63 lines, plus the offsets read.
  EXPECT_GE(m.hierarchy().stats().llc.misses, 60u);
}

TEST(DatagenTest, UniformWithExactDistinctHitsTarget) {
  auto values = UniformWithExactDistinct(5000, 700, 42);
  std::vector<int32_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(sorted.size(), 700u);
  EXPECT_EQ(sorted.front(), 1);
  EXPECT_EQ(sorted.back(), 700);
}

TEST(DatagenTest, DomainColumnDictionaryIsExactDomain) {
  DictColumn col = MakeUniformDomainColumn(100, 5000, 42);
  EXPECT_EQ(col.dict().size(), 5000u);  // domain larger than row count
  for (uint64_t i = 0; i < col.size(); ++i) {
    EXPECT_GE(col.GetValue(i), 1);
    EXPECT_LE(col.GetValue(i), 5000);
  }
}

TEST(DatagenTest, PrimaryKeysAreDenseAndOrdered) {
  RawColumn pk = MakePrimaryKeyColumn(100);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(pk.Get(i), static_cast<int32_t>(i + 1));
  }
}

TEST(DatagenTest, ForeignKeysWithinDomain) {
  RawColumn fk = MakeForeignKeyColumn(10000, 37, 42);
  for (uint64_t i = 0; i < fk.size(); ++i) {
    EXPECT_GE(fk.Get(i), 1);
    EXPECT_LE(fk.Get(i), 37);
  }
}

TEST(DatagenTest, DeterministicForSeed) {
  auto a = UniformWithExactDistinct(1000, 100, 7);
  auto b = UniformWithExactDistinct(1000, 100, 7);
  EXPECT_EQ(a, b);
  auto c = UniformWithExactDistinct(1000, 100, 8);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace catdb::storage
