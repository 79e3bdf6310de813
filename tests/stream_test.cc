// Tests for the update-stream substrate: Update, ExactSetStore, stream I/O.

#include <sstream>

#include <gtest/gtest.h>

#include "stream/exact_set_store.h"
#include "stream/stream_io.h"
#include "stream/update.h"

namespace setsketch {
namespace {

// ---------------------------------------------------------------------------
// Update

TEST(UpdateTest, ConstructorsSetSigns) {
  const Update ins = Insert(2, 40, 3);
  EXPECT_EQ(ins.stream, 2u);
  EXPECT_EQ(ins.element, 40u);
  EXPECT_EQ(ins.delta, 3);
  const Update del = Delete(1, 7);
  EXPECT_EQ(del.delta, -1);
}

TEST(UpdateTest, ToStringFormatsSign) {
  EXPECT_EQ(ToString(Insert(2, 17, 3)), "<2, 17, +3>");
  EXPECT_EQ(ToString(Delete(0, 5, 2)), "<0, 5, -2>");
}

TEST(UpdateTest, ShuffleIsDeterministicAndPermutes) {
  std::vector<Update> a, b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(Insert(0, static_cast<uint64_t>(i)));
    b.push_back(Insert(0, static_cast<uint64_t>(i)));
  }
  ShuffleUpdates(&a, 5);
  ShuffleUpdates(&b, 5);
  EXPECT_EQ(a, b);  // Same seed, same order.

  std::vector<Update> c = a;
  ShuffleUpdates(&c, 6);
  EXPECT_NE(a, c);  // Different seed, different order (overwhelmingly).

  // Still a permutation.
  std::vector<bool> seen(100, false);
  for (const Update& u : c) seen[static_cast<size_t>(u.element)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// ---------------------------------------------------------------------------
// ExactSetStore

TEST(ExactSetStoreTest, InsertAndCount) {
  ExactSetStore store(2);
  EXPECT_TRUE(store.Apply(Insert(0, 10)));
  EXPECT_TRUE(store.Apply(Insert(0, 10)));
  EXPECT_TRUE(store.Apply(Insert(0, 20)));
  EXPECT_TRUE(store.Apply(Insert(1, 10)));
  EXPECT_EQ(store.DistinctCount(0), 2);
  EXPECT_EQ(store.DistinctCount(1), 1);
  EXPECT_EQ(store.TotalCount(0), 3);
  EXPECT_EQ(store.NetFrequency(0, 10), 2);
}

TEST(ExactSetStoreTest, DeletionRemovesAtZero) {
  ExactSetStore store(1);
  store.Apply(Insert(0, 5, 2));
  EXPECT_TRUE(store.Apply(Delete(0, 5)));
  EXPECT_TRUE(store.Contains(0, 5));
  EXPECT_TRUE(store.Apply(Delete(0, 5)));
  EXPECT_FALSE(store.Contains(0, 5));
  EXPECT_EQ(store.DistinctCount(0), 0);
}

TEST(ExactSetStoreTest, IllegalDeletionRejected) {
  ExactSetStore store(1);
  store.Apply(Insert(0, 5));
  EXPECT_FALSE(store.Apply(Delete(0, 5, 2)));  // Would go to -1.
  EXPECT_EQ(store.NetFrequency(0, 5), 1);      // Unchanged.
  EXPECT_FALSE(store.Apply(Delete(0, 99)));    // Never inserted.
}

TEST(ExactSetStoreTest, TracksNetFrequencies) {
  ExactSetStore store(1);
  EXPECT_TRUE(store.Apply(Insert(0, 1, 2)));
  EXPECT_TRUE(store.Apply(Insert(0, 2)));
  EXPECT_EQ(store.DistinctCount(0), 2);
  EXPECT_TRUE(store.Apply(Delete(0, 1)));
  EXPECT_EQ(store.DistinctCount(0), 2);  // Net frequency 1: still present.
  EXPECT_TRUE(store.Apply(Delete(0, 1)));
  EXPECT_EQ(store.DistinctCount(0), 1);
  EXPECT_EQ(store.NetFrequency(0, 1), 0);
  EXPECT_FALSE(store.Apply(Delete(0, 1)));  // Would go negative.
}

TEST(ExactSetStoreTest, UnknownStreamRejected) {
  ExactSetStore store(1);
  EXPECT_FALSE(store.Apply(Insert(3, 5)));
}

TEST(ExactSetStoreTest, ApplyAllCountsApplied) {
  ExactSetStore store(1);
  const std::vector<Update> updates = {Insert(0, 1), Delete(0, 2),
                                       Insert(0, 3)};
  EXPECT_EQ(store.ApplyAll(updates), 2u);  // Delete(2) is illegal.
}

TEST(ExactSetStoreTest, AddStreamGrowsStore) {
  ExactSetStore store(1);
  const StreamId id = store.AddStream();
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(store.num_streams(), 2);
  EXPECT_TRUE(store.Apply(Insert(id, 42)));
  EXPECT_TRUE(store.Contains(id, 42));
}

TEST(ExactSetStoreTest, ForEachDistinctVisitsPositiveOnly) {
  ExactSetStore store(1);
  store.Apply(Insert(0, 1));
  store.Apply(Insert(0, 2, 3));
  store.Apply(Insert(0, 3));
  store.Apply(Delete(0, 3));
  int visits = 0;
  int64_t total = 0;
  store.ForEachDistinct(0, [&](uint64_t e, int64_t freq) {
    ++visits;
    total += freq;
    EXPECT_TRUE(e == 1 || e == 2);
  });
  EXPECT_EQ(visits, 2);
  EXPECT_EQ(total, 4);
}

TEST(ExactSetStoreTest, DistinctElementsMatchesCount) {
  ExactSetStore store(1);
  for (uint64_t e = 0; e < 50; ++e) store.Apply(Insert(0, e));
  const std::vector<uint64_t> elements = store.DistinctElements(0);
  EXPECT_EQ(elements.size(), 50u);
}

// ---------------------------------------------------------------------------
// Stream I/O

TEST(StreamIoTest, RoundTrip) {
  const std::vector<Update> updates = {Insert(0, 10, 2), Delete(1, 20),
                                       Insert(2, 1ULL << 40)};
  std::ostringstream out;
  WriteUpdates(out, updates);
  std::istringstream in(out.str());
  const ParsedUpdates parsed = ReadUpdates(in);
  EXPECT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.updates, updates);
}

TEST(StreamIoTest, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n0 1 1\n   \n# more\n1 2 -1\n");
  const ParsedUpdates parsed = ReadUpdates(in);
  EXPECT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.updates.size(), 2u);
  EXPECT_EQ(parsed.updates[0], Insert(0, 1));
  EXPECT_EQ(parsed.updates[1], Delete(1, 2));
}

TEST(StreamIoTest, ReportsMalformedLinesWithNumbers) {
  std::istringstream in("0 1 1\nnot an update\n0 2 xyz\n0 3 1\n");
  const ParsedUpdates parsed = ReadUpdates(in);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.updates.size(), 2u);
  ASSERT_EQ(parsed.errors.size(), 2u);
  EXPECT_NE(parsed.errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(parsed.errors[1].find("line 3"), std::string::npos);
}

TEST(StreamIoTest, ParseUpdateLineRejectsTrailingJunk) {
  Update u;
  EXPECT_TRUE(ParseUpdateLine("1 2 3", &u));
  EXPECT_EQ(u, Insert(1, 2, 3));
  EXPECT_FALSE(ParseUpdateLine("1 2 3 4", &u));
  EXPECT_FALSE(ParseUpdateLine("1 2", &u));
  EXPECT_FALSE(ParseUpdateLine("", &u));
  EXPECT_FALSE(ParseUpdateLine("-1 2 3", &u));  // Negative stream id.
}

TEST(StreamIoTest, ParsesNegativeDeltasAndWhitespace) {
  Update u;
  EXPECT_TRUE(ParseUpdateLine("  7   99   -12  ", &u));
  EXPECT_EQ(u, Delete(7, 99, 12));
}

}  // namespace
}  // namespace setsketch
