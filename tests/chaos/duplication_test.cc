// Chaos scenario: every link duplicates messages (DESIGN.md §10). Range
// scans and bulk inserts fan out and collect many correlated replies under
// one request id; the initiator closes them by branch id, so a duplicated
// request or reply lands on a branch that already closed and is dropped.
// The contract checked here: no acknowledged-but-wrong result. A scan
// flagged complete returns exactly the stored rows, each once; a bulk
// insert acks only after every entry sits at its owner.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/fault_plane.h"
#include "pgrid/overlay.h"

namespace unistore {
namespace pgrid {
namespace {

constexpr size_t kPeers = 32;
constexpr size_t kRows = 300;
constexpr size_t kBatch = 256;
constexpr double kDuplication = 0.2;

// OpHash is order-preserving, so spreading rows across the key space
// needs a varying leading character.
std::vector<Entry> MakeRows(const std::string& tag, size_t count) {
  std::vector<Entry> out;
  for (size_t i = 0; i < count; ++i) {
    std::string value(1, static_cast<char>(32 + (i * 37) % 224));
    value += tag + "-" + std::to_string(i);
    Entry e;
    e.key = OpHash(value);
    e.id = tag + "-" + std::to_string(i);
    e.payload = value;
    out.push_back(std::move(e));
  }
  return out;
}

// A balanced 32-peer trie with duplication on every link, forever.
OverlayOptions DuplicatingOverlay(uint64_t seed) {
  OverlayOptions options;
  options.seed = seed;
  options.fault_schedule.Duplicate(0, net::kFaultForever, net::kAnyPeer,
                                   net::kAnyPeer, kDuplication);
  return options;
}

const KeyRange kFullRange{Key().PadTo(kKeyBits, false),
                          Key().PadTo(kKeyBits, true)};

enum class Strategy { kSeq, kShower };

// Runs one full-range scan per seed. Every result flagged complete must
// hold each stored row exactly once; returns how many were complete.
int CheckCompleteScansAreExact(Strategy strategy) {
  int complete = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Overlay overlay(DuplicatingOverlay(seed));
    overlay.AddPeers(kPeers);
    overlay.BuildBalanced();
    std::set<std::string> stored;
    for (const Entry& e : MakeRows("row", kRows)) {
      overlay.InsertDirect(e);
      stored.insert(e.id);
    }
    const net::PeerId from = static_cast<net::PeerId>(seed % kPeers);
    Result<RangeResult> result =
        strategy == Strategy::kSeq ? overlay.RangeSeqSync(from, kFullRange)
                                   : overlay.RangeShowerSync(from, kFullRange);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    if (!result.ok() || !result->complete) continue;
    ++complete;
    std::set<std::string> ids;
    for (const Entry& e : result->entries) ids.insert(e.id);
    EXPECT_EQ(result->entries.size(), ids.size())
        << "seed " << seed << ": " << result->entries.size()
        << " rows returned for " << ids.size() << " distinct";
    EXPECT_TRUE(ids == stored) << "seed " << seed << ": " << ids.size()
                               << " distinct rows returned, " << kRows
                               << " stored";
  }
  return complete;
}

TEST(DuplicationTest, CompleteSeqScanReturnsEachRowOnce) {
  // Duplication loses nothing, so every walk must still complete.
  EXPECT_EQ(CheckCompleteScansAreExact(Strategy::kSeq), 10);
}

TEST(DuplicationTest, CompleteShowerScanReturnsEachRowOnce) {
  EXPECT_EQ(CheckCompleteScansAreExact(Strategy::kShower), 10);
}

// The ack of a bulk insert is a promise that the batch is stored: when
// the OK callback fires, every entry must already sit at its owner.
TEST(DuplicationTest, BulkInsertAcksOnlyStoredBatches) {
  int acked = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Overlay overlay(DuplicatingOverlay(seed));
    overlay.AddPeers(kPeers);
    overlay.BuildBalanced();
    const std::vector<Entry> batch = MakeRows("bulk", kBatch);

    std::optional<Status> done;
    size_t stored_at_ack = 0;
    overlay.peer(0)->InsertBatch(batch, [&](Status status) {
      if (status.ok()) {
        for (const Entry& e : batch) {
          bool found = false;
          for (net::PeerId owner : overlay.ResponsiblePeers(e.key)) {
            overlay.peer(owner)->store().ScanKey(
                e.key, [&](const EntryView& v) {
                  found = found || v.id == e.id;
                  return !found;
                });
          }
          if (found) ++stored_at_ack;
        }
      }
      done = std::move(status);
    });
    overlay.simulation().RunUntilIdle();

    ASSERT_TRUE(done.has_value()) << "seed " << seed;
    if (!done->ok()) continue;
    ++acked;
    EXPECT_EQ(stored_at_ack, kBatch)
        << "seed " << seed << ": acked with only " << stored_at_ack << " of "
        << kBatch << " entries stored";
  }
  EXPECT_EQ(acked, 20);
}

// A duplicated seq walk step runs once per receiver, so it does not fork
// a second walk to the end of the range: the scan costs at most twice
// its messages without duplication and returns the same rows.
TEST(DuplicationTest, DuplicatedSeqStepsDoNotForkWalks) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    std::optional<RangeResult> clean;
    uint64_t clean_msgs = 0;
    for (const bool duplicate : {false, true}) {
      OverlayOptions options = DuplicatingOverlay(seed);
      if (!duplicate) options.fault_schedule = net::FaultSchedule();
      Overlay overlay(options);
      overlay.AddPeers(kPeers);
      overlay.BuildBalanced();
      for (const Entry& e : MakeRows("row", kRows)) overlay.InsertDirect(e);
      const uint64_t before = overlay.transport().stats().messages_sent;
      Result<RangeResult> result = overlay.RangeSeqSync(
          static_cast<net::PeerId>(seed % kPeers), kFullRange);
      ASSERT_TRUE(result.ok()) << "seed " << seed;
      ASSERT_TRUE(result->complete) << "seed " << seed;
      const uint64_t msgs =
          overlay.transport().stats().messages_sent - before;
      if (!duplicate) {
        clean = *result;
        clean_msgs = msgs;
        continue;
      }
      EXPECT_LE(msgs, 2 * clean_msgs)
          << "seed " << seed << ": " << msgs << " messages vs " << clean_msgs
          << " without duplication";
      EXPECT_EQ(result->entries, clean->entries) << "seed " << seed;
    }
  }
}

// A relay hop passes its branch on with the batch; a duplicated relay
// forward reaches the owner twice under that one branch, and the write
// still closes exactly once.
TEST(DuplicationTest, DuplicatedRelayForwardClosesWriteOnce) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Overlay overlay(DuplicatingOverlay(seed));
    overlay.AddPeers(kPeers);
    overlay.BuildBalanced();
    for (const Entry& e : MakeRows("one", 8)) {
      int callbacks = 0;
      Status status;
      overlay.peer(0)->InsertBatch({e}, [&](Status s) {
        ++callbacks;
        status = std::move(s);
      });
      overlay.simulation().RunUntilIdle();
      EXPECT_EQ(callbacks, 1) << "seed " << seed << " " << e.id;
      EXPECT_TRUE(status.ok()) << "seed " << seed << " " << e.id << ": "
                               << status.ToString();
      bool stored = false;
      for (net::PeerId owner : overlay.ResponsiblePeers(e.key)) {
        stored = stored || !overlay.peer(owner)->store().Get(e.key).empty();
      }
      EXPECT_TRUE(stored) << "seed " << seed << " " << e.id;
    }
  }
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
