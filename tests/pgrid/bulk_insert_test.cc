// The routed BulkInsert pipeline: a batch grouped by next hop must reach
// every owner, respect versioned-upsert semantics, replicate, and survive
// message loss through idempotent whole-batch retries.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "pgrid/overlay.h"

namespace unistore {
namespace pgrid {
namespace {

Entry MakeEntry(const std::string& value, uint64_t version = 1) {
  Entry e;
  e.key = OpHash(value);
  e.id = "id-" + value;
  e.payload = "payload-" + value;
  e.version = version;
  return e;
}

std::vector<Entry> MakeBatch(size_t n, const std::string& tag) {
  std::vector<Entry> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(MakeEntry(tag + "-" + std::to_string(i)));
  }
  return batch;
}

class BulkInsertTest : public ::testing::Test {
 protected:
  void Build(size_t peers, size_t replication, double loss, uint64_t seed) {
    OverlayOptions options;
    options.seed = seed;
    options.replication = replication;
    options.loss_probability = loss;
    overlay_ = std::make_unique<Overlay>(options);
    overlay_->AddPeers(peers);
    overlay_->BuildBalanced();
  }

  uint64_t Sent(net::MessageType type) const {
    const auto stats = overlay_->transport().stats();
    auto it = stats.per_type.find(type);
    return it == stats.per_type.end() ? 0 : it->second;
  }

  // A peer outside every group in `skip`.
  net::PeerId PeerOutside(const std::vector<net::PeerId>& skip) const {
    for (net::PeerId p = 0; p < overlay_->size(); ++p) {
      if (std::find(skip.begin(), skip.end(), p) == skip.end()) return p;
    }
    return net::kNoPeer;
  }

  std::unique_ptr<Overlay> overlay_;
};

TEST_F(BulkInsertTest, BatchReachesEveryOwner) {
  Build(16, /*replication=*/1, /*loss=*/0, /*seed=*/7);
  auto batch = MakeBatch(64, "bulk");
  ASSERT_TRUE(overlay_->InsertBatchSync(3, batch).ok());
  overlay_->simulation().RunUntilIdle();
  for (const Entry& e : batch) {
    auto found = overlay_->LookupSync(11, e.key);
    ASSERT_TRUE(found.ok()) << e.id;
    ASSERT_EQ(found->entries.size(), 1u) << e.id;
    EXPECT_EQ(found->entries[0].payload, e.payload);
  }
}

TEST_F(BulkInsertTest, MatchesPerEntryInsertResults) {
  // The same data via the routed InsertBatch walk and stored directly at
  // every responsible peer must land identically (same owners, same
  // stored bytes).
  Build(16, /*replication=*/1, /*loss=*/0, /*seed=*/8);
  OverlayOptions options;
  options.seed = 8;
  Overlay single(options);
  single.AddPeers(16);
  single.BuildBalanced();

  auto batch = MakeBatch(48, "cmp");
  ASSERT_TRUE(overlay_->InsertBatchSync(0, batch).ok());
  for (const Entry& e : batch) {
    ASSERT_EQ(single.InsertDirect(e), 1u) << e.id;
  }
  overlay_->simulation().RunUntilIdle();
  for (size_t p = 0; p < 16; ++p) {
    const auto id = static_cast<net::PeerId>(p);
    EXPECT_EQ(overlay_->peer(id)->store().GetAll(),
              single.peer(id)->store().GetAll())
        << "peer " << p;
  }
}

TEST_F(BulkInsertTest, EmptyBatchCompletesImmediately) {
  Build(4, 1, 0, 9);
  EXPECT_TRUE(overlay_->InsertBatchSync(1, {}).ok());
}

TEST_F(BulkInsertTest, StaleVersionsInBatchAreIgnored) {
  Build(8, 1, 0, 10);
  Entry fresh = MakeEntry("versioned", /*version=*/5);
  ASSERT_TRUE(overlay_->InsertSync(0, fresh).ok());
  std::vector<Entry> batch = {MakeEntry("versioned", /*version=*/2)};
  batch[0].payload = "stale";
  ASSERT_TRUE(overlay_->InsertBatchSync(4, batch).ok());
  overlay_->simulation().RunUntilIdle();
  auto found = overlay_->LookupSync(2, fresh.key);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->entries.size(), 1u);
  EXPECT_EQ(found->entries[0].payload, fresh.payload);
  EXPECT_EQ(found->entries[0].version, 5u);
}

TEST_F(BulkInsertTest, BatchReplicatesToReplicaGroup) {
  Build(16, /*replication=*/2, /*loss=*/0, /*seed=*/11);
  auto batch = MakeBatch(32, "repl");
  ASSERT_TRUE(overlay_->InsertBatchSync(5, batch).ok());
  overlay_->simulation().RunUntilIdle();
  // Every entry must be present at more than one peer (owner + at least
  // one rumor-push replica).
  for (const Entry& e : batch) {
    size_t holders = 0;
    for (net::PeerId p : overlay_->ResponsiblePeers(e.key)) {
      if (!overlay_->peer(p)->store().Get(e.key).empty()) ++holders;
    }
    EXPECT_GE(holders, 2u) << e.id;
  }
}

TEST_F(BulkInsertTest, SurvivesMessageLossViaIdempotentRetry) {
  Build(16, /*replication=*/1, /*loss=*/0.15, /*seed=*/12);
  auto batch = MakeBatch(40, "lossy");
  // Retries are whole-batch and idempotent; with the default retry budget
  // the batch should make it through 15% loss. Even if the final status
  // reports a failure, re-running the batch must never duplicate data.
  Status status = overlay_->InsertBatchSync(2, batch);
  if (!status.ok()) {
    status = overlay_->InsertBatchSync(2, batch);
  }
  overlay_->simulation().RunUntilIdle();
  size_t found_count = 0;
  for (const Entry& e : batch) {
    auto found = overlay_->LookupSync(9, e.key);
    if (found.ok() && found->entries.size() == 1) ++found_count;
  }
  EXPECT_GE(found_count, batch.size() * 9 / 10);
}

TEST_F(BulkInsertTest, GarbageBulkInsertPayloadIsDropped) {
  Build(8, 1, 0, 13);
  net::Message m;
  m.type = net::MessageType::kBulkInsert;
  m.src = 0;
  m.dst = 3;
  m.request_id = 777;
  m.payload = "\xFF\x80\x80garbage";
  overlay_->transport().Send(std::move(m));
  overlay_->simulation().RunUntilIdle();
  // The network still works afterwards.
  auto batch = MakeBatch(8, "post-garbage");
  EXPECT_TRUE(overlay_->InsertBatchSync(1, batch).ok());
}

TEST_F(BulkInsertTest, OwnerDoesNotRepushEntryItAlreadyHolds) {
  // Damping: only entries that changed the owner's store go to its
  // replicas, so re-delivering a held entry starts no rumor.
  Build(16, /*replication=*/2, /*loss=*/0, /*seed=*/21);
  const Entry e = MakeEntry("damped");
  ASSERT_TRUE(overlay_->InsertBatchSync(0, {e}).ok());
  overlay_->simulation().RunUntilIdle();
  const uint64_t first = Sent(net::MessageType::kReplicaPush);
  ASSERT_GT(first, 0u) << "the first write must replicate";
  ASSERT_TRUE(overlay_->InsertBatchSync(0, {e}).ok());
  overlay_->simulation().RunUntilIdle();
  EXPECT_EQ(Sent(net::MessageType::kReplicaPush), first);
}

TEST_F(BulkInsertTest, RoutingCycleEndsAsBoundedDeadEnd) {
  // Two peers whose views disagree: each believes the other covers the
  // '1' half, which nobody serves. The hop cap turns the loop into a
  // dead end, so the batch fails after its retries and the network goes
  // idle.
  OverlayOptions options;
  options.seed = 22;
  overlay_ = std::make_unique<Overlay>(options);
  overlay_->AddPeers(2);
  Peer* a = overlay_->peer(0);
  Peer* b = overlay_->peer(1);
  a->SetPath(Key::FromBits("00"));
  b->SetPath(Key::FromBits("01"));
  a->routing().AddRef(0, b->id(), &overlay_->rng());
  b->routing().AddRef(0, a->id(), &overlay_->rng());
  Entry e = MakeEntry("cycle");
  e.key = Key::FromBits("1").PadTo(kKeyBits, false);

  const uint64_t before = overlay_->transport().stats().messages_sent;
  Status status = overlay_->InsertBatchSync(0, {e});
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  overlay_->simulation().RunFor(60 * sim::kMicrosPerSecond);
  EXPECT_EQ(overlay_->simulation().pending_events(), 0u);
  // Per attempt: at most 2 * kKeyBits forwards, each answered once.
  const uint64_t attempts = PeerOptions{}.request_retries + 1;
  EXPECT_LE(overlay_->transport().stats().messages_sent - before,
            attempts * 2 * (2 * kKeyBits));
}

TEST_F(BulkInsertTest, StaleReplicaReroutesRumorWithoutPushCycle) {
  // Both owners still list a peer of another region as their replica.
  // Their rumor reaches it, it routes the entry to the owners as a batch,
  // and the owners, already holding it, push nothing back.
  Build(16, /*replication=*/2, /*loss=*/0, /*seed=*/23);
  const Entry e = MakeEntry("rumor");
  const std::vector<net::PeerId> owners = overlay_->ResponsiblePeers(e.key);
  ASSERT_EQ(owners.size(), 2u);
  const net::PeerId stale = PeerOutside(owners);
  for (net::PeerId o : owners) overlay_->peer(o)->routing().AddReplica(stale);
  std::vector<net::PeerId> skip = owners;
  skip.push_back(stale);

  ASSERT_TRUE(overlay_->InsertSync(PeerOutside(skip), e).ok());
  overlay_->simulation().RunFor(60 * sim::kMicrosPerSecond);
  EXPECT_EQ(overlay_->simulation().pending_events(), 0u);
  EXPECT_GE(overlay_->peer(stale)->rerouted_entries(), 1u);
  EXPECT_TRUE(overlay_->peer(stale)->store().Get(e.key).empty());
  for (net::PeerId o : owners) {
    EXPECT_EQ(overlay_->peer(o)->store().Get(e.key).size(), 1u) << o;
  }
  // The owner's push and the other owner's fresh re-push, two targets
  // each; the rerouted copies start none.
  EXPECT_LE(Sent(net::MessageType::kReplicaPush), 4u);
}

TEST_F(BulkInsertTest, RerouteThatDeadEndsIsHeldLocally) {
  Build(16, /*replication=*/2, /*loss=*/0, /*seed=*/24);
  const Entry e = MakeEntry("held");
  const std::vector<net::PeerId> owners = overlay_->ResponsiblePeers(e.key);
  ASSERT_FALSE(owners.empty());
  const net::PeerId stale = PeerOutside(owners);
  Peer* peer = overlay_->peer(stale);
  // Cut every route from the stale peer toward the entry's region.
  const size_t level = peer->path().CommonPrefixLength(e.key);
  const std::vector<net::PeerId> refs = peer->routing().RefsAt(level);
  for (net::PeerId ref : refs) peer->routing().RemoveRef(level, ref);

  EntryBatch rumor;
  rumor.entries = {e};
  rumor.gossip = true;
  net::Message m;
  m.type = net::MessageType::kReplicaPush;
  m.src = owners[0];
  m.dst = stale;
  m.payload = rumor.Encode();
  overlay_->transport().Send(std::move(m));
  overlay_->simulation().RunUntilIdle();

  EXPECT_EQ(peer->rerouted_entries(), 1u);
  const std::vector<Entry> held = peer->store().Get(e.key);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].payload, e.payload);
}

TEST_F(BulkInsertTest, RelayHopsPassTheirBranchOn) {
  // A hop that only relays a one-entry write replies nothing: over h
  // forwards the write costs h requests and the owner's one reply.
  Build(64, /*replication=*/1, /*loss=*/0, /*seed=*/25);
  bool multi_hop = false;
  for (int i = 0; i < 64 && !multi_hop; ++i) {
    const Entry e = MakeEntry("relay-" + std::to_string(i));
    const uint64_t requests = Sent(net::MessageType::kBulkInsert);
    const uint64_t replies = Sent(net::MessageType::kBulkInsertReply);
    const uint64_t total = overlay_->transport().stats().messages_sent;
    ASSERT_TRUE(overlay_->InsertBatchSync(0, {e}).ok()) << e.id;
    overlay_->simulation().RunUntilIdle();
    const uint64_t hops = Sent(net::MessageType::kBulkInsert) - requests;
    if (hops < 2) continue;
    multi_hop = true;
    EXPECT_EQ(Sent(net::MessageType::kBulkInsertReply) - replies, 1u);
    EXPECT_EQ(overlay_->transport().stats().messages_sent - total, hops + 1);
  }
  EXPECT_TRUE(multi_hop) << "no write from peer 0 took two hops";
}

TEST_F(BulkInsertTest, OwnerThatForwardsTheRestStillReplies) {
  // Peer 0 routes both entries through peer 1, which owns one of them and
  // forwards the other to peer 2. Peer 0 only relays (its branch goes on
  // with the batch); peer 1 applied an entry, so it answers that branch
  // and names its child, which peer 2 answers.
  OverlayOptions options;
  options.seed = 27;
  overlay_ = std::make_unique<Overlay>(options);
  overlay_->AddPeers(3);
  Peer* a = overlay_->peer(0);
  Peer* b = overlay_->peer(1);
  Peer* c = overlay_->peer(2);
  a->SetPath(Key::FromBits("00"));
  b->SetPath(Key::FromBits("01"));
  c->SetPath(Key::FromBits("1"));
  a->routing().AddRef(0, b->id(), &overlay_->rng());
  a->routing().AddRef(1, b->id(), &overlay_->rng());
  b->routing().AddRef(0, c->id(), &overlay_->rng());
  b->routing().AddRef(1, a->id(), &overlay_->rng());
  c->routing().AddRef(0, a->id(), &overlay_->rng());
  Entry at_b = MakeEntry("at-b");
  at_b.key = Key::FromBits("01").PadTo(kKeyBits, false);
  Entry at_c = MakeEntry("at-c");
  at_c.key = Key::FromBits("1").PadTo(kKeyBits, false);

  ASSERT_TRUE(overlay_->InsertBatchSync(0, {at_b, at_c}).ok());
  overlay_->simulation().RunUntilIdle();
  EXPECT_EQ(Sent(net::MessageType::kBulkInsert), 2u);
  EXPECT_EQ(Sent(net::MessageType::kBulkInsertReply), 2u);
  EXPECT_EQ(b->store().Get(at_b.key).size(), 1u);
  EXPECT_EQ(c->store().Get(at_c.key).size(), 1u);
}

TEST_F(BulkInsertTest, OneEntryWritesAddNoRuns) {
  // Small owner slices go through the memtable: a run per one-entry write
  // would also cost a compaction check each.
  Build(16, /*replication=*/1, /*loss=*/0, /*seed=*/26);
  const Key key = OpHash("one-owner");
  const std::vector<net::PeerId> owners = overlay_->ResponsiblePeers(key);
  ASSERT_EQ(owners.size(), 1u);
  const LocalStore& store = overlay_->peer(owners[0])->store();
  const size_t runs = store.run_count();
  for (int i = 0; i < 100; ++i) {
    Entry e;
    e.key = key;
    e.id = "w" + std::to_string(i);
    e.payload = "payload";
    ASSERT_TRUE(overlay_->InsertBatchSync(3, {e}).ok()) << i;
  }
  EXPECT_EQ(store.run_count(), runs);
  EXPECT_EQ(store.write_stats().compactions, 0u);
  EXPECT_EQ(store.write_stats().bulk_loaded_entries, 0u);
  EXPECT_EQ(store.Get(key).size(), 100u);
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
