#include "net/message.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "sim/latency.h"
#include "sim/simulation.h"

namespace unistore {
namespace net {
namespace {

// --- Message ---------------------------------------------------------------

TEST(MessageTest, TypeNamesAreUniqueAndNonEmpty) {
  const MessageType all[] = {
      MessageType::kPing,          MessageType::kPong,
      MessageType::kLookup,        MessageType::kLookupReply,
      MessageType::kInsert,        MessageType::kInsertReply,
      MessageType::kRemove,        MessageType::kRemoveReply,
      MessageType::kRangeSeq,      MessageType::kRangeSeqReply,
      MessageType::kRangeShower,   MessageType::kRangeShowerReply,
      MessageType::kExchange,      MessageType::kExchangeReply,
      MessageType::kReplicaPush,   MessageType::kManifestPull,
      MessageType::kManifestPullReply, MessageType::kRunFetch,
      MessageType::kRunFetchReply, MessageType::kPlanExec,
      MessageType::kPlanExecReply, MessageType::kStatsGossip,
  };
  std::set<std::string> names;
  for (MessageType type : all) {
    std::string name(MessageTypeName(type));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "Unknown") << "missing case for type "
                               << static_cast<int>(type);
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(all));
}

TEST(MessageTest, UnknownTypeNameFallsBack) {
  EXPECT_EQ(MessageTypeName(static_cast<MessageType>(999)), "Unknown");
}

TEST(MessageTest, WireSizeCountsHeaderAndPayload) {
  Message m;
  m.type = MessageType::kPing;
  EXPECT_EQ(m.WireSize(), Message::kHeaderBytes);
  m.payload = std::string(123, 'x');
  EXPECT_EQ(m.WireSize(), Message::kHeaderBytes + 123);
}

TEST(MessageTest, DefaultsAreSentinel) {
  Message m;
  EXPECT_EQ(m.src, kNoPeer);
  EXPECT_EQ(m.dst, kNoPeer);
  EXPECT_EQ(m.request_id, 0u);
  EXPECT_EQ(m.hops, 0u);
}

// --- Payload serialization (common/codec.h is the wire format of every
// --- message body) ---------------------------------------------------------

TEST(MessageTest, PayloadRoundTripsThroughCodec) {
  BufferWriter w;
  w.PutU32(42);
  w.PutVarint(1u << 20);
  w.PutString("route/to/key");
  w.PutBool(true);
  w.PutDouble(2.5);

  Message m;
  m.type = MessageType::kLookup;
  m.payload = w.Release();

  BufferReader r(m.payload);
  ASSERT_TRUE(r.GetU32().ok());
  auto varint = r.GetVarint();
  ASSERT_TRUE(varint.ok());
  EXPECT_EQ(*varint, 1u << 20);
  auto s = r.GetString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "route/to/key");
  auto b = r.GetBool();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
  auto d = r.GetDouble();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 2.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(MessageTest, TruncatedPayloadDecodeFailsCleanly) {
  BufferWriter w;
  w.PutString("a long enough payload string");
  std::string full = w.Release();

  // Every strict prefix must fail to decode without crashing.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    BufferReader r(std::string_view(full).substr(0, cut));
    EXPECT_FALSE(r.GetString().ok()) << "prefix of " << cut << " bytes";
  }
}

// --- RpcManager ------------------------------------------------------------

struct RpcFixture {
  sim::Simulation sim;
  std::unique_ptr<Transport> transport;
  std::vector<std::vector<Message>> inboxes;

  explicit RpcFixture(size_t peers, sim::SimTime latency = 1000) {
    transport = std::make_unique<SimTransport>(
        &sim, std::make_unique<sim::ConstantLatency>(latency), /*seed=*/7);
    inboxes.resize(peers);
    for (size_t i = 0; i < peers; ++i) {
      transport->AddPeer(
          [this, i](const Message& m) { inboxes[i].push_back(m); });
    }
  }
};

TEST(RpcManagerTest, RequestIdsAreUniqueAndMonotone) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  uint64_t a = client.SendRequest(1, MessageType::kPing, "", 0,
                                  [](const Status&, const Message&) {});
  uint64_t b = client.SendRequest(1, MessageType::kPing, "", 0,
                                  [](const Status&, const Message&) {});
  uint64_t c = client.RegisterPending(0, [](const Status&, const Message&) {});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(client.pending_count(), 3u);
}

TEST(RpcManagerTest, ReplyCorrelatesWithRequestAndIncrementsHops) {
  RpcFixture f(2);
  RpcManager server(1, f.transport.get());

  Message request;
  request.type = MessageType::kLookup;
  request.src = 0;
  request.dst = 1;
  request.request_id = 99;
  request.hops = 3;

  server.Reply(request, MessageType::kLookupReply, "found");
  f.sim.RunUntilIdle();

  ASSERT_EQ(f.inboxes[0].size(), 1u);
  const Message& reply = f.inboxes[0][0];
  EXPECT_EQ(reply.type, MessageType::kLookupReply);
  EXPECT_EQ(reply.src, 1u);
  EXPECT_EQ(reply.dst, 0u);
  EXPECT_EQ(reply.request_id, 99u);
  EXPECT_EQ(reply.hops, 4u);  // Forwarding step counted.
  EXPECT_EQ(reply.payload, "found");
}

TEST(RpcManagerTest, HandleReplyRejectsUnknownId) {
  RpcFixture f(1);
  RpcManager client(0, f.transport.get());
  Message stray;
  stray.type = MessageType::kPong;
  stray.request_id = 12345;
  EXPECT_FALSE(client.HandleReply(stray));
}

TEST(RpcManagerTest, ZeroTimeoutNeverFires) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  f.transport->SetHandler(1, [](const Message&) {});  // Black hole.

  int calls = 0;
  client.SendRequest(1, MessageType::kPing, "", /*timeout=*/0,
                     [&](const Status&, const Message&) { ++calls; });
  f.sim.RunFor(1'000'000'000);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(client.pending_count(), 1u);
}

TEST(RpcManagerTest, RegisterPendingMatchesFanOutReply) {
  // A forwarding chain: the initiator registers one logical id, fans a
  // message through peer 1, and the terminal peer 2 answers with ReplyTo().
  RpcFixture f(3);
  RpcManager initiator(0, f.transport.get());
  RpcManager terminal(2, f.transport.get());

  Status got = Status::Internal("unset");
  std::string payload;
  uint64_t id = initiator.RegisterPending(
      /*timeout=*/0, [&](const Status& s, const Message& m) {
        got = s;
        payload = m.payload;
      });

  f.transport->SetHandler(0, [&initiator](const Message& m) {
    initiator.HandleReply(m);
  });
  // Peer 1 forwards to peer 2, keeping the id stable along the chain.
  f.transport->SetHandler(1, [&f](const Message& m) {
    Message fwd = m;
    fwd.src = 1;
    fwd.dst = 2;
    fwd.hops = m.hops + 1;
    f.transport->Send(std::move(fwd));
  });
  f.transport->SetHandler(2, [&terminal](const Message& m) {
    terminal.ReplyTo(/*dst=*/0, m.request_id, m.hops, MessageType::kPong,
                     "terminal");
  });

  Message m;
  m.type = MessageType::kPing;
  m.src = 0;
  m.dst = 1;
  m.request_id = id;
  f.transport->Send(std::move(m));
  f.sim.RunUntilIdle();

  EXPECT_TRUE(got.ok());
  EXPECT_EQ(payload, "terminal");
  EXPECT_EQ(initiator.pending_count(), 0u);
}

TEST(RpcManagerTest, TimeoutReportsRequestId) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  f.transport->SetHandler(1, [](const Message&) {});  // Black hole.

  Status got;
  uint64_t id = client.SendRequest(
      1, MessageType::kPing, "", /*timeout=*/500,
      [&](const Status& s, const Message&) { got = s; });
  f.sim.RunUntilIdle();
  ASSERT_TRUE(got.IsTimeout());
  EXPECT_NE(got.ToString().find(std::to_string(id)), std::string::npos);
}

// --- RpcManager multi-reply entries -----------------------------------------

// A minimal multi-reply payload: the answered branch and the child
// branches the replying peer spawned.
struct TestPartial {
  uint64_t branch = 0;
  std::vector<uint64_t> children;
  std::string tag;

  std::string Encode() const {
    BufferWriter w;
    w.PutU64(branch);
    w.PutVarint(children.size());
    for (uint64_t c : children) w.PutU64(c);
    w.PutString(tag);
    return w.Release();
  }
  static Result<TestPartial> Decode(std::string_view bytes) {
    BufferReader r(bytes);
    TestPartial p;
    UNISTORE_ASSIGN_OR_RETURN(p.branch, r.GetU64());
    UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
    for (uint64_t i = 0; i < n; ++i) {
      UNISTORE_ASSIGN_OR_RETURN(uint64_t c, r.GetU64());
      p.children.push_back(c);
    }
    UNISTORE_ASSIGN_OR_RETURN(p.tag, r.GetString());
    return p;
  }
};

// Same shape, different type: a multi-reply entry must not accept it.
struct OtherPartial : TestPartial {
  static Result<OtherPartial> Decode(std::string_view) {
    return Status::Corruption("unused");
  }
};

// Records what a multi-reply entry's callback saw.
struct PartialLog {
  std::vector<std::string> tags;  ///< Accepted replies, in order.
  std::vector<Status> closes;     ///< Close events (reply == nullptr).

  RpcManager::PartialCallback<TestPartial> Callback() {
    return [this](const Status& s, uint32_t, const TestPartial* p) {
      if (p != nullptr) {
        tags.push_back(p->tag);
      } else {
        closes.push_back(s);
      }
    };
  }
};

TestPartial Partial(uint64_t branch, std::vector<uint64_t> children,
                    std::string tag) {
  TestPartial p;
  p.branch = branch;
  p.children = std::move(children);
  p.tag = std::move(tag);
  return p;
}

Message WireReply(uint64_t request_id, const TestPartial& p) {
  Message m;
  m.type = MessageType::kRangeShowerReply;
  m.src = 1;
  m.dst = 0;
  m.request_id = request_id;
  m.payload = p.Encode();
  return m;
}

TEST(RpcMultiReplyTest, DuplicateRepliesAreDropped) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  RpcManager server(1, f.transport.get());
  PartialLog log;
  const uint64_t id =
      client.RegisterMultiReply<TestPartial>(0, log.Callback());
  const uint64_t child = server.NewBranch();

  EXPECT_TRUE(client.HandleReply(WireReply(id, Partial(id, {child}, "root"))));
  EXPECT_FALSE(
      client.HandleReply(WireReply(id, Partial(id, {child}, "root"))));
  EXPECT_FALSE(client.HandleLocalReply(id, 0, Partial(id, {child}, "root")));
  EXPECT_EQ(log.tags, std::vector<std::string>{"root"});
  EXPECT_TRUE(log.closes.empty());

  EXPECT_TRUE(client.HandleReply(WireReply(id, Partial(child, {}, "leaf"))));
  EXPECT_EQ(log.tags, (std::vector<std::string>{"root", "leaf"}));
  ASSERT_EQ(log.closes.size(), 1u);
  EXPECT_TRUE(log.closes[0].ok());
  // The entry is gone: a late duplicate of the last reply finds nothing.
  EXPECT_FALSE(client.HandleReply(WireReply(id, Partial(child, {}, "leaf"))));
  EXPECT_EQ(log.closes.size(), 1u);
  EXPECT_EQ(client.pending_count(), 0u);
}

TEST(RpcMultiReplyTest, ClosesWhenNoBranchIsLeftOpen) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  RpcManager server(1, f.transport.get());
  PartialLog log;
  const uint64_t id =
      client.RegisterMultiReply<TestPartial>(0, log.Callback());
  const uint64_t a = server.NewBranch();
  const uint64_t b = server.NewBranch();
  const uint64_t a0 = server.NewBranch();
  EXPECT_NE(a, b);

  // A grandchild overtakes its parent's reply: held, not yet delivered.
  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(a0, {}, "a0")));
  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(id, {a, b}, "root")));
  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(b, {}, "b")));
  EXPECT_EQ(log.tags, (std::vector<std::string>{"root", "b"}));
  EXPECT_TRUE(log.closes.empty());
  EXPECT_EQ(client.pending_count(), 1u);
  // a's reply opens a0, whose held reply follows at once; nothing is left
  // open.
  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(a, {a0}, "a")));
  EXPECT_EQ(log.tags, (std::vector<std::string>{"root", "b", "a", "a0"}));
  ASSERT_EQ(log.closes.size(), 1u);
  EXPECT_TRUE(log.closes[0].ok());
  EXPECT_EQ(client.pending_count(), 0u);
}

// A duplicated request runs twice and may fan out differently: the
// second run's children are minted fresh, so no accepted reply names
// them and they are never delivered.
TEST(RpcMultiReplyTest, SecondRunOfADuplicatedRequestIsNeverDelivered) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  RpcManager server(1, f.transport.get());
  PartialLog log;
  const uint64_t id =
      client.RegisterMultiReply<TestPartial>(0, log.Callback());
  const uint64_t first = server.NewBranch();
  const uint64_t second = server.NewBranch();

  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(id, {first}, "run1")));
  EXPECT_FALSE(client.HandleLocalReply(id, 0, Partial(id, {second}, "run2")));
  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(second, {}, "orphan")));
  EXPECT_TRUE(log.closes.empty());
  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(first, {}, "leaf")));
  EXPECT_EQ(log.tags, (std::vector<std::string>{"run1", "leaf"}));
  ASSERT_EQ(log.closes.size(), 1u);
  EXPECT_TRUE(log.closes[0].ok());
}

TEST(RpcMultiReplyTest, TimeoutAfterPartialRepliesFiresOnce) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  RpcManager server(1, f.transport.get());
  PartialLog log;
  const uint64_t id =
      client.RegisterMultiReply<TestPartial>(/*timeout=*/500, log.Callback());
  const uint64_t a = server.NewBranch();
  const uint64_t b = server.NewBranch();
  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(id, {a, b}, "root")));
  EXPECT_TRUE(client.HandleLocalReply(id, 0, Partial(a, {}, "first")));
  f.sim.RunUntilIdle();

  ASSERT_EQ(log.closes.size(), 1u);
  EXPECT_TRUE(log.closes[0].IsTimeout());
  EXPECT_EQ(log.tags, (std::vector<std::string>{"root", "first"}));
  EXPECT_EQ(client.pending_count(), 0u);
  // The straggler arrives after the deadline: dropped, no second close.
  EXPECT_FALSE(client.HandleLocalReply(id, 0, Partial(b, {}, "late")));
  EXPECT_EQ(log.closes.size(), 1u);
}

TEST(RpcMultiReplyTest, FailAllFiresEachEntryOnce) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  PartialLog first;
  PartialLog second;
  const uint64_t a =
      client.RegisterMultiReply<TestPartial>(/*timeout=*/500, first.Callback());
  client.RegisterMultiReply<TestPartial>(0, second.Callback());
  std::vector<Status> single;
  client.RegisterPending(0, [&single](const Status& s, const Message&) {
    single.push_back(s);
  });
  EXPECT_TRUE(client.HandleLocalReply(
      a, 0, Partial(a, {client.NewBranch()}, "partial")));
  EXPECT_EQ(client.pending_count(), 3u);

  client.FailAll(Status::Unavailable("restarted"));
  f.sim.RunUntilIdle();  // The armed timer finds nothing left to fire.
  for (const PartialLog* log : {&first, &second}) {
    ASSERT_EQ(log->closes.size(), 1u);
    EXPECT_TRUE(log->closes[0].IsUnavailable());
  }
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0].IsUnavailable());
  EXPECT_EQ(client.pending_count(), 0u);
}

TEST(RpcMultiReplyTest, RejectsRepliesOfAnotherType) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  PartialLog log;
  const uint64_t id =
      client.RegisterMultiReply<TestPartial>(0, log.Callback());
  OtherPartial other;
  other.branch = id;
  EXPECT_FALSE(client.HandleLocalReply(id, 0, other));
  EXPECT_TRUE(log.tags.empty());
  EXPECT_EQ(client.pending_count(), 1u);
  client.Cancel(id);
  EXPECT_EQ(client.pending_count(), 0u);
  EXPECT_TRUE(log.closes.empty());
}

TEST(RpcMultiReplyTest, IdsNeverCollide) {
  RpcFixture f(3);
  RpcManager a(0, f.transport.get());
  RpcManager b(1, f.transport.get());
  std::set<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.insert(a.RegisterPending(0, [](const Status&, const Message&) {}));
    ids.insert(a.RegisterMultiReply<TestPartial>(
        0, [](const Status&, uint32_t, const TestPartial*) {}));
    ids.insert(a.NewBranch());
    ids.insert(b.NewBranch());
  }
  EXPECT_EQ(ids.size(), 400u);
  EXPECT_EQ(a.pending_count(), 200u);
}

}  // namespace
}  // namespace net
}  // namespace unistore
