// Request/response correlation with timeouts on top of Transport.
#ifndef UNISTORE_NET_RPC_H_
#define UNISTORE_NET_RPC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "net/message.h"
#include "net/transport.h"
#include "sim/simulation.h"

namespace unistore {
namespace net {

/// \brief Per-peer RPC bookkeeping: issues request ids, dispatches matching
/// responses, and fires Status::Timeout when a reply does not arrive.
///
/// Owned by each protocol endpoint (e.g. pgrid::Peer). The endpoint routes
/// *reply*-type messages into HandleReply(); request-type messages go to its
/// own protocol handlers.
///
/// Forwarding protocols (prefix routing) keep the header `request_id` stable
/// along the chain and carry the initiator id in the payload; the terminal
/// peer answers the initiator directly with ReplyTo(), which the initiator's
/// RpcManager matches by id.
///
/// Fan-out operations (range scans, bulk inserts) register one multi-reply
/// entry instead (RegisterMultiReply); both kinds share timeout, Cancel and
/// FailAll, so this table holds every in-flight initiator-side operation.
class RpcManager {
 public:
  /// Called exactly once per request with (status, reply). On timeout or
  /// failure the message reference is a dummy and must be ignored.
  using ReplyCallback = std::function<void(const Status&, const Message&)>;

  /// Health observer: fired with (peer, false) when a request toward a
  /// known destination times out, and (peer, true) when any reply arrives
  /// from `peer`. Feeds the owner's suspicion tracker (DESIGN.md §10).
  using PeerObserver = std::function<void(PeerId peer, bool ok)>;

  RpcManager(PeerId self, Transport* transport);

  /// Sends a request and registers `callback`. `timeout` <= 0 disables the
  /// timer (the callback then only fires on a reply or FailAll).
  /// Returns the assigned request id.
  uint64_t SendRequest(PeerId dst, MessageType type, std::string payload,
                       sim::SimTime timeout, ReplyCallback callback);

  /// Allocates a request id and registers `callback` without sending —
  /// used when the caller fans out several messages under one logical id
  /// or sends through a custom path.
  uint64_t RegisterPending(sim::SimTime timeout, ReplyCallback callback);

  /// Callback of a multi-reply entry: (OK, hops, &reply) per accepted
  /// reply, then (status, 0, nullptr) once when the entry closes — OK when
  /// no branch is left open, else Timeout or the FailAll status.
  template <typename ReplyT>
  using PartialCallback =
      std::function<void(const Status&, uint32_t hops, const ReplyT*)>;

  /// \brief Registers a multi-reply entry: one request id that stays open
  /// across many correlated replies of type `ReplyT`.
  ///
  /// The operation is a tree of branches rooted at the request id. A reply
  /// names the branch it answers (`reply.branch`) and the child branches
  /// it spawned (`reply.children`, minted by NewBranch). Accepting it
  /// closes its branch and opens the children; the entry closes when no
  /// open branch is left. A reply for a closed branch (a duplicate) is
  /// dropped; one for a branch not opened yet is held until its parent's
  /// reply names it, so the fan-out of a duplicated request's second run,
  /// which no accepted reply names, is never delivered. Multi-reply ids
  /// have the top bit set: they never collide with single-reply ids, and
  /// a single-reply request issued in the same instant cannot shift them.
  template <typename ReplyT>
  uint64_t RegisterMultiReply(sim::SimTime timeout,
                              PartialCallback<ReplyT> callback);

  /// Feeds a reply this peer produced for its own multi-reply entry
  /// straight in: no transport, no encoding. Returns false if dropped.
  template <typename ReplyT>
  bool HandleLocalReply(uint64_t request_id, uint32_t hops,
                        const ReplyT& reply);

  /// A fresh branch id: a 64-bit mix of (this peer, a per-peer counter),
  /// so two runs of one duplicated request never mint the same child.
  uint64_t NewBranch();

  /// Sends a reply correlated with `request`: dst = request.src, the
  /// request id and hop count are carried over (hops + 1).
  void Reply(const Message& request, MessageType type, std::string payload);

  /// Sends a reply to an explicit destination with an explicit request id —
  /// the terminal step of a forwarding chain.
  void ReplyTo(PeerId dst, uint64_t request_id, uint32_t hops,
               MessageType type, std::string payload);

  /// Routes an incoming reply message to its pending callback (or, for a
  /// multi-reply entry, decodes it and feeds it in like HandleLocalReply).
  /// Returns false if no pending request matches (late reply after
  /// timeout) or the reply was dropped.
  bool HandleReply(const Message& msg);

  /// Records the peer a pending request was sent to, so its timeout can be
  /// attributed (suspicion). SendRequest does this itself; callers of
  /// RegisterPending that pick the destination afterwards use this.
  void NoteDestination(uint64_t request_id, PeerId dst);

  /// Installs the health observer (may be empty to disable).
  void set_peer_observer(PeerObserver observer) {
    observer_ = std::move(observer);
  }

  /// Cancels one pending request (either kind) without firing its
  /// callback.
  void Cancel(uint64_t request_id);

  /// Fails all pending requests with the given status (peer shutdown).
  void FailAll(const Status& status);

  size_t pending_count() const { return pending_.size(); }

  PeerId self() const { return self_; }
  Transport* transport() { return transport_; }

 private:
  // One multi-reply entry: its branch accounting and typed callback.
  struct MultiReply {
    virtual ~MultiReply() = default;
    // Decodes a wire reply and feeds it to HandleLocalReply.
    virtual bool OnWire(RpcManager* rpc, const Message& msg) = 0;

    std::unordered_map<uint64_t, bool> branches;  ///< Opened -> answered.
    size_t open = 0;  ///< Opened branches not answered yet.
  };
  template <typename ReplyT>
  struct TypedMultiReply final : MultiReply {
    bool OnWire(RpcManager* rpc, const Message& msg) override {
      auto reply = ReplyT::Decode(msg.payload);
      return reply.ok() && rpc->HandleLocalReply(msg.request_id, msg.hops,
                                                  *reply);
    }
    // Answers the open `reply.branch`, opens its children, then accepts
    // the held replies of those children.
    void Accept(uint32_t hops, const ReplyT& reply) {
      branches[reply.branch] = true;
      --open;
      for (uint64_t child : reply.children) {
        if (branches.try_emplace(child, false).second) ++open;
      }
      callback(Status::OK(), hops, &reply);
      for (uint64_t child : reply.children) {
        auto it = held.find(child);
        if (it == held.end()) continue;
        std::pair<uint32_t, ReplyT> early = std::move(it->second);
        held.erase(it);
        Accept(early.first, early.second);
      }
    }

    PartialCallback<ReplyT> callback;
    /// Replies that overtook their parent's, with their hops.
    std::unordered_map<uint64_t, std::pair<uint32_t, ReplyT>> held;
  };

  struct Pending {
    ReplyCallback callback;  ///< Multi-reply: fires on timeout/FailAll.
    std::shared_ptr<MultiReply> multi;  ///< Set on multi-reply entries.
    PeerId dst = kNoPeer;  ///< Known destination, for timeout attribution.
  };

  uint64_t Register(uint64_t id, sim::SimTime timeout,
                    ReplyCallback callback);
  void ArmTimeout(uint64_t request_id, sim::SimTime timeout);

  PeerId self_;
  Transport* transport_;
  uint64_t next_request_id_ = 1;
  uint64_t next_multi_id_ = uint64_t{1} << 63;
  uint64_t branches_minted_ = 0;
  std::unordered_map<uint64_t, Pending> pending_;
  PeerObserver observer_;
};

template <typename ReplyT>
uint64_t RpcManager::RegisterMultiReply(sim::SimTime timeout,
                                        PartialCallback<ReplyT> callback) {
  auto multi = std::make_shared<TypedMultiReply<ReplyT>>();
  multi->callback = std::move(callback);
  const uint64_t id = Register(
      next_multi_id_++, timeout,
      [multi](const Status& status, const Message&) {
        multi->callback(status, 0, nullptr);
      });
  multi->branches.emplace(id, false);  // The root branch.
  multi->open = 1;
  pending_.find(id)->second.multi = std::move(multi);
  return id;
}

template <typename ReplyT>
bool RpcManager::HandleLocalReply(uint64_t request_id, uint32_t hops,
                                  const ReplyT& reply) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return false;
  // Keeps the callback alive if it cancels or closes its own entry.
  auto multi = std::dynamic_pointer_cast<TypedMultiReply<ReplyT>>(
      it->second.multi);
  if (!multi) return false;
  auto branch = multi->branches.find(reply.branch);
  if (branch == multi->branches.end()) {
    return multi->held.try_emplace(reply.branch, hops, reply).second;
  }
  if (branch->second) return false;  // Answered already: a duplicate.
  multi->Accept(hops, reply);
  // Closed unless a branch is still open, or the callback already ended
  // the entry.
  if (multi->open == 0 && pending_.erase(request_id) > 0) {
    multi->callback(Status::OK(), 0, nullptr);
  }
  return true;
}

}  // namespace net
}  // namespace unistore

#endif  // UNISTORE_NET_RPC_H_
