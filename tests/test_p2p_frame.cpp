// Wire-frame robustness: the FrameDecoder and message codecs must survive
// arbitrary input splits, truncation, corruption and hostile length prefixes
// by throwing (-> connection close), never by crashing or over-allocating.
// The socket-level tests at the bottom drive a live PeerManager with garbage
// and mismatched handshakes and assert the connection dies cleanly.
#include "p2p/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/serialize.h"
#include "consensus/miner.h"
#include "consensus/wire.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "finality/checkpoint.h"
#include "ledger/block.h"
#include "ledger/transaction.h"
#include "obs/live/prometheus.h"
#include "p2p/messages.h"
#include "p2p/node.h"
#include "p2p/peer_manager.h"
#include "p2p/socket.h"
#include "state/transfer.h"

namespace themis::p2p {
namespace {

Bytes bytes_of(std::initializer_list<int> values) {
  Bytes out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

Bytes pattern_payload(std::size_t n) {
  Bytes payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return payload;
}

// --- framing ---------------------------------------------------------------

TEST(FrameCodec, RoundTripsEmptyAndLargePayloads) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{1000},
                              std::size_t{100000}}) {
    const Bytes payload = pattern_payload(n);
    const Bytes wire = encode_frame(42, payload);
    EXPECT_EQ(wire.size(), n + kFrameOverhead);

    FrameDecoder decoder;
    decoder.feed(wire);
    const auto frame = decoder.poll();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, 42u);
    EXPECT_EQ(frame->payload, payload);
    EXPECT_FALSE(decoder.poll().has_value());
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameCodec, DecodesAcrossArbitrarySplits) {
  const Bytes payload = pattern_payload(301);
  const Bytes wire = encode_frame(7, payload);

  // Byte-at-a-time: a frame must appear exactly once, at the last byte.
  FrameDecoder decoder;
  std::size_t frames = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    decoder.feed(ByteSpan(&wire[i], 1));
    while (decoder.poll().has_value()) ++frames;
    if (i + 1 < wire.size()) {
      EXPECT_EQ(frames, 0u);
    }
  }
  EXPECT_EQ(frames, 1u);
}

TEST(FrameCodec, DecodesBackToBackFramesFromOneFeed) {
  Bytes wire = encode_frame(1, pattern_payload(10));
  const Bytes second = encode_frame(2, pattern_payload(20));
  wire.insert(wire.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.feed(wire);
  const auto a = decoder.poll();
  const auto b = decoder.poll();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->type, 1u);
  EXPECT_EQ(b->type, 2u);
  EXPECT_FALSE(decoder.poll().has_value());
}

TEST(FrameCodec, TruncatedFrameStaysPending) {
  const Bytes wire = encode_frame(9, pattern_payload(64));
  FrameDecoder decoder;
  decoder.feed(ByteSpan(wire.data(), wire.size() - 1));
  EXPECT_FALSE(decoder.poll().has_value());  // not an error: just incomplete
  EXPECT_EQ(decoder.buffered(), wire.size() - 1);
}

TEST(FrameCodec, BadMagicThrowsAndPoisons) {
  Bytes wire = encode_frame(9, pattern_payload(8));
  wire[0] ^= 0xff;
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.poll(), FrameError);
  // Poisoned: even fresh valid bytes must keep throwing.
  decoder.feed(encode_frame(1, {}));
  EXPECT_THROW(decoder.poll(), FrameError);
}

TEST(FrameCodec, CorruptedChecksumThrows) {
  Bytes wire = encode_frame(9, pattern_payload(32));
  wire.back() ^= 0x01;
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.poll(), FrameError);
}

TEST(FrameCodec, CorruptedPayloadFailsChecksum) {
  Bytes wire = encode_frame(9, pattern_payload(32));
  wire[12 + 5] ^= 0x40;  // flip a payload bit, leave the checksum alone
  FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_THROW(decoder.poll(), FrameError);
}

TEST(FrameCodec, OversizedLengthPrefixRejectedBeforeBuffering) {
  // Hand-build a header claiming a payload just over the cap.  The decoder
  // must throw from the 12 header bytes alone — it never waits for (or
  // allocates) the claimed 4 MiB + 1.
  Writer w;
  w.u32(kFrameMagic);
  w.u32(1);
  w.u32(kMaxFramePayload + 1);
  FrameDecoder decoder;
  decoder.feed(w.buffer());
  EXPECT_THROW(decoder.poll(), FrameError);
}

TEST(FrameCodec, MaxSizePayloadIsAccepted) {
  const Bytes payload = pattern_payload(kMaxFramePayload);
  FrameDecoder decoder;
  decoder.feed(encode_frame(3, payload));
  const auto frame = decoder.poll();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), kMaxFramePayload);
}

// --- message payloads ------------------------------------------------------

TEST(Messages, HandshakeRoundTrips) {
  HandshakeMsg m;
  m.genesis.fill(0xab);
  m.node_id = 7;
  m.listen_port = 9101;
  m.head_height = 42;
  m.agent = "themis-noded/test";
  EXPECT_EQ(HandshakeMsg::decode(m.encode()), m);
}

TEST(Messages, HandshakeRejectsTruncationAndTrailingGarbage) {
  const Bytes wire = HandshakeMsg{}.encode();
  EXPECT_THROW(
      HandshakeMsg::decode(ByteSpan(wire.data(), wire.size() - 1)),
      DecodeError);
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_THROW(HandshakeMsg::decode(padded), DecodeError);
}

TEST(Messages, CheckHandshakeDistinguishesMismatches) {
  HandshakeMsg m;
  m.genesis.fill(3);
  ledger::BlockHash genesis{};
  genesis.fill(3);
  EXPECT_EQ(check_handshake(m, kNetworkMagic, kProtocolVersion, genesis),
            HandshakeReject::ok);
  m.network ^= 1;
  EXPECT_EQ(check_handshake(m, kNetworkMagic, kProtocolVersion, genesis),
            HandshakeReject::wrong_network);
  m.network = kNetworkMagic;
  m.version += 1;
  EXPECT_EQ(check_handshake(m, kNetworkMagic, kProtocolVersion, genesis),
            HandshakeReject::wrong_version);
  m.version = kProtocolVersion;
  m.genesis.fill(4);
  EXPECT_EQ(check_handshake(m, kNetworkMagic, kProtocolVersion, genesis),
            HandshakeReject::wrong_genesis);
}

TEST(Messages, InvRoundTripsAndBoundsCount) {
  InvMsg m;
  for (int i = 0; i < 5; ++i) {
    ledger::BlockHash h{};
    h.fill(static_cast<std::uint8_t>(i));
    m.hashes.push_back(h);
  }
  EXPECT_EQ(InvMsg::decode(m.encode()).hashes, m.hashes);

  // A hostile count well past kMaxInvHashes must throw before any reads.
  Writer w;
  w.varint(std::uint64_t{1} << 40);
  EXPECT_THROW(InvMsg::decode(w.buffer()), DecodeError);
}

TEST(Messages, GetBlocksAndBlocksRoundTrip) {
  GetBlocksMsg req;
  ledger::BlockHash h{};
  h.fill(9);
  req.locator = {h};
  req.max_blocks = 77;
  const GetBlocksMsg back = GetBlocksMsg::decode(req.encode());
  EXPECT_EQ(back.locator, req.locator);
  EXPECT_EQ(back.max_blocks, 77u);

  BlocksMsg blocks;
  blocks.blocks.push_back(bytes_of({1, 2, 3}));
  blocks.blocks.push_back(bytes_of({}));
  EXPECT_EQ(BlocksMsg::decode(blocks.encode()).blocks, blocks.blocks);

  Writer hostile;
  hostile.varint(kMaxSyncBlocks + 1);
  EXPECT_THROW(BlocksMsg::decode(hostile.buffer()), DecodeError);
}

TEST(Messages, CkptVoteRoundTripsAndRejectsTruncation) {
  finality::CheckpointVote vote;
  vote.height = 32;
  vote.block.fill(0x5c);
  vote.epoch = 2;
  vote.voter = 1;
  vote.signature = crypto::Keypair::from_node_id(1).sign(vote.digest());
  const CkptVoteMsg msg{vote};
  const Bytes wire = msg.encode();
  EXPECT_EQ(CkptVoteMsg::decode(wire).vote, vote);

  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_THROW(CkptVoteMsg::decode(truncated), DecodeError);
  Bytes trailing = wire;
  trailing.push_back(0x00);
  EXPECT_THROW(CkptVoteMsg::decode(trailing), DecodeError);
}

// --- live-socket robustness ------------------------------------------------

class LivePeerManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PeerManagerConfig config;
    config.listen_port = 0;
    config.handshake.genesis.fill(0x11);
    config.handshake.node_id = 0;
    manager_ = std::make_unique<PeerManager>(std::move(config));
    manager_->set_frame_handler([](Peer&, std::uint32_t, ByteSpan) {});
    ASSERT_TRUE(manager_->start());
  }
  void TearDown() override { manager_->stop(); }

  TcpSocket dial() {
    TcpSocket s = TcpSocket::connect("127.0.0.1", manager_->listen_port(), 2000);
    EXPECT_TRUE(s.valid());
    s.set_timeouts(2000, 2000);
    return s;
  }

  /// Drain until orderly close (0) or hard error; false on timeout.
  bool closed_by_remote(TcpSocket& s) {
    std::uint8_t buf[4096];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const int n = s.recv_some(buf, sizeof(buf));
      if (n == 0 || n == -2) return true;
    }
    return false;
  }

  std::unique_ptr<PeerManager> manager_;
};

TEST_F(LivePeerManagerTest, GarbageBytesCloseTheConnection) {
  TcpSocket s = dial();
  Bytes garbage(512);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(i * 37 + 1);
  }
  ASSERT_TRUE(s.send_all(garbage));
  EXPECT_TRUE(closed_by_remote(s));
  EXPECT_GE(manager_->stats().protocol_errors, 1u);
  EXPECT_EQ(manager_->ready_peer_count(), 0u);
}

TEST_F(LivePeerManagerTest, OversizedLengthPrefixClosesTheConnection) {
  TcpSocket s = dial();
  Writer w;
  w.u32(kFrameMagic);
  w.u32(consensus::kP2pPing);
  w.u32(kMaxFramePayload + 1);
  ASSERT_TRUE(s.send_all(w.buffer()));
  EXPECT_TRUE(closed_by_remote(s));
  EXPECT_GE(manager_->stats().protocol_errors, 1u);
}

TEST_F(LivePeerManagerTest, WrongGenesisHandshakeIsRejected) {
  TcpSocket s = dial();
  HandshakeMsg hello;
  hello.genesis.fill(0x22);  // manager expects 0x11
  ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pHandshake, hello.encode())));
  EXPECT_TRUE(closed_by_remote(s));
  EXPECT_GE(manager_->stats().handshakes_rejected, 1u);
  EXPECT_EQ(manager_->ready_peer_count(), 0u);
}

TEST_F(LivePeerManagerTest, WrongVersionHandshakeIsRejected) {
  TcpSocket s = dial();
  HandshakeMsg hello;
  hello.genesis.fill(0x11);
  hello.version = kProtocolVersion + 1;
  ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pHandshake, hello.encode())));
  EXPECT_TRUE(closed_by_remote(s));
  EXPECT_GE(manager_->stats().handshakes_rejected, 1u);
}

TEST_F(LivePeerManagerTest, NonHandshakeFirstFrameIsAProtocolError) {
  TcpSocket s = dial();
  ASSERT_TRUE(
      s.send_all(encode_frame(consensus::kP2pPing, PingMsg{7}.encode())));
  EXPECT_TRUE(closed_by_remote(s));
  EXPECT_GE(manager_->stats().protocol_errors, 1u);
}

TEST_F(LivePeerManagerTest, ValidHandshakeThenPingGetsPong) {
  TcpSocket s = dial();
  HandshakeMsg hello;
  hello.genesis.fill(0x11);
  hello.node_id = 5;
  ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pHandshake, hello.encode())));
  ASSERT_TRUE(
      s.send_all(encode_frame(consensus::kP2pPing, PingMsg{99}.encode())));

  // Expect the manager's own handshake followed by our pong.
  FrameDecoder decoder;
  std::uint8_t buf[4096];
  bool got_handshake = false;
  bool got_pong = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_pong && std::chrono::steady_clock::now() < deadline) {
    const int n = s.recv_some(buf, sizeof(buf));
    if (n == 0 || n == -2) break;
    if (n < 0) continue;
    decoder.feed(ByteSpan(buf, static_cast<std::size_t>(n)));
    while (const auto frame = decoder.poll()) {
      if (frame->type == consensus::kP2pHandshake) {
        const auto theirs = HandshakeMsg::decode(frame->payload);
        EXPECT_EQ(theirs.genesis, hello.genesis);
        got_handshake = true;
      } else if (frame->type == consensus::kP2pPong) {
        EXPECT_EQ(PingMsg::decode(frame->payload).nonce, 99u);
        got_pong = true;
      }
    }
  }
  EXPECT_TRUE(got_handshake);
  EXPECT_TRUE(got_pong);
  EXPECT_EQ(manager_->ready_peer_count(), 1u);
}

// --- transaction-message robustness against a live node ----------------------
//
// Same hostile-client drill as above, but against a full P2pNode so the tx
// handlers (kP2pTxBatch / kP2pTxInv / kP2pGetTxData) are on the receiving end.

class LiveNodeTxWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P2pNodeConfig config;
    config.id = 0;
    config.n_nodes = 4;
    config.mine = false;  // keep the chain at genesis: deterministic nonces
    config.listen_port = 0;
    node_ = std::make_unique<P2pNode>(config);
    ASSERT_TRUE(node_->start());
  }
  void TearDown() override { node_->stop(); }

  /// Dial the node and complete a valid handshake (a real P2pNode checks the
  /// real genesis id, unlike the bare PeerManager fixture above).
  TcpSocket dial_and_handshake() {
    TcpSocket s = TcpSocket::connect("127.0.0.1", node_->listen_port(), 2000);
    EXPECT_TRUE(s.valid());
    s.set_timeouts(2000, 2000);
    HandshakeMsg hello;
    hello.genesis = ledger::Block::genesis().id();
    hello.node_id = 3;
    EXPECT_TRUE(
        s.send_all(encode_frame(consensus::kP2pHandshake, hello.encode())));
    return s;
  }

  bool closed_by_remote(TcpSocket& s) {
    std::uint8_t buf[4096];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const int n = s.recv_some(buf, sizeof(buf));
      if (n == 0 || n == -2) return true;
    }
    return false;
  }

  bool wait_until(const std::function<bool()>& done, int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return done();
  }

  /// A kP2pTxBatch frame carrying the one encoded transaction `raw`.
  static Bytes tx_frame(Bytes raw) {
    TxBatchMsg batch;
    batch.txs.push_back(std::move(raw));
    return encode_frame(consensus::kP2pTxBatch, batch.encode());
  }

  static ledger::SignedTransaction signed_transfer(ledger::NodeId from,
                                                   std::uint64_t nonce) {
    return ledger::sign_transaction(
        state::make_transfer_tx(from, nonce, 0, state::Transfer{2, 1, {}}));
  }

  /// Read and discard whatever the node sends for about `ms` (keeps its
  /// writes to this raw peer from backing up).
  static void drain(TcpSocket& s, int ms) {
    std::uint8_t buf[65536];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (s.recv_some(buf, sizeof(buf)) == 0) return;
    }
  }

  /// A block on `parent` by consortium member 1, signed with its key.  With
  /// `mine` the nonce is ground to the node's default difficulty (a valid
  /// block); without, the header claims difficulty 1 — wrong for the node's
  /// table, so validation rejects it before the proof-of-work check.
  static ledger::BlockPtr member_block(const ledger::Block& parent, bool mine) {
    ledger::BlockHeader h;
    h.height = parent.height() + 1;
    h.prev = parent.id();
    h.producer = 1;
    h.merkle_root = crypto::merkle_root({});
    h.difficulty = mine ? P2pNodeConfig{}.difficulty : 1.0;
    if (mine) {
      for (std::uint64_t start = 0;; start += 1 << 16) {
        if (auto solved = consensus::RealMiner::mine(h, start, 1 << 16)) {
          h = *solved;
          break;
        }
      }
    }
    return std::make_shared<const ledger::Block>(
        h, crypto::Keypair::from_node_id(1).sign(h.hash()),
        std::vector<ledger::Transaction>{});
  }

  std::unique_ptr<P2pNode> node_;
};

TEST_F(LiveNodeTxWireTest, HostileBlockTxCountClosesConnectionNodeSurvives) {
  TcpSocket s = dial_and_handshake();
  // A 180-byte block frame declaring 2^32 - 1 transactions and carrying
  // none: a decode error (connection closed), never an allocation.
  Bytes raw = ledger::Block::genesis().encode();
  ASSERT_EQ(raw.size(), 180u);
  std::fill(raw.end() - 4, raw.end(), 0xFF);
  ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pBlock, raw)));
  EXPECT_TRUE(closed_by_remote(s));

  // The node kept serving: a fresh connection still moves traffic.
  TcpSocket again = dial_and_handshake();
  ASSERT_TRUE(again.send_all(
      tx_frame(signed_transfer(1, 1).encode())));
  EXPECT_TRUE(wait_until([this] { return node_->pool_depth() == 1; }));
}

TEST_F(LiveNodeTxWireTest, BogusInvsAgeOutOfTheRequestTable) {
  TcpSocket s = dial_and_handshake();
  s.set_timeouts(2000, 20);  // drain() polls; the whole test stays well
                             // inside the node's 10 s pong timeout
  // Announce 10 x kMaxInvHashes ids nobody will ever serve.
  std::uint64_t serial = 0;
  const auto bogus_inv = [&serial](std::size_t n) {
    InvMsg inv;
    for (std::size_t i = 0; i < n; ++i) {
      Writer w;
      w.u64(++serial);
      inv.hashes.push_back(crypto::sha256(w.buffer()));
    }
    return inv;
  };
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pInv,
                                        bogus_inv(kMaxInvHashes).encode())));
    drain(s, 20);
  }
  EXPECT_TRUE(wait_until([&] {
    drain(s, 10);
    return node_->chain_stats().requests_in_flight == 10 * kMaxInvHashes;
  }));

  // Past the retry window the next announcement sweeps the stale entries.
  drain(s, static_cast<int>(kRequestRetryMs) + 200);
  ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pTxInv,
                                      bogus_inv(1).encode())));
  EXPECT_TRUE(wait_until([&] {
    drain(s, 10);
    return node_->chain_stats().requests_in_flight == 1;
  }));
}

TEST_F(LiveNodeTxWireTest, RejectedOrphanCountedOnceInBothCounters) {
  const ledger::BlockPtr parent =
      member_block(ledger::Block::genesis(), /*mine=*/true);
  const ledger::BlockPtr bad_child = member_block(*parent, /*mine=*/false);
  TcpSocket s = dial_and_handshake();
  // The invalid child arrives first and waits as an orphan; its parent
  // unblocks it, and validation rejects it exactly once.
  ASSERT_TRUE(s.send_all(
      encode_frame(consensus::kP2pBlock, bad_child->encode())));
  ASSERT_TRUE(
      s.send_all(encode_frame(consensus::kP2pBlock, parent->encode())));
  EXPECT_TRUE(wait_until([&] {
    drain(s, 10);
    return node_->contains(parent->id()) &&
           node_->chain_stats().blocks_rejected == 1;
  }));
  EXPECT_FALSE(node_->contains(bad_child->id()));
  EXPECT_EQ(node_->live_registry()
                .counter("themis_blocks_rejected_total", "")
                .get(),
            node_->chain_stats().blocks_rejected);
}

// The node's inventory, relay, sync and refused-reorg counts are registry
// counters: /metrics.prom carries them, and chain_stats() reads them back.
TEST_F(LiveNodeTxWireTest, RelayAndSyncCountsAreInTheExposition) {
  TcpSocket s = dial_and_handshake();
  s.set_timeouts(2000, 20);  // drain() polls
  const ledger::SignedTransaction stx = signed_transfer(1, 1);
  InvMsg inv;
  inv.hashes.push_back(stx.tx.id());
  ASSERT_TRUE(s.send_all(tx_frame(stx.encode())));
  ASSERT_TRUE(wait_until([&] {
    drain(s, 10);
    return node_->pool_depth() == 1;
  }));
  ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pTxInv, inv.encode())));
  ASSERT_TRUE(wait_until([&] {
    drain(s, 10);
    return node_->chain_stats().tx_invs_redundant == 1;
  }));

  const std::string text =
      obs::live::render_prometheus(node_->live_registry());
  for (const char* family :
       {"themis_block_invs_received_total", "themis_block_invs_redundant_total",
        "themis_sync_rounds_total", "themis_tx_relayed_total",
        "themis_reorgs_refused_finality_total"}) {
    EXPECT_NE(text.find("\n" + std::string(family) + " "), std::string::npos)
        << family;
  }
  for (const char* sample : {"themis_tx_invs_received_total 1",
                             "themis_tx_invs_redundant_total 1",
                             "themis_tx_received_total 1"}) {
    EXPECT_NE(text.find("\n" + std::string(sample) + "\n"), std::string::npos)
        << sample;
  }
}

TEST_F(LiveNodeTxWireTest, TruncatedTxFrameClosesConnectionNodeSurvives) {
  TcpSocket s = dial_and_handshake();
  // A batch element must be exactly kSignedTxSize bytes; feed it half.
  ASSERT_TRUE(s.send_all(tx_frame(Bytes(ledger::kSignedTxSize / 2, 0xab))));
  EXPECT_TRUE(closed_by_remote(s));
  EXPECT_EQ(node_->pool_depth(), 0u);

  // The node shrugged it off: a fresh well-behaved connection still works.
  TcpSocket again = dial_and_handshake();
  ASSERT_TRUE(again.send_all(
      tx_frame(signed_transfer(1, 1).encode())));
  EXPECT_TRUE(wait_until([this] { return node_->pool_depth() == 1; }));
}

TEST_F(LiveNodeTxWireTest, CorruptSignatureTxIsRejectedNotPooled) {
  TcpSocket s = dial_and_handshake();
  Bytes raw = signed_transfer(1, 1).encode();
  raw.back() ^= 0x01;  // flip one signature bit; decode still succeeds
  ASSERT_TRUE(s.send_all(tx_frame(raw)));
  // Rejection is silent (no close: the frame was well-formed); wait for the
  // admission path to count it.
  EXPECT_TRUE(wait_until(
      [this] { return node_->chain_stats().txs_rejected >= 1; }));
  EXPECT_EQ(node_->pool_depth(), 0u);
}

TEST_F(LiveNodeTxWireTest, ValidTxOverWireEntersPool) {
  TcpSocket s = dial_and_handshake();
  const ledger::SignedTransaction stx = signed_transfer(1, 1);
  ASSERT_TRUE(s.send_all(tx_frame(stx.encode())));
  ASSERT_TRUE(wait_until([this] { return node_->pool_depth() == 1; }));
  const auto status = node_->tx_status(stx.tx.id());
  EXPECT_EQ(status.state, P2pNode::TxStatusInfo::State::pending);
}

TEST_F(LiveNodeTxWireTest, TxInvTriggersGetTxData) {
  TcpSocket s = dial_and_handshake();
  const ledger::SignedTransaction stx = signed_transfer(1, 1);
  InvMsg inv;
  inv.hashes.push_back(stx.tx.id());
  ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pTxInv, inv.encode())));

  // The node wants the unknown tx: expect a kP2pGetTxData for its id.
  FrameDecoder decoder;
  std::uint8_t buf[4096];
  bool got_request = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_request && std::chrono::steady_clock::now() < deadline) {
    const int n = s.recv_some(buf, sizeof(buf));
    if (n == 0 || n == -2) break;
    if (n < 0) continue;
    decoder.feed(ByteSpan(buf, static_cast<std::size_t>(n)));
    while (const auto frame = decoder.poll()) {
      if (frame->type == consensus::kP2pGetTxData) {
        const InvMsg want = InvMsg::decode(frame->payload);
        ASSERT_EQ(want.hashes.size(), 1u);
        EXPECT_EQ(want.hashes[0], stx.tx.id());
        got_request = true;
      }
    }
  }
  EXPECT_TRUE(got_request);

  // Answer it; the tx must land in the pool.
  ASSERT_TRUE(s.send_all(tx_frame(stx.encode())));
  EXPECT_TRUE(wait_until([this] { return node_->pool_depth() == 1; }));
}

// A relayed batch's ids stay in the request table until admission settles
// them: a second peer announcing the same ids while the batch is still being
// verified is asked for none of them.
TEST_F(LiveNodeTxWireTest, IdsBeingVerifiedAreNotFetchedTwice) {
  // One full batch: 512 transfers from each of 4 senders, every nonce inside
  // the node's nonce window, so all of them pool.
  TxBatchMsg batch;
  InvMsg inv;
  for (ledger::NodeId sender = 0; sender < 4; ++sender) {
    for (std::uint64_t nonce = 1; nonce <= kMaxBatchTxs / 4; ++nonce) {
      const ledger::SignedTransaction stx = signed_transfer(sender, nonce);
      inv.hashes.push_back(stx.tx.id());
      batch.txs.push_back(stx.encode());
    }
  }

  TcpSocket a = dial_and_handshake();
  TcpSocket b = dial_and_handshake();
  a.set_timeouts(2000, 20);
  b.set_timeouts(2000, 20);
  // Count the ids of every kP2pGetTxData arriving on `s` until `done` holds.
  // The deadline only bounds a broken run: under a Debug sanitizer build,
  // verifying the 2,048 signatures alone takes tens of seconds.
  const auto requested_ids = [](TcpSocket& s,
                                const std::function<bool(std::size_t)>& done) {
    FrameDecoder decoder;
    std::uint8_t buf[65536];
    std::size_t ids = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(300);
    while (!done(ids) && std::chrono::steady_clock::now() < deadline) {
      const int n = s.recv_some(buf, sizeof(buf));
      if (n == 0 || n == -2) break;
      if (n < 0) continue;
      decoder.feed(ByteSpan(buf, static_cast<std::size_t>(n)));
      while (const auto frame = decoder.poll()) {
        if (frame->type == consensus::kP2pGetTxData) {
          ids += InvMsg::decode(frame->payload).hashes.size();
        }
      }
    }
    return ids;
  };

  // A announces, is asked for every id, and answers with the batch.
  ASSERT_TRUE(a.send_all(encode_frame(consensus::kP2pTxInv, inv.encode())));
  ASSERT_EQ(requested_ids(a, [&](std::size_t ids) {
              return ids == inv.hashes.size();
            }),
            inv.hashes.size());
  ASSERT_TRUE(a.send_all(encode_frame(consensus::kP2pTxBatch, batch.encode())));

  // Once the first chunks have pooled, the rest of the batch is still being
  // verified: B announces the same ids now.
  ASSERT_TRUE(wait_until([this] { return node_->pool_depth() > 0; }));
  ASSERT_TRUE(b.send_all(encode_frame(consensus::kP2pTxInv, inv.encode())));

  // Read B until the whole batch has pooled: it must never be asked.
  EXPECT_EQ(requested_ids(b, [&](std::size_t) {
              return node_->pool_depth() == inv.hashes.size();
            }),
            0u);
  EXPECT_EQ(node_->pool_depth(), inv.hashes.size());
}

TEST_F(LiveNodeTxWireTest, OversizedTxInvClosesConnection) {
  TcpSocket s = dial_and_handshake();
  InvMsg inv;
  inv.hashes.resize(kMaxInvHashes + 1);
  ASSERT_TRUE(s.send_all(encode_frame(consensus::kP2pTxInv, inv.encode())));
  EXPECT_TRUE(closed_by_remote(s));
  EXPECT_EQ(node_->pool_depth(), 0u);
}

TEST_F(LiveNodeTxWireTest, TruncatedCkptVoteFrameClosesConnectionNodeSurvives) {
  TcpSocket s = dial_and_handshake();
  // Ten garbage bytes cannot decode as a CheckpointVote: protocol error.
  ASSERT_TRUE(
      s.send_all(encode_frame(consensus::kP2pCkptVote, Bytes(10, 0xab))));
  EXPECT_TRUE(closed_by_remote(s));

  // The node shrugged it off: a fresh connection still moves traffic.
  TcpSocket again = dial_and_handshake();
  ASSERT_TRUE(again.send_all(
      tx_frame(signed_transfer(1, 1).encode())));
  EXPECT_TRUE(wait_until([this] { return node_->pool_depth() == 1; }));
}

TEST_F(LiveNodeTxWireTest, BadSignatureCkptVoteRejectedWithoutClose) {
  TcpSocket s = dial_and_handshake();
  finality::CheckpointVote vote;
  vote.height = 16;  // default checkpoint interval: a legal checkpoint height
  vote.block.fill(0x77);
  vote.epoch = 1;
  vote.voter = 2;
  vote.signature = crypto::Keypair::from_node_id(2).sign(vote.digest());
  vote.signature.s[0] ^= 0x01;  // well-formed frame, invalid signature
  ASSERT_TRUE(s.send_all(
      encode_frame(consensus::kP2pCkptVote, CkptVoteMsg{vote}.encode())));
  EXPECT_TRUE(wait_until(
      [this] { return node_->chain_stats().ckpt_votes_rejected >= 1; }));
  EXPECT_EQ(node_->chain_stats().ckpt_votes_accepted, 0u);

  // Rejection is silent — the same connection still delivers a valid tx.
  ASSERT_TRUE(s.send_all(
      tx_frame(signed_transfer(1, 1).encode())));
  EXPECT_TRUE(wait_until([this] { return node_->pool_depth() == 1; }));
}

}  // namespace
}  // namespace themis::p2p
