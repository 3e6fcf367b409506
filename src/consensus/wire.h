// Message type discriminators shared by the consensus and PBFT layers.
#pragma once

#include <cstdint>

namespace themis::consensus {

enum MessageType : std::uint32_t {
  kBlockAnnounce = 1,   // gossip flood of a freshly mined block
  kCkptVote = 2,        // gossip flood of a checkpoint finality vote
  kPbftRequest = 10,    // client request batch to the current leader
  kPbftPrePrepare = 11,
  kPbftPrepare = 12,
  kPbftCommit = 13,
  kPbftViewChange = 14,
  kPbftNewView = 15,

  // Real-network p2p frame types (src/p2p).  Kept in the same enum so the
  // simulated and socket transports can never collide on a discriminator.
  kP2pHandshake = 100,  // version + genesis exchange; must be the first frame
  kP2pPing = 101,       // liveness probe (nonce echoed by kP2pPong)
  kP2pPong = 102,
  kP2pInv = 103,        // block-hash inventory announcement
  kP2pGetData = 104,    // request full blocks for inventory hashes
  kP2pBlock = 105,      // one full canonical block encoding
  kP2pGetBlocks = 106,  // chain sync: locator -> range request
  kP2pBlocks = 107,     // chain sync: batched range response
  kP2pTxInv = 108,      // transaction-id inventory announcement
  kP2pGetTxData = 109,  // request full transactions for inventory ids
  // 110: retired single-transaction frame (kP2pTxBatch serves every request).
  kP2pTxBatch = 111,    // signed transactions in one frame, so the receiver
                        // can batch-verify admission in one pass
  kP2pCkptVote = 112,   // one signed checkpoint finality vote (gossiped with
                        // the same per-peer known-inventory suppression)
};

}  // namespace themis::consensus
