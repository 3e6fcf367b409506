#include "consensus/node.h"

#include <string>

#include "common/check.h"
#include "consensus/wire.h"

namespace themis::consensus {

using ledger::Block;
using ledger::BlockHash;
using ledger::BlockPtr;

namespace {

ChainCoreConfig core_config(const NodeConfig& config) {
  ChainCoreConfig core;
  core.id = config.id;
  core.n_nodes = config.n_nodes;
  core.finality_depth = config.finality_depth;
  core.use_signatures = config.use_signatures;
  core.checkpoint_interval = config.checkpoint_interval;
  return core;
}

}  // namespace

PowNode::PowNode(net::Simulation& sim, net::GossipNetwork& network,
                 NodeConfig config, std::shared_ptr<ForkChoiceRule> rule,
                 std::shared_ptr<DifficultyPolicy> policy,
                 std::shared_ptr<const KeyRegistry> registry)
    : sim_(sim),
      network_(network),
      config_(config),
      core_(core_config(config), std::move(rule), std::move(policy),
            std::move(registry)),
      rng_(config.rng_seed) {
  expects(config_.n_nodes >= 2, "consensus needs at least two nodes");
  expects(config_.id < config_.n_nodes, "node id out of range");

  obs_ = sim_.obs();
  if (obs_ != nullptr) {
    prof_mine_ = &obs_->profiler.scope("consensus.mine_block");
    prof_accept_ = &obs_->profiler.scope("consensus.accept_block");
    core_.set_profile(&obs_->profiler.scope("consensus.update_head"));
  }
}

void PowNode::start() {
  expects(!started_, "node already started");
  started_ = true;
  network_.set_handler(config_.id,
                       [this](net::PeerId, const net::Message& msg) { on_message(msg); });
  restart_mining();
}

void PowNode::stop() {
  if (mining_event_ != 0) {
    sim_.cancel(mining_event_);
    mining_event_ = 0;
  }
  ++mining_generation_;
}

void PowNode::restart_mining() {
  if (!started_) return;
  if (mining_event_ != 0) sim_.cancel(mining_event_);
  const std::uint64_t generation = ++mining_generation_;
  const double difficulty =
      core_.policy().difficulty_for(tree(), head(), config_.id);
  const SimTime wait =
      SimMiner::sample_block_time(rng_, config_.hash_rate, difficulty);
  mining_event_ = sim_.schedule_after(
      wait, [this, generation] { on_block_found(generation); });
}

void PowNode::on_block_found(std::uint64_t generation) {
  if (generation != mining_generation_) return;  // stale draw
  mining_event_ = 0;
  obs::ProfileScope profile(prof_mine_);

  ledger::BlockHeader header;
  header.height = head_height() + 1;
  header.prev = head();
  header.producer = config_.id;
  header.epoch = core_.policy().epoch_for(tree(), head());
  header.difficulty = core_.policy().difficulty_for(tree(), head(), config_.id);
  header.timestamp_nanos = sim_.now().count_nanos();
  header.nonce = rng_.next_u64();
  // Simulated blocks carry no bodies: the declared count sizes them on the
  // wire (see BlockHeader::tx_count).
  header.tx_count = config_.txs_per_block;

  crypto::Signature signature{};
  if (keypair().has_value()) signature = keypair()->sign(header.hash());

  auto block = std::make_shared<const Block>(
      header, signature, std::vector<ledger::Transaction>{});
  ++blocks_produced_;

  if (obs_ != nullptr && obs_->tracer.enabled()) {
    obs_->tracer.emit(
        sim_.now(), "block_mined",
        {obs::Field::u64("node", config_.id),
         obs::Field::str("hash", short_hex(block->id())),
         obs::Field::u64("height", header.height),
         obs::Field::u64("epoch", header.epoch),
         obs::Field::f64("diff", header.difficulty),
         obs::Field::boolean("suppressed", suppressed_)});
  }

  if (suppressed_) {
    // §VII-A vulnerable node: elected producer, but the attack keeps its
    // block out of the network.  The node loses this round's work and keeps
    // mining on the unchanged head.
    ++blocks_suppressed_;
    restart_mining();
    return;
  }

  {
    obs::ProfileScope accept_profile(prof_accept_);
    react(core_.add_own_block(block));
  }
  network_.broadcast(config_.id, kBlockAnnounce, announce_size(*block), block);
  // react() already restarted mining via the head change; if our own block
  // somehow lost the fork choice, make sure mining still continues.
  if (mining_event_ == 0) restart_mining();
}

std::size_t PowNode::announce_size(const ledger::Block& block) const {
  if (config_.announce_bytes_per_tx < 0) return block.size_bytes();
  const double compact =
      192.0 + config_.announce_bytes_per_tx * block.header().tx_count;
  return static_cast<std::size_t>(compact);
}

void PowNode::on_message(const net::Message& msg) {
  if (msg.type == kBlockAnnounce) {
    const auto* block = std::any_cast<BlockPtr>(&msg.payload);
    if (block != nullptr && *block != nullptr) handle_block(*block);
  } else if (msg.type == kCkptVote && core_.checkpoints() != nullptr) {
    const auto* vote = std::any_cast<finality::CheckpointVote>(&msg.payload);
    if (vote != nullptr) react(core_.add_vote(*vote));
  }
}

void PowNode::handle_block(BlockPtr block) {
  if (tree().contains(block->id())) return;

  if (obs_ != nullptr && obs_->tracer.enabled()) {
    obs_->tracer.emit(sim_.now(), "block_received",
                      {obs::Field::u64("node", config_.id),
                       obs::Field::str("hash", short_hex(block->id())),
                       obs::Field::u64("height", block->header().height),
                       obs::Field::u64("producer", block->header().producer)});
  }
  obs::ProfileScope profile(prof_accept_);
  react(core_.add_block(std::move(block)));
}

void PowNode::react(const ChainCore::Effects& fx) {
  blocks_rejected_ += fx.rejected.size();
  if (fx.reorg) {
    ++reorgs_;
    if (obs_ != nullptr) {
      // One counter per exact depth; reorgs are rare, so the registry's
      // find-or-create lookup is paid per reorg instead of being cached.
      if (fx.reorg_depth > 0) {
        obs_->registry
            .counter("themis_sim_reorgs_total{depth=\"" +
                         std::to_string(fx.reorg_depth) + "\"}",
                     "Simulated head moves that abandoned `depth` blocks, "
                     "summed over nodes.")
            .inc();
      }
      if (obs_->tracer.enabled()) {
        obs_->tracer.emit(sim_.now(), "reorg",
                          {obs::Field::u64("node", config_.id),
                           obs::Field::u64("depth", fx.reorg_depth),
                           obs::Field::str("new_head", short_hex(head())),
                           obs::Field::u64("height", head_height())});
      }
    }
  }
  if (fx.head_changed) {
    if (obs_ != nullptr && obs_->tracer.enabled()) {
      obs_->tracer.emit(sim_.now(), "block_adopted",
                        {obs::Field::u64("node", config_.id),
                         obs::Field::str("hash", short_hex(head())),
                         obs::Field::u64("height", head_height()),
                         obs::Field::boolean("reorg", fx.reorg)});
    }
    restart_mining();
  }
  for (const finality::CheckpointVote& vote : fx.votes) {
    ++votes_sent_;
    network_.broadcast(config_.id, kCkptVote,
                       finality::CheckpointVote::kEncodedSize, vote);
  }
  if (listener_ && (fx.head_changed || !fx.finalized.empty())) {
    listener_(*this, fx);
  }
}

}  // namespace themis::consensus
