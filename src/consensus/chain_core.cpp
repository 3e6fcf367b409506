#include "consensus/chain_core.h"

#include <algorithm>

#include "common/check.h"

namespace themis::consensus {

using ledger::Block;
using ledger::BlockHash;
using ledger::BlockPtr;

ChainCore::ChainCore(ChainCoreConfig config,
                     std::shared_ptr<ForkChoiceRule> rule,
                     std::shared_ptr<DifficultyPolicy> policy,
                     std::shared_ptr<const KeyRegistry> registry)
    : config_(std::move(config)),
      rule_(std::move(rule)),
      policy_(std::move(policy)),
      registry_(std::move(registry)) {
  expects(rule_ != nullptr && policy_ != nullptr, "rule and policy required");
  expects(!config_.use_signatures || registry_ != nullptr,
          "signatures require a key registry");
  if (config_.use_signatures) {
    keypair_ = crypto::Keypair::from_node_id(config_.id);
  }

  validation_.check_signature = config_.use_signatures;
  validation_.check_pow = validation_.check_body = config_.check_work;
  if (registry_ != nullptr) {
    validation_.public_key = [this](ledger::NodeId id) {
      return registry_->lookup(id);
    };
  }
  validation_.expected_difficulty =
      [this](ledger::NodeId producer,
             const BlockHash& parent) -> std::optional<double> {
    if (!tree_.contains(parent)) return std::nullopt;
    return policy_->difficulty_for(tree_, parent, producer);
  };
  validation_.parent_height =
      [this](const BlockHash& parent) -> std::optional<std::uint64_t> {
    if (!tree_.contains(parent)) return std::nullopt;
    return tree_.height(parent);
  };

  if (config_.checkpoint_interval > 0) {
    // One vote per member, keyed by the registry (placeholder keys when
    // signatures are off and votes travel unsigned).
    std::vector<finality::Validator> members;
    for (std::size_t i = 0; i < config_.n_nodes; ++i) {
      const auto id = static_cast<ledger::NodeId>(i);
      crypto::PublicKey key{};
      if (registry_ != nullptr) key = registry_->lookup(id).value_or(key);
      members.push_back({id, key, 1});
    }
    finality::TrackerConfig tc;
    tc.interval = config_.checkpoint_interval;
    tc.verify_signatures = config_.use_signatures;
    auto backend = finality::make_backend(config_.finality_backend);
    expects(backend != nullptr, "unknown finality backend");
    ckpt_.emplace(tc, finality::ValidatorSet(std::move(members)),
                  std::move(backend));
  }
  tracker_.reset(tree_, *rule_, tree_.genesis_hash(), config_.finality_depth);
}

void ChainCore::reset(ledger::BlockTree tree) {
  tree_ = std::move(tree);
  tree_.set_body_loader(body_loader_);
  released_height_ = 0;
  orphans_.clear();
  orphan_age_.clear();
  parked_.clear();
  tracker_.reset(tree_, *rule_, tree_.genesis_hash(), config_.finality_depth);
}

void ChainCore::set_body_loader(ledger::BlockTree::BodyLoader loader) {
  body_loader_ = std::move(loader);
  tree_.set_body_loader(body_loader_);
}

void ChainCore::release_bodies(const BlockHash& checkpoint) {
  const std::uint64_t top = tree_.height(checkpoint);
  std::optional<BlockHash> cursor = checkpoint;
  for (std::uint64_t h = top; cursor.has_value() && h > released_height_;
       --h) {
    tree_.release_body(*cursor);
    cursor = tree_.parent(*cursor);
  }
  released_height_ = std::max(released_height_, top);
}

ChainCore::Effects ChainCore::add_block(BlockPtr block) {
  Effects fx;
  fx.old_head = head();
  if (tree_.contains(block->id())) {
    fx.duplicate = true;
  } else if (!tree_.contains(block->header().prev)) {
    // Validation waits for the parent: the difficulty check needs the full
    // parent chain.
    buffer_orphan(std::move(block), fx);
  } else if (!validate(*block)) {
    fx.rejected.push_back(std::move(block));
  } else {
    accept(std::move(block), fx);
  }
  return fx;
}

ChainCore::Effects ChainCore::add_own_block(BlockPtr block) {
  Effects fx;
  fx.old_head = head();
  accept(std::move(block), fx);
  return fx;
}

ChainCore::Effects ChainCore::add_vote(const finality::CheckpointVote& vote) {
  expects(ckpt_.has_value(), "checkpoint finality is off");
  Effects fx;
  fx.old_head = head();
  fx.vote = ckpt_->add_vote(vote);
  if (*fx.vote == finality::VoteOutcome::quorum) {
    ++fx.certificates;
    parked_.push_back(*ckpt_->certificate(vote.height));
    settle(fx);
  }
  return fx;
}

bool ChainCore::validate(const Block& block) const {
  return ledger::validate_block(block, validation_) == ledger::BlockCheck::ok &&
         (!body_check_ || body_check_(block));
}

void ChainCore::buffer_orphan(BlockPtr block, Effects& fx) {
  const BlockHash parent = block->header().prev;
  std::vector<Orphan>& waiting = orphans_[parent];
  for (const Orphan& w : waiting) {
    if (w.block->id() == block->id()) return;
  }
  waiting.push_back({orphan_seq_, std::move(block)});
  orphan_age_.emplace(orphan_seq_++, parent);
  fx.orphaned = true;
  if (orphan_age_.size() <= kMaxOrphans) return;
  const auto oldest = orphan_age_.begin();
  const auto it = orphans_.find(oldest->second);
  std::erase_if(it->second,
                [&](const Orphan& o) { return o.seq == oldest->first; });
  if (it->second.empty()) orphans_.erase(it);
  orphan_age_.erase(oldest);
}

void ChainCore::accept(BlockPtr block, Effects& fx) {
  // Everything inserted below descends from this first block, so the whole
  // batch forms one subtree — exactly what HeadTracker::on_insert needs.
  const BlockHash batch_root = block->id();
  const BlockHash batch_parent = block->header().prev;
  std::vector<BlockPtr> ready{std::move(block)};
  while (!ready.empty()) {
    BlockPtr cur = std::move(ready.back());
    ready.pop_back();
    tree_.insert(cur);
    const auto it = orphans_.find(cur->id());
    fx.inserted.push_back(std::move(cur));
    if (it == orphans_.end()) continue;
    std::vector<Orphan> waiting = std::move(it->second);
    orphans_.erase(it);
    for (Orphan& w : waiting) {
      orphan_age_.erase(w.seq);
      if (tree_.contains(w.block->id())) continue;
      if (validate(*w.block)) {
        ready.push_back(std::move(w.block));
      } else {
        fx.rejected.push_back(std::move(w.block));
      }
    }
  }
  {
    obs::ProfileScope update_profile(prof_update_head_);
    static_cast<HeadTracker::Update&>(fx) =
        tracker_.on_insert(tree_, *rule_, batch_root, batch_parent,
                           /*batch_is_leaf=*/fx.inserted.size() == 1);
  }
  settle(fx);
}

void ChainCore::settle(Effects& fx) {
  if (ckpt_.has_value()) {
    apply_parked(fx);
    if (fx.head_changed) cast_votes(fx);
  }
  // Fork-choice walks start at the anchor, so aggregate maintenance below
  // it is wasted work — let the tree freeze that prefix.
  if (fx.head_changed || !fx.finalized.empty()) {
    tree_.set_aggregate_floor(tracker_.anchor_height());
  }
}

void ChainCore::apply_parked(Effects& fx) {
  std::erase_if(parked_, [&](const finality::CheckpointCertificate& cert) {
    if (cert.height <= tracker_.finalized_height()) return true;  // superseded
    if (!tree_.contains(cert.block)) return false;
    // A certificate whose height disagrees with the tree would poison every
    // floor keyed off it (>2/3 honest weight rules it out; guard anyway).
    if (tree_.height(cert.block) != cert.height) return true;
    if (tracker_.set_finalized(tree_, *rule_, cert.block)) {
      // Hard finality outranked the local weight race.
      fx.head_changed = fx.reorg = fx.forced = true;
    }
    fx.finalized.push_back(cert);
    return true;
  });
}

void ChainCore::cast_votes(Effects& fx) {
  const std::uint64_t k = ckpt_->interval();
  // Highest checkpoint height covered by the preferred path.
  const std::uint64_t top = (tracker_.head_height() / k) * k;
  for (std::uint64_t h = (last_voted_ / k + 1) * k; h <= top; h += k) {
    last_voted_ = h;  // one vote per height, ever: never equivocate
    if (h <= ckpt_->finalized_height()) continue;
    const BlockHash* block = tracker_.path_block_at(h);
    if (block == nullptr) continue;  // below the anchor: unreachable
    finality::CheckpointVote vote{h, *block, ckpt_->epoch_of(h), config_.id,
                                  {}};
    if (keypair_.has_value()) vote.signature = keypair_->sign(vote.digest());
    const finality::VoteOutcome outcome = ckpt_->add_vote(vote);
    if (outcome != finality::VoteOutcome::accepted &&
        outcome != finality::VoteOutcome::quorum) {
      continue;
    }
    fx.votes.push_back(vote);
    if (outcome == finality::VoteOutcome::quorum) {
      // Our vote is for a block on the preferred path, so applying the
      // certificate can never force-switch the head here.
      ++fx.certificates;
      parked_.push_back(*ckpt_->certificate(h));
      apply_parked(fx);
    }
  }
}

}  // namespace themis::consensus
