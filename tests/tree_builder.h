// Test helper: build block trees by hand (no mining, no signatures) so
// fork-choice and difficulty tests can express scenarios like the paper's
// Fig. 2 directly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/check.h"
#include "ledger/blocktree.h"

namespace themis::test {

/// `prefix` followed by the decimal `i`, e.g. numbered("c", 3) == "c3".
/// (`"c" + std::to_string(i)` draws g++ 12 -Wrestrict false positives.)
inline std::string numbered(std::string_view prefix, std::uint64_t i) {
  return std::string(prefix).append(std::to_string(i));
}

class TreeBuilder {
 public:
  TreeBuilder() {
    names_["g"] = std::make_shared<const ledger::Block>(ledger::Block::genesis());
  }

  /// Add a block named `name` extending `parent_name` (insertion order is the
  /// local receipt order).  Timestamps default to 1 second per height.
  ledger::BlockPtr add(const std::string& name, const std::string& parent_name,
                       ledger::NodeId producer, double difficulty = 1.0,
                       std::int64_t timestamp_nanos = -1,
                       std::vector<ledger::Transaction> txs = {}) {
    auto block = make(name, parent_name, producer, difficulty, timestamp_nanos,
                      std::move(txs));
    const auto result = tree_.insert(block);
    expects(result == ledger::BlockTree::InsertResult::inserted,
            "test block failed to insert");
    return block;
  }

  /// Build a block named `name` WITHOUT inserting it, so tests can replay
  /// arbitrary (out-of-order, orphaning) arrival sequences via insert().
  /// The parent only needs to be built, not inserted.
  ledger::BlockPtr make(const std::string& name, const std::string& parent_name,
                        ledger::NodeId producer, double difficulty = 1.0,
                        std::int64_t timestamp_nanos = -1,
                        std::vector<ledger::Transaction> txs = {}) {
    const ledger::BlockPtr parent = get(parent_name);
    ledger::BlockHeader h;
    h.height = parent->height() + 1;
    h.prev = parent->id();
    h.producer = producer;
    h.difficulty = difficulty;
    h.nonce = next_nonce_++;
    h.timestamp_nanos = timestamp_nanos >= 0
                            ? timestamp_nanos
                            : static_cast<std::int64_t>(h.height) * 1'000'000'000;
    h.tx_count = static_cast<std::uint32_t>(txs.size());
    auto block = std::make_shared<const ledger::Block>(h, crypto::Signature{},
                                                       std::move(txs));
    expects(!names_.contains(name), "duplicate block name");
    names_[name] = block;
    return block;
  }

  /// Insert a previously make()-built block (receipt order = insertion
  /// order; the tree may buffer it as an orphan).
  ledger::BlockTree::InsertResult insert(const std::string& name) {
    return tree_.insert(get(name));
  }

  ledger::BlockPtr get(const std::string& name) const {
    const auto it = names_.find(name);
    expects(it != names_.end(), "unknown block name");
    return it->second;
  }

  ledger::BlockHash hash(const std::string& name) const { return get(name)->id(); }

  ledger::BlockTree& tree() { return tree_; }
  const ledger::BlockTree& tree() const { return tree_; }

 private:
  ledger::BlockTree tree_;
  std::map<std::string, ledger::BlockPtr> names_;
  std::uint64_t next_nonce_ = 1;
};

}  // namespace themis::test
