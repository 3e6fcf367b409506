#include "state/authstate/snapshot.h"

#include <algorithm>
#include <fstream>
#include <system_error>
#include <thread>

#include "common/serialize.h"
#include "crypto/sha256.h"

namespace themis::state::authstate {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x504e5354;  // "TSNP"

/// The snapshot the payload (everything before the checksum) describes, or
/// nullopt when a record is malformed or the accounts do not reproduce the
/// claimed root.
std::optional<Snapshot> decode_payload(ByteSpan payload) {
  try {
    Reader r(payload);
    if (r.u32() != kSnapshotMagic) return std::nullopt;
    if (r.u32() != kSnapshotVersion) return std::nullopt;
    Snapshot snap;
    snap.height = r.u64();
    snap.block = r.hash();
    snap.state_root = r.hash();
    const std::uint64_t count = r.varint();
    std::optional<ledger::NodeId> prev;
    for (std::uint64_t i = 0; i < count; ++i) {
      const ledger::NodeId id = r.u32();
      if (id >= kMaxAccounts) return std::nullopt;
      if (prev.has_value() && id <= *prev) return std::nullopt;
      prev = id;
      Account account;
      const std::uint64_t lo = r.u64();
      const std::uint64_t hi = r.u64();
      account.balance = UInt128(hi, lo);
      account.next_nonce = r.u64();
      if (account == Account{}) return std::nullopt;
      snap.state.put_back(id, account);
    }
    r.expect_done();
    // A checksum guards against disk rot; recomputing the Merkle root also
    // guards against a syntactically valid snapshot claiming a state it does
    // not contain.
    snap.roots.rebuild(snap.state);
    if (snap.roots.root() != snap.state_root) return std::nullopt;
    return snap;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace

Bytes encode_snapshot(const Snapshot& snapshot) {
  const std::size_t live = snapshot.state.live_accounts();
  Writer w(64 + live * 28);
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u64(snapshot.height);
  w.hash(snapshot.block);
  w.hash(state_root_of(snapshot.state));
  w.varint(live);
  snapshot.state.for_each_account(
      [&w](ledger::NodeId id, const Account& account) {
        w.u32(id);
        w.u64(account.balance.lo());
        w.u64(account.balance.hi());
        w.u64(account.next_nonce);
      });
  const Hash32 checksum = crypto::sha256d(w.buffer());
  w.hash(checksum);
  return w.take();
}

bool write_snapshot(const std::filesystem::path& path,
                    const Snapshot& snapshot) {
  const Bytes data = encode_snapshot(snapshot);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out.good()) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

std::optional<Snapshot> decode_snapshot(ByteSpan data) {
  if (data.size() < 32) return std::nullopt;
  const ByteSpan payload(data.data(), data.size() - 32);
  const ByteSpan trailer(data.data() + payload.size(), 32);
  // The checksum is one sequential pass over the payload: it runs on its own
  // thread beside the decode and the root check, and the snapshot counts
  // only when both pass.  The jthread joins on every way out of this block.
  bool checksum_ok = false;
  std::optional<Snapshot> snap;
  {
    const std::jthread checksum([&] {
      const Hash32 expected = crypto::sha256d(payload);
      checksum_ok =
          std::equal(trailer.begin(), trailer.end(), expected.begin());
    });
    snap = decode_payload(payload);
  }
  if (!checksum_ok) return std::nullopt;
  return snap;
}

std::optional<Snapshot> read_snapshot(const std::filesystem::path& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  Bytes data(size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (!in.good() && size > 0) return std::nullopt;
  return decode_snapshot(data);
}

}  // namespace themis::state::authstate
