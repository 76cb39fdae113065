// Snapshot-isolated concurrent serving: the MVCC catalog core that lets
// many reader threads run queries while SMO scripts build and commit.
//
// The storage layer already does the hard part — tables and columns are
// immutable-after-build and held by shared_ptr — so a consistent snapshot
// of the whole database is a refcounted name→table map, not a data copy.
// This file adds the serving protocol around that fact:
//
//   * CatalogRoot — one immutable version of the name→table map. It
//     implements the read side of TableStore, so QueryEngine (and any
//     other TableStore consumer) runs against it unchanged. Mutators
//     fail: a root never changes after publication.
//   * Snapshot — a reader's RAII pin on a root. Acquiring one copies
//     the root pointer under a shared (reader) lock, so pins never wait
//     on each other; no lock is held while the query runs, and the
//     pinned root (with every table it references) stays alive until
//     the last pin drops, even across table drops and whole-root
//     retirement.
//   * SnapshotCatalog — the canonical root plus the commit protocol.
//     Writers stage mutations against their pinned base (the existing
//     StagedCatalog overlay) and commit the recorded CatalogEffect log
//     with first-writer-wins conflict detection: if another writer
//     committed since the base was pinned, the effects are rebased onto
//     the current root when the write sets touch disjoint tables, and
//     rejected with kAborted when they overlap. The swap itself is a
//     pointer swap under the exclusive root lock, inside a commit mutex
//     (single-writer critical section — readers never take it). The
//     retired root is released after the root lock is dropped, so a
//     pin never waits on a free: whoever drops a root's last pin frees
//     it, and with no long-lived pins that is the committing writer.
//
// Durability ordering: Commit accepts a pre-swap hook that runs inside
// the commit critical section, after conflict validation and effect
// replay but before the root becomes visible. DurableDb points it at
// the WAL commit fsync, so a root can only be observed by readers after
// the script that produced it is crash-durable, and "committed" means
// the same thing to concurrency and to recovery.

#ifndef CODS_CONCURRENCY_SNAPSHOT_CATALOG_H_
#define CODS_CONCURRENCY_SNAPSHOT_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "plan/staged_catalog.h"
#include "storage/catalog.h"

namespace cods {

/// One immutable, published version of the catalog. Readers hold it by
/// shared_ptr<const CatalogRoot>; the map never changes after the
/// constructor returns, so lock-free concurrent reads are safe.
class CatalogRoot : public TableStore {
 public:
  using TableMap = std::map<std::string, std::shared_ptr<const Table>>;

  CatalogRoot() = default;
  CatalogRoot(uint64_t id, TableMap tables)
      : id_(id), tables_(std::move(tables)) {}
  /// Snapshots `catalog` (O(#tables) pointer copies).
  CatalogRoot(uint64_t id, const Catalog& catalog);

  /// Monotonic publication id: 0 for the initial empty root, then one
  /// per committed root swap.
  uint64_t id() const { return id_; }

  // Read side of TableStore (same lookup semantics and error text as
  // Catalog, so StagedCatalog overlays and QueryEngine behave
  // identically over either).
  Result<std::shared_ptr<const Table>> GetTable(
      const std::string& name) const override;
  bool HasTable(const std::string& name) const override;

  // A published root is immutable; the mutating half of the interface
  // exists only so the type satisfies TableStore. Writers stage against
  // a StagedCatalog overlay instead.
  Status AddTable(std::shared_ptr<const Table> table) override;
  void PutTable(std::shared_ptr<const Table> table) override;
  Status DropTable(const std::string& name) override;
  Status RenameTable(const std::string& from, const std::string& to) override;

  /// Table names in sorted order.
  std::vector<std::string> TableNames() const;
  size_t size() const { return tables_.size(); }
  const TableMap& tables() const { return tables_; }

  /// The mapped table, or null when absent (pointer-identity conflict
  /// checks want "absent" and "present" on one code path).
  std::shared_ptr<const Table> Lookup(const std::string& name) const;

 private:
  uint64_t id_ = 0;
  TableMap tables_;
};

using RootPtr = std::shared_ptr<const CatalogRoot>;

/// Rebuilds a mutable Catalog holding the same table pointers as `root`
/// (for checkpointing, serialization, and quiesced-equivalence tests).
Catalog MaterializeCatalog(const CatalogRoot& root);

/// A reader's pin on one root. Copyable and movable; the default
/// constructed value is empty. While any copy lives, the pinned root —
/// and every table version it references — survives, no matter what
/// writers commit. Safe to hold past the owning SnapshotCatalog's
/// destruction (the pin accounting object is shared, not borrowed).
class Snapshot {
 public:
  Snapshot() = default;

  bool valid() const { return root_ != nullptr; }
  explicit operator bool() const { return valid(); }

  /// The pinned root; must be valid().
  const CatalogRoot& root() const { return *root_; }
  const RootPtr& root_ptr() const { return root_; }
  /// The pinned root as the read-only store queries execute against.
  const TableStore* store() const { return root_.get(); }
  uint64_t id() const { return root_ == nullptr ? 0 : root_->id(); }

 private:
  friend class SnapshotCatalog;

  // Decrements the live-pin gauge when the last copy of this pin dies.
  struct PinToken {
    explicit PinToken(std::shared_ptr<std::atomic<int64_t>> g)
        : gauge(std::move(g)) {
      gauge->fetch_add(1, std::memory_order_relaxed);
    }
    ~PinToken() { gauge->fetch_sub(1, std::memory_order_relaxed); }
    PinToken(const PinToken&) = delete;
    PinToken& operator=(const PinToken&) = delete;
    std::shared_ptr<std::atomic<int64_t>> gauge;
  };

  Snapshot(RootPtr root, std::shared_ptr<std::atomic<int64_t>> gauge)
      : root_(std::move(root)),
        token_(std::make_shared<PinToken>(std::move(gauge))) {}

  RootPtr root_;
  std::shared_ptr<PinToken> token_;
};

/// The serving core: canonical root + single-writer commit protocol.
/// Thread-safe throughout; GetSnapshot never blocks on a writer.
class SnapshotCatalog {
 public:
  /// Runs inside the commit critical section, after conflict validation,
  /// before the new root becomes visible. A non-OK return aborts the
  /// commit with no visible effect (DurableDb hooks the WAL commit
  /// fsync here).
  using PreSwapFn = std::function<Status()>;

  /// A writer's staged transaction: a StagedCatalog overlay pinned to
  /// the base root current at BeginWrite, recording every mutation into
  /// an effect log for the commit-time rebase. Move-only.
  class WriteTxn {
   public:
    WriteTxn(WriteTxn&&) noexcept = default;
    WriteTxn& operator=(WriteTxn&&) noexcept = default;

    /// The mutable overlay view; SMO interpreters and loads run against
    /// this. Valid until the txn is committed or destroyed.
    TableStore& store() { return impl_->view; }
    /// The base root the txn staged against.
    const RootPtr& base() const { return impl_->base; }
    const std::vector<CatalogEffect>& effects() const {
      return impl_->effects;
    }

   private:
    friend class SnapshotCatalog;
    struct Impl {
      explicit Impl(RootPtr b)
          : base(std::move(b)), staged(base.get()), view(&staged, &effects) {}
      RootPtr base;
      std::vector<CatalogEffect> effects;
      StagedCatalog staged;
      StagedCatalog::View view;
    };
    explicit WriteTxn(RootPtr base)
        : impl_(std::make_unique<Impl>(std::move(base))) {}
    std::unique_ptr<Impl> impl_;
  };

  /// Serving stats for `.snapshot` and tests.
  struct Stats {
    uint64_t root_id = 0;    // id of the currently served root
    size_t tables = 0;       // table count of that root
    uint64_t commits = 0;    // successful root swaps (Reset included)
    uint64_t aborts = 0;     // commits rejected by conflict detection
    int64_t live_pins = 0;   // Snapshot handles currently alive
  };

  /// Starts serving an empty root (id 0).
  SnapshotCatalog();

  SnapshotCatalog(const SnapshotCatalog&) = delete;
  SnapshotCatalog& operator=(const SnapshotCatalog&) = delete;

  /// Pins the current root: a pointer copy under the shared root lock
  /// plus pin accounting. Never blocks on another pin, nor on a
  /// writer's build, fsync or free.
  Snapshot GetSnapshot() const;
  /// The current root without pin accounting (writer-side plumbing).
  RootPtr current() const;

  /// Opens a staged transaction against the current root.
  WriteTxn BeginWrite() const { return WriteTxn(current()); }

  /// Commits a staged transaction (first-writer-wins; see CommitEffects).
  Status Commit(WriteTxn&& txn, const PreSwapFn& pre_swap = {});

  /// The commit protocol: validates `effects` (staged against `base`)
  /// against the current root, rebases, runs `pre_swap`, swaps.
  ///
  /// Conflict rule — first-writer-wins over table names: if any table
  /// name in the effects' write set maps to a different table version
  /// (pointer identity) in the current root than in `base`, a competing
  /// writer got there first and the commit returns kAborted. Writers
  /// whose write sets touch only unchanged names rebase cleanly: their
  /// effects replay onto the current root, preserving the other
  /// writers' committed work.
  ///
  /// An empty effect list still runs `pre_swap` (a failed script must
  /// still reach the WAL for replay parity) but publishes no new root.
  Status CommitEffects(const RootPtr& base,
                       const std::vector<CatalogEffect>& effects,
                       const PreSwapFn& pre_swap = {});

  /// Forced swap to an image of `catalog`, bypassing conflict detection
  /// — for recovery restore and version checkout, where the caller owns
  /// the timeline. Existing pins keep their old roots.
  void Reset(const Catalog& catalog);

  Stats GetStats() const;

 private:
  // Publishes `tables` as the current root; commit_mu_ must be held.
  // Returns the retired root so the caller drops it outside every lock.
  RootPtr Publish(CatalogRoot::TableMap tables);

  mutable std::mutex commit_mu_;  // writers only; readers never take it
  // Guards root_ alone: shared for a pointer copy, exclusive for the
  // swap, never held across a build, an fsync or a free. Shared, so
  // concurrent pins never put each other to sleep.
  mutable std::shared_mutex root_mu_;
  RootPtr root_;
  std::shared_ptr<std::atomic<int64_t>> live_pins_;
  std::atomic<uint64_t> next_root_id_{1};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
};

}  // namespace cods

#endif  // CODS_CONCURRENCY_SNAPSHOT_CATALOG_H_
