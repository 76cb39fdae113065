// Versioned catalog: cheap snapshots of the whole database across schema
// versions. Because tables and columns are immutable and shared by
// pointer, committing a version costs O(1) — it pins the serving core's
// current root — and the Wikipedia-style "170 schema versions in 5
// years" history from the paper's introduction stays affordable to keep
// online, with every old version queryable.
//
// Serving and history share one representation: the working state lives
// in a SnapshotCatalog (concurrency/snapshot_catalog.h), each committed
// version is a RootPtr into the same shared-root graph, and readers pin
// either with the same Snapshot handle. There is no mutable escape
// hatch: all mutation flows through the engine's snapshot-commit mode
// or through Apply(), so the root swap is the single choke point
// every writer crosses.

#ifndef CODS_CONCURRENCY_VERSIONED_CATALOG_H_
#define CODS_CONCURRENCY_VERSIONED_CATALOG_H_

#include <functional>
#include <string>
#include <vector>

#include "concurrency/snapshot_catalog.h"
#include "storage/catalog.h"

namespace cods {

/// A serving SnapshotCatalog plus an append-only history of committed
/// versions, each a pinned root. Reads (GetSnapshot, history queries)
/// are safe against a concurrent writer; the mutating calls (Apply,
/// Commit, Checkout, Reset) are writer-side and must come from one
/// writer at a time, like the engine's commit protocol they ride on.
class VersionedCatalog {
 public:
  /// Metadata of one committed version.
  struct VersionInfo {
    uint64_t id = 0;
    std::string message;
    std::vector<std::string> table_names;
    uint64_t total_rows = 0;
  };

  VersionedCatalog() = default;

  VersionedCatalog(const VersionedCatalog&) = delete;
  VersionedCatalog& operator=(const VersionedCatalog&) = delete;

  /// The serving core. Bind an EvolutionEngine to this for SMO scripts;
  /// pin query snapshots with GetSnapshot().
  SnapshotCatalog* serving() { return &serving_; }
  const SnapshotCatalog& serving() const { return serving_; }

  /// Pins the current root for reading (a pointer copy; never waits on
  /// a writer's work).
  Snapshot GetSnapshot() const { return serving_.GetSnapshot(); }

  /// The apply-and-commit path for non-SMO mutation (CSV loads, test
  /// seeding): runs `fn` against a staged overlay of the current root
  /// and commits the recorded effects through the snapshot protocol.
  /// Nothing becomes visible if `fn` fails.
  Status Apply(const std::function<Status(TableStore&)>& fn);

  /// Replaces the served state wholesale (deserialized catalog, crash
  /// recovery image). Forced swap — no conflict detection; the history
  /// is untouched. Existing reader pins keep their old roots.
  void Reset(const Catalog& catalog) { serving_.Reset(catalog); }

  /// Snapshots the current root as a new version; returns its id (ids
  /// start at 1 and increase).
  uint64_t Commit(const std::string& message);

  /// Number of committed versions.
  size_t num_versions() const { return versions_.size(); }

  /// Metadata for every committed version, oldest first.
  std::vector<VersionInfo> History() const;

  /// A table as of a committed version.
  Result<std::shared_ptr<const Table>> GetTableAt(
      uint64_t version, const std::string& name) const;

  /// Table names as of a committed version.
  Result<std::vector<std::string>> TableNamesAt(uint64_t version) const;

  /// Swaps the served root back to the state of `version` (the history
  /// itself is untouched, so this models "git checkout"). Readers that
  /// pinned the abandoned timeline keep their snapshots.
  Status Checkout(uint64_t version);

  /// Storage accounting: bytes of unique column data reachable from all
  /// versions plus the served root (columns shared between versions
  /// counted once), and the bytes a naive copy-per-version scheme would
  /// hold.
  struct StorageStats {
    uint64_t unique_bytes = 0;
    uint64_t naive_bytes = 0;
  };
  StorageStats ComputeStorageStats() const;

 private:
  struct Version {
    std::string message;
    RootPtr root;  // shared with serving_'s root graph
  };

  Result<const Version*> FindVersion(uint64_t version) const;

  SnapshotCatalog serving_;
  std::vector<Version> versions_;
};

}  // namespace cods

#endif  // CODS_CONCURRENCY_VERSIONED_CATALOG_H_
