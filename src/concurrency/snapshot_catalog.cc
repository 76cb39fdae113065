#include "concurrency/snapshot_catalog.h"

#include "common/logging.h"

namespace cods {

namespace {

// The table names an effect list writes. Rename writes both endpoints:
// it removes `name` and creates `name2`, so a competing change to
// either is a conflict.
std::vector<std::string> WriteSet(const std::vector<CatalogEffect>& effects) {
  std::vector<std::string> names;
  names.reserve(effects.size());
  for (const CatalogEffect& e : effects) {
    switch (e.kind) {
      case CatalogEffect::Kind::kAdd:
      case CatalogEffect::Kind::kPut:
        names.push_back(e.table->name());
        break;
      case CatalogEffect::Kind::kDrop:
        names.push_back(e.name);
        break;
      case CatalogEffect::Kind::kRename:
        names.push_back(e.name);
        names.push_back(e.name2);
        break;
    }
  }
  return names;
}

}  // namespace

CatalogRoot::CatalogRoot(uint64_t id, const Catalog& catalog) : id_(id) {
  for (const std::string& name : catalog.TableNames()) {
    tables_.emplace(name, catalog.GetTable(name).ValueOrDie());
  }
}

Result<std::shared_ptr<const Table>> CatalogRoot::GetTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::KeyError("no table named '" + name + "'");
  }
  return it->second;
}

bool CatalogRoot::HasTable(const std::string& name) const {
  return tables_.find(name) != tables_.end();
}

Status CatalogRoot::AddTable(std::shared_ptr<const Table>) {
  return Status::InvalidArgument(
      "catalog root is immutable; stage writes via SnapshotCatalog");
}

void CatalogRoot::PutTable(std::shared_ptr<const Table>) {
  CODS_CHECK(false)
      << "PutTable on an immutable catalog root; stage writes via "
         "SnapshotCatalog";
}

Status CatalogRoot::DropTable(const std::string&) {
  return Status::InvalidArgument(
      "catalog root is immutable; stage writes via SnapshotCatalog");
}

Status CatalogRoot::RenameTable(const std::string&, const std::string&) {
  return Status::InvalidArgument(
      "catalog root is immutable; stage writes via SnapshotCatalog");
}

std::vector<std::string> CatalogRoot::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

std::shared_ptr<const Table> CatalogRoot::Lookup(
    const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second;
}

Catalog MaterializeCatalog(const CatalogRoot& root) {
  Catalog catalog;
  for (const auto& [_, table] : root.tables()) catalog.PutTable(table);
  return catalog;
}

SnapshotCatalog::SnapshotCatalog()
    : root_(std::make_shared<const CatalogRoot>()),
      live_pins_(std::make_shared<std::atomic<int64_t>>(0)) {}

RootPtr SnapshotCatalog::current() const {
  std::shared_lock<std::shared_mutex> lock(root_mu_);
  return root_;
}

Snapshot SnapshotCatalog::GetSnapshot() const {
  return Snapshot(current(), live_pins_);
}

Status SnapshotCatalog::Commit(WriteTxn&& txn, const PreSwapFn& pre_swap) {
  return CommitEffects(txn.impl_->base, txn.impl_->effects, pre_swap);
}

Status SnapshotCatalog::CommitEffects(const RootPtr& base,
                                      const std::vector<CatalogEffect>& effects,
                                      const PreSwapFn& pre_swap) {
  CODS_CHECK(base != nullptr);
  // Declared before the lock, so the root this commit retires is
  // released after commit_mu_ is. Its last reference is usually the
  // writer's own base pin anyway.
  RootPtr retired;
  std::lock_guard<std::mutex> lock(commit_mu_);
  RootPtr current = this->current();
  if (current != base) {
    // First-writer-wins: another writer committed since `base` was
    // pinned. The loser is whoever's write set overlaps a table the
    // winner changed — pointer identity per name, so a name that was
    // absent in both or maps to the same Table version is no conflict.
    for (const std::string& name : WriteSet(effects)) {
      if (base->Lookup(name) != current->Lookup(name)) {
        aborts_.fetch_add(1, std::memory_order_relaxed);
        return Status::Aborted(
            "write-write conflict on table '" + name + "': root " +
            std::to_string(current->id()) + " changed it since base root " +
            std::to_string(base->id()));
      }
    }
  }
  if (effects.empty()) {
    // A script that applied nothing still runs the durability hook (a
    // failed script must reach the WAL so replay reproduces the failure
    // prefix), but there is no new root to publish.
    if (pre_swap) CODS_RETURN_NOT_OK(pre_swap());
    return Status::OK();
  }
  // Rebase: replay the effects onto the current root. Validation
  // guaranteed every written name still maps to the table version the
  // staging run saw, so a replay failure is an invariant breach.
  Catalog rebased = MaterializeCatalog(*current);
  for (const CatalogEffect& effect : effects) {
    Status st = ApplyEffect(effect, &rebased);
    if (!st.ok()) {
      return Status::Corruption("snapshot commit rebase diverged: " +
                                st.message());
    }
  }
  // Durability before visibility: the root swap happens only after the
  // hook (the WAL commit fsync) succeeds.
  if (pre_swap) CODS_RETURN_NOT_OK(pre_swap());
  CatalogRoot::TableMap tables;
  for (const std::string& name : rebased.TableNames()) {
    tables.emplace(name, rebased.GetTable(name).ValueOrDie());
  }
  retired = Publish(std::move(tables));
  return Status::OK();
}

void SnapshotCatalog::Reset(const Catalog& catalog) {
  RootPtr retired;
  std::lock_guard<std::mutex> lock(commit_mu_);
  CatalogRoot::TableMap tables;
  for (const std::string& name : catalog.TableNames()) {
    tables.emplace(name, catalog.GetTable(name).ValueOrDie());
  }
  retired = Publish(std::move(tables));
}

RootPtr SnapshotCatalog::Publish(CatalogRoot::TableMap tables) {
  RootPtr next = std::make_shared<const CatalogRoot>(
      next_root_id_.fetch_add(1, std::memory_order_relaxed),
      std::move(tables));
  {
    std::unique_lock<std::shared_mutex> lock(root_mu_);
    root_.swap(next);
  }
  commits_.fetch_add(1, std::memory_order_relaxed);
  return next;  // the retired root, released by the caller
}

SnapshotCatalog::Stats SnapshotCatalog::GetStats() const {
  Stats stats;
  RootPtr current = this->current();
  stats.root_id = current->id();
  stats.tables = current->size();
  stats.commits = commits_.load(std::memory_order_relaxed);
  stats.aborts = aborts_.load(std::memory_order_relaxed);
  stats.live_pins = live_pins_->load(std::memory_order_relaxed);
  return stats;
}

}  // namespace cods
