// Staged catalog state for script execution. Every engine call stages
// its operators here before anything becomes visible: planned tasks run
// concurrently, so their catalog effects must not touch the bound store
// until the whole script's fate is known; instead each operator mutates
// a shared, thread-safe overlay (so downstream operators see upstream
// outputs) while privately recording an effect log. Once staging ends,
// the engine commits the logs in SCRIPT order — exactly the prefix of
// operators before the first failure — so the final catalog is
// bit-identical to serial execution in both the success and the
// first-failure case, and a failing operator leaves no partial effect.
//
// Error-message parity: every overlay operation reproduces Catalog's
// semantics and message text exactly (KeyError "no table named '...'",
// AlreadyExists "table '...' already exists"), so a script that fails
// planned fails with the same Status it would have failed with serially.

#ifndef CODS_PLAN_STAGED_CATALOG_H_
#define CODS_PLAN_STAGED_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/catalog.h"

namespace cods {

/// One recorded catalog mutation, replayable onto a real Catalog.
struct CatalogEffect {
  enum class Kind { kAdd, kPut, kDrop, kRename };
  Kind kind = Kind::kPut;
  std::shared_ptr<const Table> table;  // kAdd / kPut payload
  std::string name;                    // kDrop victim; kRename source
  std::string name2;                   // kRename target
};

/// Replays one effect onto `store` with the matching TableStore call.
Status ApplyEffect(const CatalogEffect& effect, TableStore* store);

/// A mutable overlay over an immutable base store (a Catalog, or a
/// pinned CatalogRoot in snapshot-commit mode). Thread-safe: the
/// script planner orders conflicting tasks, but independent tasks touch
/// the shared name map concurrently. Obtain per-task TableStore handles
/// with MakeView; each view appends the mutations it performs to its
/// own effect log.
class StagedCatalog {
 public:
  explicit StagedCatalog(const TableStore* base);

  /// TableStore handle bound to one task's effect log (not owned). The
  /// view must not outlive the StagedCatalog or the log.
  class View : public TableStore {
   public:
    View(StagedCatalog* staged, std::vector<CatalogEffect>* log)
        : staged_(staged), log_(log) {}

    Status AddTable(std::shared_ptr<const Table> table) override;
    void PutTable(std::shared_ptr<const Table> table) override;
    Result<std::shared_ptr<const Table>> GetTable(
        const std::string& name) const override;
    bool HasTable(const std::string& name) const override;
    Status DropTable(const std::string& name) override;
    Status RenameTable(const std::string& from,
                       const std::string& to) override;

   private:
    StagedCatalog* staged_;
    std::vector<CatalogEffect>* log_;
  };

  View MakeView(std::vector<CatalogEffect>* log) { return View(this, log); }

 private:
  // All under mu_. An overlay entry shadows the base: a null table means
  // "dropped"; absence means "base is authoritative".
  Result<std::shared_ptr<const Table>> Get(const std::string& name) const;
  bool Has(const std::string& name) const;

  const TableStore* base_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Table>> overlay_;
};

}  // namespace cods

#endif  // CODS_PLAN_STAGED_CATALOG_H_
