// SchemaTransaction: all-or-nothing schema mutation. The derivation pipeline
// (FactorState → Augment → FactorMethods) is a multi-phase refactoring of the
// shared type hierarchy, and the paper's guarantee — existing types keep
// exactly their original state and behavior — is only meaningful if a failed
// derivation leaves the schema untouched. A SchemaTransaction snapshots the
// schema on construction (cheap: method bodies are shared shared_ptrs, so a
// snapshot is a structure-only copy), and unless Commit() is called, its
// destructor rolls the schema back to that snapshot — so every early return
// on an error path restores the pre-call schema byte-for-byte (the rolled
// back schema serializes identically to the snapshot).
//
// Used by DeriveProjection, CollapseEmptySurrogates and every Catalog view
// operation; each documents the strong guarantee in its header. A Catalog
// view definition keeps its transaction's snapshot as the view's checkpoint
// (ReleaseSnapshot), so dropping the view later costs no extra copy.
// Rollbacks are observable through the `projection.rollbacks` counter and
// the `projection.rollback_ns` histogram (docs/ROBUSTNESS.md).
//
// Transactions nest naturally: an outer transaction (e.g. a Catalog view
// definition) simply restores over whatever an inner one (DeriveProjection)
// already rolled back. An inner transaction that begins before anything
// changed under the outer one shares the outer snapshot instead of copying
// the schema again.
//
// Durability (src/storage/): a SchemaTransaction is purely in-memory — it
// commits the writer TIP. The durable catalog sequences the committed op's
// WAL record into the group-commit queue (storage/wal.h) afterwards, and
// only a durable batch fsync publishes the state as a reader-visible schema
// epoch (core/epoch.h). A commit whose record fails to persist is rolled
// back wholesale by resetting the tip to the last durable epoch — the
// transaction layer never needs to know. (Earlier revisions fired a
// per-thread commit hook from the outermost Commit() so the WAL fsync
// preceded the in-memory publish; the epoch layer made that inversion
// unnecessary, since "published" now means the epoch pointer swap, which
// already happens strictly after the fsync.)

#ifndef TYDER_CORE_TRANSACTION_H_
#define TYDER_CORE_TRANSACTION_H_

#include <memory>

#include "common/status.h"
#include "methods/schema.h"

namespace tyder {

class SchemaTransaction {
 public:
  explicit SchemaTransaction(Schema& schema);
  // Takes `pre_state`, which the caller knows equals `schema`, as the
  // snapshot instead of copying `schema`.
  SchemaTransaction(Schema& schema, std::shared_ptr<const Schema> pre_state);
  // Rolls back unless Commit() succeeded.
  ~SchemaTransaction();

  SchemaTransaction(const SchemaTransaction&) = delete;
  SchemaTransaction& operator=(const SchemaTransaction&) = delete;

  // Keeps the mutations made since construction; the destructor becomes a
  // no-op. Commit is in-memory only (see the file comment on how the
  // storage layer sequences durability after it).
  [[nodiscard]] Status Commit();
  bool committed() const { return committed_; }

  // The pre-transaction state. Stable for the transaction's lifetime — the
  // verifier compares the mutated schema against exactly this snapshot, so
  // the pipeline does not need a second copy.
  const Schema& snapshot() const { return *snapshot_; }

  // Commits and hands the pre-transaction state over, shared (no copy).
  std::shared_ptr<const Schema> ReleaseSnapshot();

 private:
  void Rollback();

  Schema& schema_;
  std::shared_ptr<const Schema> snapshot_;
  // The enclosing live transaction on this thread, if any. An inner
  // transaction (e.g. DeriveProjection inside a Catalog view definition) is
  // an implementation detail of an operation that commits — and becomes
  // durable — as a whole.
  SchemaTransaction* outer_;
  int depth_;  // 1 for the outermost, 2 for one nested inside it, ...
  bool committed_ = false;
};

}  // namespace tyder

#endif  // TYDER_CORE_TRANSACTION_H_
