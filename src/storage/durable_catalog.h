// DurableCatalog: a Catalog whose committed mutations survive process death
// — and whose durability guarantees degrade loudly, not silently, when the
// disk itself misbehaves.
//
// Directory layout (`Open(dir)` creates the directory if needed):
//
//   dir/wal.log                      append-only mutation log (storage/wal.h)
//   dir/snapshot-<lsn 20d>.tysnap    checksummed catalog snapshot covering
//                                    every record with lsn <= <lsn>
//
// Durability protocol (MVCC + group commit). Mutations are serialized on a
// writer lock and applied to a mutable writer TIP (`catalog()`); the op's
// WAL record is then sequenced into a group-commit queue (storage/wal.h
// GroupWal) where one leader writes a whole batch of concurrent commits with
// a single fsync. Only after the batch is durable does the leader PUBLISH
// the corresponding snapshot as a new schema epoch (core/epoch.h) — so the
// published, reader-visible state never runs ahead of stable storage, and an
// operation is acknowledged only once its record is fsync'd. Readers that
// must never block on writers use PinSnapshot(): a wait-free guard on the
// latest published epoch, valid (with all its analysis caches) until
// unpinned regardless of concurrent commits. `catalog()` remains the
// single-threaded view: with no concurrent committers it is always the last
// acknowledged state (any failed op's tip mutations are rolled back to the
// last durable epoch before the op returns).
//
// If a batch append fails, NONE of its operations commit: every waiter
// observes the failure, the group stalls, and the first failing committer to
// reacquire the writer lock rolls the tip back to the last durable epoch
// (so records sequenced against never-durable state are never written).
// Records carry the op text (catalog/op_codec.h, including the verify flag,
// since a no-verify derivation might not replay under verify) and are
// replayed deterministically at recovery. All I/O goes through a storage::Env
// (env.h), injectable per database for fault testing.
//
// Compaction. Compact() writes a fresh snapshot to a temp file, fsyncs it,
// renames it into place, fsyncs the directory, and only then truncates the
// WAL and deletes older snapshots. A crash between rename and truncate is
// benign: replay skips records with lsn <= the snapshot's lsn. On any
// failure before the WAL truncate the old snapshot + intact WAL remain the
// recovery source and the temp file is removed, so the catalog stays live.
//
// Degraded mode. A failed fsync — of the WAL file, of a failed append's
// truncation undo, or of a snapshot temp file — means the store can no
// longer prove its durability claims (see env.h on why fsync must never be
// retried). The catalog then enters READ-ONLY DEGRADED MODE: every logged
// mutation, Compact and Seed refuse with a FailedPrecondition naming the
// original failure; reads (catalog(), recovery(), last_lsn()) keep serving
// the last consistent in-memory state, which matches the last state whose
// record was durably acknowledged. The transition bumps the
// storage.degraded_entries counter and ships a flight-recorder dump.
// Plain write errors (ENOSPC, EIO, short writes) whose undo holds do NOT
// degrade: the operation fails, state is unchanged, and a retry may
// succeed once the disk recovers. Reopen() leaves degraded mode by
// re-running full recovery from disk; it succeeds only if the on-disk
// state validates cleanly.
//
// Recovery (in Open). The newest snapshot that decodes cleanly is loaded —
// its base schema read and its op log re-folded (storage/catalog_snapshot.h);
// a corrupt newer snapshot, or one whose re-fold misses its recorded fold
// CRC, falls back to an older one with a warning, and is fatal only when no
// snapshot loads at all. The WAL is then validated and
// replayed: a torn tail (crash mid-append) is truncated with a warning and
// never an error; mid-log corruption is refused with a byte-offset
// diagnostic. Recovery always yields a catalog byte-identical to the state
// either before or after the interrupted mutation — never in between.
//
// Crash-injection points: storage.wal.* (wal.h), storage.env.* (env.h),
// plus storage.compact.before_rename / storage.compact.after_rename.

#ifndef TYDER_STORAGE_DURABLE_CATALOG_H_
#define TYDER_STORAGE_DURABLE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/epoch.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace tyder::storage {

struct RecoveryInfo {
  bool snapshot_loaded = false;
  uint64_t snapshot_lsn = 0;   // meaningful only when snapshot_loaded
  size_t replayed_records = 0;
  std::vector<std::string> warnings;  // torn tail, skipped corrupt snapshots
  uint64_t recovery_ns = 0;
};

class DurableCatalog {
 public:
  // Opens (creating if absent) the database directory and recovers the
  // catalog from its newest valid snapshot plus the WAL. All I/O goes
  // through `env` (nullptr == Env::Posix()) for the life of the database.
  // `group` tunes the group-commit window (benchmarks set max_batch = 1 for
  // the serial fsync-per-commit baseline).
  static Result<DurableCatalog> Open(const std::string& dir,
                                     Env* env = nullptr,
                                     GroupCommitOptions group = {});

  // Moving requires external quiescence: no concurrent operation, and no
  // live Pin from PinSnapshot(). (Reopen does NOT move — it adopts recovered
  // state in place precisely so it stays safe under concurrency.)
  DurableCatalog(DurableCatalog&&) = default;
  DurableCatalog& operator=(DurableCatalog&&) = default;

  // The writer tip. Safe only without concurrent committers; concurrent
  // readers use PinSnapshot() instead.
  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }

  // Wait-free pin of the newest PUBLISHED epoch: the last state whose WAL
  // records were durably acknowledged. Never blocks on (and is never torn
  // by) concurrent committers; the snapshot stays valid until the pin dies.
  EpochCatalog::Pin PinSnapshot() const {
    return EpochCatalog::Pin(state_->epochs);
  }
  // The epoch layer itself (reclamation counters, TryReclaim — tests).
  EpochCatalog& epochs() { return state_->epochs; }

  const RecoveryInfo& recovery() const { return recovery_; }
  const std::string& dir() const { return dir_; }
  // LSN of the newest durably ACKNOWLEDGED record (snapshot-covered, or in
  // the WAL and fsync'd with its commit published).
  uint64_t last_lsn() const {
    return state_->durable_lsn.load(std::memory_order_acquire);
  }

  // True once a durability failure has forced read-only degraded mode.
  bool degraded() const { return !degraded_.ok(); }
  // The refusal every mutation gets while degraded; OK when healthy.
  // Like catalog(), degraded()/degraded_status() belong to the writer side:
  // they are written under the writer lock and safe to read only from a
  // thread that serializes with mutations.
  const Status& degraded_status() const { return degraded_; }
  // Thread-safe snapshot of the degraded flag for concurrent observers
  // (tyderd's health endpoint polls this off arbitrary worker threads).
  bool degraded_now() const {
    return state_->degraded_flag.load(std::memory_order_acquire);
  }

  // Leaves degraded mode by re-running full recovery from disk: the
  // in-memory catalog, WAL handle and lsn are replaced by what the on-disk
  // state validates to (pre- or post- the interrupted mutation). On failure
  // the database stays degraded and untouched. Safe (a no-op recovery) when
  // healthy — and safe under concurrency: Reopen serializes on the writer
  // lock, drains the group-commit queue so every already-queued committer
  // gets its definitive ack/nack first, and adopts the recovered state into
  // the address-stable CommitState (live reader Pins and committers blocked
  // on the writer lock survive it). tyderd's admin `reopen` command calls
  // this with traffic in flight.
  Status Reopen();

  // --- logged mutations (Catalog API + durability) --------------------------
  // Same contracts as the Catalog methods; additionally, on OK the operation
  // is on stable storage, and on failure it is rolled back in memory (the
  // WAL tail is restored durably, see WalWriter::Append). All refuse with
  // degraded_status() while degraded. An op that changes nothing (a Collapse
  // that finds nothing) writes no record and takes no lsn.

  Result<const ViewDef*> DefineProjectionView(
      std::string_view name, std::string_view source_type,
      const std::vector<std::string>& attribute_names,
      const ProjectionOptions& options = {});
  Result<const ViewDef*> DefineSelectionView(std::string_view name,
                                             std::string_view source_type);
  Result<const ViewDef*> DefineGeneralizationView(
      std::string_view name, std::string_view type_a, std::string_view type_b,
      const ProjectionOptions& options = {});
  Result<const ViewDef*> DefineRenameView(
      std::string_view name, std::string_view source_type,
      const std::vector<AttributeRename>& renames,
      const ProjectionOptions& options = {});
  Status DropView(std::string_view name);
  Result<CollapseReport> Collapse();

  // Writes a checksummed snapshot covering last_lsn() and truncates the WAL.
  Status Compact();

  // Seeds a freshly created database from an in-memory catalog (typically a
  // parsed TDL file) by writing the initial snapshot. Fails unless the
  // database has no durable state at all.
  Status Seed(Catalog catalog);

 private:
  DurableCatalog() = default;

  // Shared, address-stable commit state: the group-commit leader callback
  // and in-flight waiters hold pointers into it across DurableCatalog moves.
  struct CommitState {
    // Serializes mutations: tip apply + lsn assignment + enqueue order.
    std::mutex writer_mu;
    // LSN of the last op applied to the tip (>= durable_lsn; they are equal
    // whenever no commit is in flight). Guarded by writer_mu.
    uint64_t tip_lsn = 0;
    // LSN of the last durably acknowledged (and published) record.
    std::atomic<uint64_t> durable_lsn{0};
    // Tip snapshots keyed by lsn, awaiting their batch fsync; the leader
    // publishes the entry matching the batch's last lsn. Guarded by
    // publish_mu (never writer_mu: the leader publishes while another
    // committer may hold writer_mu applying the next op).
    std::mutex publish_mu;
    std::map<uint64_t, Catalog> pending_publish;
    // Mirrors degraded_ for lock-free observers (degraded_now()).
    std::atomic<bool> degraded_flag{false};
    EpochCatalog epochs;
    GroupCommitOptions group_options;  // preserved across Reopen
    std::unique_ptr<GroupWal> group;
  };

  // The group-commit path shared by every logged mutation; see .cc.
  template <typename ResultT, typename OpFn>
  ResultT CommitLogged(std::string payload, OpFn&& op);
  // Under writer_mu: consume a pending stall (rolling the tip back to the
  // last durable epoch) and mirror a poisoned WAL into degraded mode.
  void AbsorbFailureLocked(const Status& cause);
  void ResetTipToDurableLocked();

  Status WriteSnapshot(const std::string& tmp_path, std::string_view bytes);
  Status CompactLocked();  // snapshot + WAL truncate; requires writer_mu
  void EnterDegraded(const std::string& reason);

  std::string dir_;
  std::string wal_path_;
  Env* env_ = nullptr;
  // unique_ptrs keep the class movable without hand-written moves (Catalog
  // holds a Schema; WalWriter owns a file handle; CommitState holds mutexes
  // and must stay address-stable for the leader callback).
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<CommitState> state_;
  RecoveryInfo recovery_;
  Status degraded_;  // non-OK == read-only degraded mode
};

}  // namespace tyder::storage

#endif  // TYDER_STORAGE_DURABLE_CATALOG_H_
