#include "storage/durable_catalog.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <utility>

#include "catalog/op_codec.h"
#include "common/failpoint.h"
#include "obs/obs.h"
#include "storage/catalog_snapshot.h"

namespace tyder::storage {

namespace {

constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kSnapshotSuffix = ".tysnap";

std::string SnapshotFileName(uint64_t lsn) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.tysnap",
                static_cast<unsigned long long>(lsn));
  return buf;
}

// snapshot-<20 digits>.tysnap -> lsn, or false for any other name.
bool ParseSnapshotFileName(std::string_view name, uint64_t& lsn) {
  if (name.size() != kSnapshotPrefix.size() + 20 + kSnapshotSuffix.size() ||
      name.substr(0, kSnapshotPrefix.size()) != kSnapshotPrefix ||
      name.substr(name.size() - kSnapshotSuffix.size()) != kSnapshotSuffix) {
    return false;
  }
  std::string_view digits = name.substr(kSnapshotPrefix.size(), 20);
  auto [ptr, ec] = std::from_chars(digits.begin(), digits.end(), lsn);
  return ec == std::errc() && ptr == digits.end();
}

}  // namespace

Result<DurableCatalog> DurableCatalog::Open(const std::string& dir, Env* env,
                                            GroupCommitOptions group) {
  TYDER_SPAN("DurableCatalog.Open");
  TYDER_TIMED("storage.recovery_ns");
  auto start = std::chrono::steady_clock::now();

  DurableCatalog db;
  db.dir_ = dir;
  db.wal_path_ = dir + "/wal.log";
  db.env_ = env != nullptr ? env : &Env::Posix();

  TYDER_RETURN_IF_ERROR(db.env_->CreateDirs(dir));

  // 1. Load the newest snapshot that decodes cleanly.
  Result<std::vector<std::string>> entries = db.env_->ListDir(dir);
  if (!entries.ok()) return entries.status();
  std::vector<std::pair<uint64_t, std::string>> snapshots;  // lsn -> path
  for (const std::string& name : *entries) {
    uint64_t lsn = 0;
    if (ParseSnapshotFileName(name, lsn)) {
      snapshots.emplace_back(lsn, dir + "/" + name);
    }
  }
  std::sort(snapshots.rbegin(), snapshots.rend());
  uint64_t snapshot_lsn = 0;
  for (const auto& [lsn, path] : snapshots) {
    Result<Catalog> loaded = ReadCatalogSnapshotFile(*db.env_, path);
    if (loaded.ok()) {
      db.catalog_ = std::make_unique<Catalog>(std::move(loaded).value());
      db.recovery_.snapshot_loaded = true;
      snapshot_lsn = lsn;
      break;
    }
    db.recovery_.warnings.push_back(
        "snapshot '" + path + "' is unusable (" + loaded.status().message() +
        "); falling back to an older snapshot");
  }
  if (db.catalog_ == nullptr) {
    if (!snapshots.empty()) {
      std::string detail;
      for (const std::string& w : db.recovery_.warnings) {
        detail += "\n  " + w;
      }
      return Status::Internal(
          "no snapshot in '" + dir +
          "' decodes cleanly; refusing to rebuild from the WAL alone (it was "
          "truncated at the last compaction)" +
          detail);
    }
    Result<Catalog> fresh = Catalog::Create();
    if (!fresh.ok()) return fresh.status();
    db.catalog_ = std::make_unique<Catalog>(std::move(fresh).value());
  }
  db.recovery_.snapshot_lsn = snapshot_lsn;
  uint64_t recovered_lsn = snapshot_lsn;

  // 2. Validate the log; repair a torn tail; refuse mid-log corruption.
  Result<WalReadResult> wal = ReadWal(db.wal_path_, db.env_);
  if (!wal.ok()) return wal.status();
  if (!wal->torn_tail_warning.empty()) {
    db.recovery_.warnings.push_back(wal->torn_tail_warning);
    TYDER_RETURN_IF_ERROR(
        RepairTornTail(db.wal_path_, wal->valid_bytes, db.env_));
  }

  // 3. Replay everything the snapshot does not already cover. (Records at or
  // below the snapshot lsn are left over from a crash between a compaction's
  // snapshot rename and its WAL truncate.)
  for (const WalRecord& record : wal->records) {
    if (record.lsn <= snapshot_lsn) continue;
    Status replayed = ApplyCatalogOp(*db.catalog_, record.payload);
    if (!replayed.ok()) {
      return Status::Internal(
          "WAL replay failed at lsn " + std::to_string(record.lsn) + " ('" +
          record.payload + "'): " + replayed.message());
    }
    TYDER_COUNT("storage.wal_replays");
    recovered_lsn = record.lsn;
    ++db.recovery_.replayed_records;
  }

  Result<WalWriter> writer = WalWriter::Open(db.wal_path_, db.env_);
  if (!writer.ok()) return writer.status();
  db.wal_ = std::make_unique<WalWriter>(std::move(writer).value());

  // Commit state: the group-commit queue over the WAL, and the epoch layer
  // seeded with the recovered catalog so readers can pin from the start.
  // CommitState is address-stable (unique_ptr), so the leader callback and
  // in-flight waiters survive DurableCatalog moves.
  db.state_ = std::make_unique<CommitState>();
  db.state_->tip_lsn = recovered_lsn;
  db.state_->durable_lsn.store(recovered_lsn, std::memory_order_relaxed);
  db.state_->epochs.Publish(*db.catalog_, recovered_lsn);
  db.state_->group_options = group;
  db.state_->group = std::make_unique<GroupWal>(db.wal_.get(), group);
  db.state_->group->set_on_batch_durable([cs = db.state_.get()](
                                             uint64_t last_lsn) {
    // Leader side, batch fsync'd, no waiter awake yet: publish the batch's
    // final snapshot as the new epoch and advance the acknowledged lsn.
    // Intermediate per-record snapshots of the same batch are dropped —
    // they were never individually acknowledged.
    std::lock_guard<std::mutex> lock(cs->publish_mu);
    auto it = cs->pending_publish.find(last_lsn);
    if (it != cs->pending_publish.end()) {
      cs->epochs.Publish(std::move(it->second), last_lsn);
    }
    cs->pending_publish.erase(cs->pending_publish.begin(),
                              cs->pending_publish.upper_bound(last_lsn));
    cs->durable_lsn.store(last_lsn, std::memory_order_release);
  });

  db.recovery_.recovery_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return db;
}

void DurableCatalog::EnterDegraded(const std::string& reason) {
  if (!degraded_.ok()) return;  // keep the first cause
  degraded_ = Status::FailedPrecondition(
      "database '" + dir_ + "' is in read-only degraded mode: " + reason +
      "; reads keep serving the last consistent state, mutations are "
      "refused until Reopen() re-validates the on-disk state");
  state_->degraded_flag.store(true, std::memory_order_release);
  TYDER_COUNT("storage.degraded_entries");
  TYDER_RECORD_V(kMark, "storage.degraded",
                 static_cast<int64_t>(last_lsn()));
  TYDER_FLIGHT_DUMP("storage.degraded:" + dir_);
}

Status DurableCatalog::Reopen() {
  TYDER_SPAN("DurableCatalog.Reopen");
  std::lock_guard<std::mutex> lock(state_->writer_mu);
  // Drain the commit pipeline first: every record already queued in the
  // GroupWal reaches its batch — a durable ack or a definitive nack — before
  // recovery replaces the WAL handle, so no committer's fate is decided by a
  // writer that no longer exists. New committers block on writer_mu until
  // the reopen completes (and then see either the recovered healthy state or
  // the original degraded refusal).
  state_->group->Quiesce();
  if (state_->group->ConsumeStallIfPending()) ResetTipToDurableLocked();

  Result<DurableCatalog> fresh = Open(dir_, env_, state_->group_options);
  if (!fresh.ok()) {
    return Status::FailedPrecondition(
        "Reopen of '" + dir_ + "' failed; staying in " +
        std::string(degraded() ? "degraded" : "current") +
        " mode: " + fresh.status().message());
  }

  // Adopt the recovered state IN PLACE. CommitState (the writer lock, the
  // epoch layer, the group-commit queue) must stay address-stable: nacked
  // committers may still be blocked on writer_mu behind us, readers may hold
  // live Pins into the epoch layer, and a waiter may still be returning from
  // the old queue's Wait(). Only the catalog, the WAL handle, and the lsn
  // bookkeeping are replaced; `fresh`'s private CommitState dies unused.
  uint64_t lsn = fresh->last_lsn();
  *catalog_ = std::move(*fresh->catalog_);
  wal_ = std::move(fresh->wal_);
  state_->group->ResetWal(wal_.get());
  recovery_ = fresh->recovery_;
  {
    std::lock_guard<std::mutex> plock(state_->publish_mu);
    state_->pending_publish.clear();
    // Re-publish the recovered catalog. Recovery lands pre- or post- the
    // interrupted mutation: at a version past the published one this
    // advances the epoch; at the same version replay is deterministic, so
    // the published snapshot is already byte-identical and the stale
    // publish is dropped.
    state_->epochs.Publish(*catalog_, lsn);
    state_->durable_lsn.store(lsn, std::memory_order_release);
  }
  state_->tip_lsn = lsn;
  degraded_ = Status::OK();
  state_->degraded_flag.store(false, std::memory_order_release);
  TYDER_RECORD_V(kMark, "storage.reopen", static_cast<int64_t>(lsn));
  return Status::OK();
}

// Rolls the writer tip back to the last durable (published) epoch and drops
// every pending publish past it. Requires writer_mu, and no batch in flight
// (true whenever a stall is pending: the leader stalls the queue before any
// waiter can reach this path, and new enqueues are refused until the stall
// is consumed).
void DurableCatalog::ResetTipToDurableLocked() {
  EpochCatalog::Pin pin(state_->epochs);
  *catalog_ = *pin.get();  // Open always publishes, so the pin is never null
  uint64_t durable = state_->durable_lsn.load(std::memory_order_acquire);
  state_->tip_lsn = durable;
  std::lock_guard<std::mutex> lock(state_->publish_mu);
  state_->pending_publish.erase(state_->pending_publish.upper_bound(durable),
                                state_->pending_publish.end());
}

// Failure path shared by every committer that observed a commit failure
// (its own batch failing, a drain-fail, or an enqueue refusal) — and by
// entry points that may run before any failed waiter reacquired the lock.
// Exactly one caller consumes the stall and rolls the tip back; a poisoned
// WAL additionally degrades the database, exactly as a failed single-record
// fsync always has (first cause wins, so every waiter converges on the same
// degraded status).
void DurableCatalog::AbsorbFailureLocked(const Status& cause) {
  if (state_->group->ConsumeStallIfPending()) {
    ResetTipToDurableLocked();
  }
  if (wal_->poisoned()) {
    EnterDegraded("the WAL can no longer vouch for durability (" +
                  cause.message() + ")");
  }
}

// The group-commit path every logged mutation rides:
//
//   lock writer_mu → absorb any unconsumed failure → refuse if degraded
//   → apply the op to the tip (all-or-nothing via its SchemaTransaction)
//   → assign the next lsn, stash the tip snapshot for the leader to publish
//   → enqueue the record, UNLOCK, wait for the batch fsync
//
// On a durable ack the op returns success — its epoch is already published
// (the leader publishes before waking waiters). On any commit failure the
// op re-locks, rolls the tip back to the last durable epoch (unless another
// failed committer already did) and returns the failure: the caller
// observes pre-call state, and may retry once the disk recovers unless the
// failure poisoned the WAL (→ degraded).
template <typename ResultT, typename OpFn>
ResultT DurableCatalog::CommitLogged(std::string payload, OpFn&& op) {
  std::unique_lock<std::mutex> lock(state_->writer_mu);
  if (state_->group->stalled()) {
    AbsorbFailureLocked(Status::Internal("an earlier group commit failed"));
  }
  if (!degraded_.ok()) return degraded_;

  ResultT applied = op();
  if (!applied.ok()) return applied;  // refused by the catalog: tip untouched

  uint64_t lsn = ++state_->tip_lsn;
  {
    // Stash before enqueue: the leader may seal, fsync and publish this
    // record the instant it is queued.
    std::lock_guard<std::mutex> plock(state_->publish_mu);
    state_->pending_publish.emplace(lsn, *catalog_);
  }
  GroupWal::Ticket ticket;
  Status enqueued = state_->group->Enqueue(ticket, lsn, std::move(payload));
  if (!enqueued.ok()) {
    // A concurrent batch failed between our entry check and here; our op was
    // applied on a tip that can no longer become durable.
    AbsorbFailureLocked(enqueued);
    return enqueued;
  }

  lock.unlock();
  Status durable = state_->group->Wait(ticket);
  if (!durable.ok()) {
    std::lock_guard<std::mutex> relock(state_->writer_mu);
    AbsorbFailureLocked(durable);
    return durable;
  }
  return applied;
}

Result<const ViewDef*> DurableCatalog::DefineProjectionView(
    std::string_view name, std::string_view source_type,
    const std::vector<std::string>& attribute_names,
    const ProjectionOptions& options) {
  return CommitLogged<Result<const ViewDef*>>(
      ProjectOpText(name, source_type, attribute_names, options), [&] {
        return catalog_->DefineProjectionView(name, source_type,
                                              attribute_names, options);
      });
}

Result<const ViewDef*> DurableCatalog::DefineSelectionView(
    std::string_view name, std::string_view source_type) {
  return CommitLogged<Result<const ViewDef*>>(
      SelectOpText(name, source_type),
      [&] { return catalog_->DefineSelectionView(name, source_type); });
}

Result<const ViewDef*> DurableCatalog::DefineGeneralizationView(
    std::string_view name, std::string_view type_a, std::string_view type_b,
    const ProjectionOptions& options) {
  return CommitLogged<Result<const ViewDef*>>(
      GeneralizeOpText(name, type_a, type_b, options), [&] {
        return catalog_->DefineGeneralizationView(name, type_a, type_b,
                                                  options);
      });
}

Result<const ViewDef*> DurableCatalog::DefineRenameView(
    std::string_view name, std::string_view source_type,
    const std::vector<AttributeRename>& renames,
    const ProjectionOptions& options) {
  return CommitLogged<Result<const ViewDef*>>(
      RenameOpText(name, source_type, renames, options), [&] {
        return catalog_->DefineRenameView(name, source_type, renames, options);
      });
}

Status DurableCatalog::DropView(std::string_view name) {
  return CommitLogged<Status>(DropOpText(name),
                              [&] { return catalog_->DropView(name); });
}

Result<CollapseReport> DurableCatalog::Collapse() {
  return CommitLogged<Result<CollapseReport>>(
      std::string(kCollapseOpText), [&] { return catalog_->Collapse(); });
}

Status DurableCatalog::Seed(Catalog catalog) {
  std::lock_guard<std::mutex> lock(state_->writer_mu);
  state_->group->Quiesce();
  if (state_->group->ConsumeStallIfPending()) ResetTipToDurableLocked();
  if (!degraded_.ok()) return degraded_;
  if (recovery_.snapshot_loaded || last_lsn() != 0 ||
      !catalog_->views().empty()) {
    return Status::FailedPrecondition(
        "database '" + dir_ +
        "' already has durable state; refusing to overwrite it with a new "
        "schema");
  }
  *catalog_ = std::move(catalog);
  Status compacted = CompactLocked();
  if (compacted.ok()) {
    // The seed never rode the WAL, so publish it directly — the snapshot
    // write above made it durable.
    state_->epochs.Publish(*catalog_, last_lsn());
  }
  return compacted;
}

// Writes the snapshot bytes to `tmp_path` and fsyncs them. A failed fsync
// degrades the database: the file's durability can no longer be proven and
// a rename would publish a snapshot that might evaporate in a crash.
Status DurableCatalog::WriteSnapshot(const std::string& tmp_path,
                                     std::string_view bytes) {
  Result<std::unique_ptr<WritableFile>> file = env_->OpenTruncated(tmp_path);
  if (!file.ok()) return file.status();
  Status status = (*file)->Append(bytes);
  if (status.ok()) {
    status = (*file)->Sync();
    if (!status.ok() && (*file)->poisoned()) {
      EnterDegraded("snapshot fsync failed (" + status.message() + ")");
    }
  }
  return status;
}

Status DurableCatalog::Compact() {
  TYDER_SPAN("DurableCatalog.Compact");
  std::lock_guard<std::mutex> lock(state_->writer_mu);
  // Quiesce the commit pipeline: every enqueued record reaches its batch
  // fsync (and its epoch publish) or fails before we read the lsn the
  // snapshot will claim to cover. A stall surfaced during the drain is
  // absorbed here — tip back to the durable epoch, degraded if poisoned —
  // rather than deadlocking against failed waiters that also want the
  // writer lock (we hold it; they re-check after us).
  state_->group->Quiesce();
  if (state_->group->stalled()) {
    AbsorbFailureLocked(Status::Internal("a group commit failed"));
  }
  if (!degraded_.ok()) return degraded_;
  return CompactLocked();
}

Status DurableCatalog::CompactLocked() {
  std::string bytes = SaveCatalogSnapshot(*catalog_);
  std::string file_name = SnapshotFileName(last_lsn());
  std::string tmp_path = dir_ + "/" + file_name + ".tmp";
  std::string final_path = dir_ + "/" + file_name;

  // Until the WAL truncate below, any failure leaves the previous snapshot
  // plus the intact WAL as the recovery source: clean up the temp file,
  // report the failure, stay live (unless an fsync failure degraded us).
  Status status = WriteSnapshot(tmp_path, bytes);
  if (status.ok() && TYDER_FAULT_CONSUME("storage.compact.before_rename")) {
    // Simulated crash: temp snapshot written, never renamed. No cleanup —
    // the "process" is gone; the next successful compaction reclaims it.
    return Status::Internal(
        "fault injected at 'storage.compact.before_rename'");
  }
  if (status.ok()) status = env_->RenameFile(tmp_path, final_path);
  if (status.ok()) status = env_->SyncDir(dir_);
  if (!status.ok()) {
    (void)env_->RemoveFile(tmp_path);
    return status;
  }
  TYDER_COUNT("storage.snapshot_writes");
  // Snapshot live, WAL not yet truncated: recovery must skip the records the
  // snapshot already covers.
  TYDER_FAULT_POINT("storage.compact.after_rename");
  status = wal_->TruncateAll();
  if (!status.ok()) {
    if (wal_->poisoned()) {
      EnterDegraded("the WAL truncation after compaction could not be made "
                    "durable (" + status.message() + ")");
    }
    return status;
  }

  // Only now is it safe to drop older snapshots: up to this point a crash
  // could still need them (their WAL suffix was intact). Cleanup failures are
  // cosmetic — stale files are ignored or reclaimed by the next compaction.
  Result<std::vector<std::string>> entries = env_->ListDir(dir_);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      uint64_t lsn = 0;
      bool stale_snapshot =
          ParseSnapshotFileName(name, lsn) && name != file_name;
      bool stale_tmp = name.size() > 4 &&
                       name.compare(name.size() - 4, 4, ".tmp") == 0;
      if (stale_snapshot || stale_tmp) {
        (void)env_->RemoveFile(dir_ + "/" + name);
      }
    }
  }
  return Status::OK();
}

}  // namespace tyder::storage
