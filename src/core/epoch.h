// SchemaEpoch layer: copy-on-write catalog snapshots with epoch-based
// reclamation, so IsSubtype / dispatch / query run lock-free against a
// frozen schema while writers commit.
//
// Model. Every committed transaction publishes an immutable Catalog snapshot
// via a single atomic pointer swap (EpochCatalog::Publish). Readers pin the
// current snapshot with a wait-free guard (EpochCatalog::Pin): one epoch
// load, one store into the thread's own cache-line-sized announce slot
// (modeled on obs/sharded_counter.h's per-thread-slot design), one pointer
// load — no CAS loop, no retry, no lock. A retired snapshot is reclaimed
// only when no reader can still observe it.
//
// Safety argument (all announce/pointer accesses are seq_cst; E is the value
// of the global epoch counter after the bump that follows a publish):
//
//   reader:  e = epoch.load;  slot.store(e);  p = current.load;
//   writer:  current.store(new);  tag = epoch.fetch_add(1);  retire(old,tag);
//
// If the reader's pointer load returned `old`, that load preceded the
// writer's `current.store(new)` in the seq_cst total order, so the reader's
// epoch load preceded the bump and e <= tag. Contrapositive: a slot
// announcing a value > tag cannot hold the retired snapshot — so `old` is
// reclaimed once every non-zero announce slot exceeds its tag. A writer scan
// that misses an in-flight announce is equally safe: the scan then precedes
// the announce in the total order, so the reader's subsequent pointer load
// follows `current.store(new)` and returns the new snapshot, never the
// reclaimed one. Stale-low announces only ever delay reclamation.
//
// Nested pins on one thread share the slot: the outermost pin owns it and
// inner pins never overwrite the (older, therefore more conservative)
// announce. Announce slots live in a process-wide pool with free-list reuse
// at thread exit, so stress suites that churn hundreds of short-lived
// threads keep the wait-free path; threads beyond the pool share a
// mutex-guarded overflow set whose minimum is exported to the scan.
//
// Writers (Publish / TryReclaim) serialize on an internal mutex; the storage
// layer calls Publish from the group-commit leader (storage/wal.h) after the
// batch fsync, so an epoch is observable only once its records are durable.
// Destruction requires external quiescence: no live Pin may outlive its
// EpochCatalog.

#ifndef TYDER_CORE_EPOCH_H_
#define TYDER_CORE_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "catalog/catalog.h"

namespace tyder {

namespace epoch_internal {
// The calling thread's announce slot, leased from the process-wide pool
// (free-listed back at thread exit). Returns kOverflowSlot when the pool is
// exhausted; the pin then takes the mutex-guarded overflow path.
inline constexpr size_t kOverflowSlot = static_cast<size_t>(-1);
size_t ThisThreadAnnounceSlot();

// Announce / overflow primitives shared by every EpochCatalog (the epoch
// counter is process-wide, so one slot pool serves all instances; a foreign
// instance's reader merely delays reclamation, never unblocks it wrongly).
uint64_t CurrentEpoch();
uint64_t BumpEpoch();  // returns the pre-bump value (the retire tag)
// Announces `e` in `slot` if the slot is free; returns true when this call
// now owns the slot (and must clear it on unpin).
bool AnnounceSlot(size_t slot, uint64_t e);
void ClearSlot(size_t slot);
void AnnounceOverflow(uint64_t e);
void ClearOverflow(uint64_t e);
// The smallest live announce across slots and overflow; 0 when none.
uint64_t MinAnnounce();
}  // namespace epoch_internal

// An immutable published Catalog snapshot plus the version (WAL lsn) it
// corresponds to. Readers access it only through EpochCatalog::Pin.
class EpochCatalog {
  struct Node;  // defined below; forward-declared so Pin can hold one

 public:
  EpochCatalog() = default;
  // Requires quiescence: no concurrent Pin/Publish. Frees every snapshot.
  ~EpochCatalog();

  EpochCatalog(const EpochCatalog&) = delete;
  EpochCatalog& operator=(const EpochCatalog&) = delete;

  // Publishes `snapshot` as the new current epoch iff `version` advances
  // past the published version (stale publishes are dropped — the group
  // commit leader publishes batches in order, but a Compact republish may
  // race a later batch). Retires the previous snapshot and opportunistically
  // reclaims whatever no reader can still observe.
  void Publish(Catalog snapshot, uint64_t version);

  // Version of the current published snapshot; 0 before the first Publish.
  uint64_t published_version() const {
    const Node* node = current_.load(std::memory_order_acquire);
    return node != nullptr ? node->version : 0;
  }

  // Snapshots freed so far / retired but still pinned (reclamation tests).
  uint64_t reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  size_t retired_pending() const;
  // Scans the announce slots and frees every retired snapshot no reader can
  // observe; returns how many were freed. Publish does this implicitly.
  size_t TryReclaim();

  // Wait-free reader guard. The pinned snapshot (and every cache hanging off
  // its Schema — ancestor bitsets, the dispatch index) stays valid and
  // internally consistent for the guard's lifetime, no matter how many
  // epochs writers publish and retire meanwhile.
  class Pin {
   public:
    explicit Pin(const EpochCatalog& epochs);
    ~Pin();

    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    // nullptr iff nothing has been published yet.
    const Catalog* get() const {
      return node_ != nullptr ? &node_->snapshot : nullptr;
    }
    const Catalog& operator*() const { return node_->snapshot; }
    const Catalog* operator->() const { return &node_->snapshot; }
    uint64_t version() const { return node_ != nullptr ? node_->version : 0; }

   private:
    const Node* node_;
    size_t slot_;
    bool owns_slot_ = false;
    uint64_t announced_ = 0;  // overflow path only
  };

 private:
  struct Node {
    Catalog snapshot;
    uint64_t version = 0;
    uint64_t retire_tag = 0;  // epoch at retirement; 0 while current
    Node* retire_next = nullptr;
    Node(Catalog s, uint64_t v) : snapshot(std::move(s)), version(v) {}
  };

  size_t ReclaimLocked();  // requires writer_mu_

  std::atomic<Node*> current_{nullptr};
  mutable std::mutex writer_mu_;  // serializes Publish / reclaim scans
  Node* retired_head_ = nullptr;  // guarded by writer_mu_
  std::atomic<uint64_t> reclaimed_{0};
};

}  // namespace tyder

#endif  // TYDER_CORE_EPOCH_H_
