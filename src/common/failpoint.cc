#include "common/failpoint.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/string_util.h"
#include "obs/obs.h"

namespace tyder::failpoint {

namespace {

// The registry of every fault point wired into the codebase. Adding a
// TYDER_FAULT_POINT call site requires adding its name here (GetPoint aborts
// on unknown names); tests iterate AllFaultPointNames to cover each one.
const char* const kFaultPointNames[] = {
    "augment.after_compute",     // pipeline: after ComputeAugmentSet, pre-Augment
    "augment.before",            // Augment entry (schema already factored)
    "augment.mid",               // inside Augmenter recursion, partial edges
    "catalog.define.after_derive",  // view derived but not yet recorded
    "catalog.drop.mid",          // view reverted/detached but not yet erased
    "chaos.skip_closure_invalidation",  // behavior perturbation, not a
                                 // failure: AddSupertype keeps the stale
                                 // subtype closure (tests/fuzz known-bad run)
    "collapse.before",           // CollapseEmptySurrogates entry
    "collapse.mid",              // after a surrogate was spliced out
    "factor_methods.before",     // FactorMethods entry
    "factor_methods.mid",        // after some signatures already rewritten
    "factor_state.before",       // FactorState entry
    "factor_state.mid",          // mid-recursion, surrogates partially created
    "is_applicable.before",      // ComputeApplicableMethods entry
    "is_applicable.mid",         // inside the per-method applicability check
    "net.accept",                // accepted socket dies before service
    "net.conn.drop_mid_request", // connection killed post-read, pre-execute
    "net.read.eintr",            // one synthetic EINTR on the read path
    "net.read.short",            // peer closes mid-frame
    "net.write.response",        // response write fails AFTER the commit
    "revert.before",             // RevertDerivation after preconditions
    "revert.mid",                // signatures restored, attributes not yet
    "storage.compact.after_rename",   // snapshot live, WAL not yet truncated
    "storage.compact.before_rename",  // temp snapshot written, not renamed
    "storage.env.append",        // write(2) fails, nothing persisted
    "storage.env.rename",        // rename(2) fails
    "storage.env.short_write",   // a prefix persists, then the write fails
    "storage.env.sync",          // fsync(fd) fails -> handle poisoned
    "storage.env.sync_dir",      // directory fsync fails
    "storage.env.truncate",      // ftruncate/truncate fails
    "storage.wal.after_append",  // record bytes written, before fsync
    "storage.wal.after_sync",    // record durable, commit not yet published
    "storage.wal.mid_fsync",     // the record's fsync itself fails
    "storage.wal.torn_write",    // only a prefix of the record reaches disk
    "verify.before",             // pre-verification, schema fully mutated
    "verify.force_failure",      // makes VerifyDerivation report an issue
};

class Registry {
 public:
  static Registry& Global() {
    static Registry* instance = new Registry();
    return *instance;
  }

  FailPoint* Find(std::string_view name) {
    auto it = points_.find(name);
    return it == points_.end() ? nullptr : &it->second;
  }

  const std::vector<std::string>& names() const { return names_; }

  void DeactivateAll() {
    for (auto& [name, point] : points_) {
      point.remaining.store(0, std::memory_order_relaxed);
    }
  }

 private:
  Registry() {
    for (const char* name : kFaultPointNames) {
      names_.emplace_back(name);
      points_.try_emplace(name);  // atomics: must construct in place
    }
    ActivateFromEnv();
  }

  // TYDER_FAULTS=name[=count],name[=count],...
  void ActivateFromEnv() {
    const char* env = std::getenv("TYDER_FAULTS");
    if (env == nullptr || *env == '\0') return;
    for (const std::string& entry : SplitAndTrim(env, ',')) {
      if (entry.empty()) continue;
      std::string name = entry;
      int count = -1;
      size_t eq = entry.find('=');
      if (eq != std::string::npos) {
        name = entry.substr(0, eq);
        count = std::atoi(entry.c_str() + eq + 1);
      }
      FailPoint* point = Find(name);
      if (point == nullptr) {
        std::fprintf(stderr,
                     "tyder: TYDER_FAULTS names unknown fault point '%s' "
                     "(ignored)\n",
                     name.c_str());
        continue;
      }
      point->remaining.store(count, std::memory_order_relaxed);
    }
  }

  std::map<std::string, FailPoint, std::less<>> points_;
  std::vector<std::string> names_;
};

}  // namespace

const std::vector<std::string>& AllFaultPointNames() {
  return Registry::Global().names();
}

FailPoint* GetPoint(std::string_view name) {
  FailPoint* point = Registry::Global().Find(name);
  if (point == nullptr) {
    std::fprintf(stderr,
                 "tyder: fault point '%.*s' is not in the registry list in "
                 "failpoint.cc\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return point;
}

void Activate(std::string_view name, int count) {
  GetPoint(name)->remaining.store(count, std::memory_order_relaxed);
}

void Deactivate(std::string_view name) {
  GetPoint(name)->remaining.store(0, std::memory_order_relaxed);
}

void DeactivateAll() { Registry::Global().DeactivateAll(); }

uint64_t FireCount(std::string_view name) {
  return GetPoint(name)->fires.load(std::memory_order_relaxed);
}

Status Fire(FailPoint* point, const char* name) {
  // Take one shot in a single atomic step: threads racing for the last shot
  // of a counted point must not both take it, or `remaining` drops below
  // zero and the point fires on every hit until deactivated.
  int remaining = point->remaining.load(std::memory_order_relaxed);
  while (remaining > 0 &&
         !point->remaining.compare_exchange_weak(remaining, remaining - 1,
                                                 std::memory_order_relaxed)) {
  }
  if (remaining == 0) return Status::OK();
  point->fires.fetch_add(1, std::memory_order_relaxed);
  // Black-box the injection: the event lands in the thread's ring, and if a
  // dump directory is configured (the crash matrix arms one) the full
  // flight dump ships alongside the injected failure.
  TYDER_RECORD_V(kFailpoint, name,
                 static_cast<int64_t>(
                     point->fires.load(std::memory_order_relaxed)));
  TYDER_FLIGHT_DUMP(std::string("failpoint:") + name);
  return Status::Internal("fault injected at '" + std::string(name) + "'");
}

bool Consume(const char* name) {
#if TYDER_FAILPOINTS_ENABLED
  FailPoint* point = GetPoint(name);
  if (point->remaining.load(std::memory_order_relaxed) == 0) return false;
  return !Fire(point, name).ok();
#else
  (void)name;
  return false;
#endif
}

}  // namespace tyder::failpoint
