// AnalysisCacheSlot: a version-tagged holder for one lazily derived analysis
// structure (today the relevant-call extractions of mir/call_graph.cc).
//
// A slot stores an opaque shared_ptr plus the schema version it was built
// for. GetOrBuild() returns the cached structure while the version matches
// and rebuilds it otherwise, so invalidation is automatic: any schema
// mutation bumps the version and the next reader rebuilds.
//
// Slots are embedded `mutable` in value types (Schema) that are copied for
// snapshots, so copy/move semantics deliberately do NOT transfer the cache:
// a copy starts cold, and assigning over a slot drops whatever it held
// (the content it described has just been replaced). This is what makes
// SchemaTransaction rollback — a whole-schema copy-assign — implicitly
// invalidate every derived structure.
//
// Thread-safety: the slot itself is mutex-guarded, so concurrent readers of
// a structurally frozen schema may GetOrBuild() from many threads; the first
// one builds, the rest wait and share the result. The *built* structure is
// shared across threads and must handle its own interior synchronization.

#ifndef TYDER_COMMON_ANALYSIS_CACHE_H_
#define TYDER_COMMON_ANALYSIS_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace tyder {

class AnalysisCacheSlot {
 public:
  AnalysisCacheSlot() = default;
  AnalysisCacheSlot(const AnalysisCacheSlot&) {}
  AnalysisCacheSlot& operator=(const AnalysisCacheSlot&) {
    Invalidate();
    return *this;
  }
  AnalysisCacheSlot(AnalysisCacheSlot&&) noexcept {}
  AnalysisCacheSlot& operator=(AnalysisCacheSlot&&) noexcept {
    Invalidate();
    return *this;
  }

  // Returns the structure cached for `version`, building it with `build()`
  // (-> std::shared_ptr<T>) if the slot is empty or stale. The build runs
  // under the slot lock: concurrent first readers block instead of building
  // duplicates.
  template <typename T, typename BuildFn>
  std::shared_ptr<T> GetOrBuild(uint64_t version, BuildFn&& build) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (data_ == nullptr || version_ != version) {
      data_ = std::forward<BuildFn>(build)();
      version_ = version;
    }
    return std::static_pointer_cast<T>(data_);
  }

  void Invalidate() const {
    std::lock_guard<std::mutex> lock(mu_);
    data_.reset();
    version_ = kNoVersion;
  }

 private:
  static constexpr uint64_t kNoVersion = UINT64_MAX;

  mutable std::mutex mu_;
  mutable uint64_t version_ = kNoVersion;
  mutable std::shared_ptr<void> data_;
};

}  // namespace tyder

#endif  // TYDER_COMMON_ANALYSIS_CACHE_H_
