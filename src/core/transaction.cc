#include "core/transaction.h"

#include <chrono>
#include <utility>

#include "obs/obs.h"

namespace tyder {

namespace {

// The innermost live transaction on this thread. A plain thread_local:
// transactions are strictly scope-nested, so the stack is the chain of
// `outer_` links.
thread_local SchemaTransaction* g_innermost = nullptr;

}  // namespace

SchemaTransaction::SchemaTransaction(Schema& schema)
    : SchemaTransaction(schema, nullptr) {}

SchemaTransaction::SchemaTransaction(Schema& schema,
                                     std::shared_ptr<const Schema> pre_state)
    : schema_(schema),
      snapshot_(std::move(pre_state)),
      outer_(g_innermost),
      depth_(outer_ == nullptr ? 1 : outer_->depth_ + 1) {
  if (snapshot_ == nullptr) {
    // Every mutation bumps the version, so an unchanged version means the
    // enclosing transaction's snapshot is exactly today's schema.
    bool unchanged = outer_ != nullptr && &outer_->schema_ == &schema &&
                     outer_->snapshot_->version() == schema.version();
    snapshot_ = unchanged ? outer_->snapshot_
                          : std::make_shared<const Schema>(schema);
  }
  g_innermost = this;
  TYDER_COUNT("transaction.begins");
}

SchemaTransaction::~SchemaTransaction() {
  if (!committed_) Rollback();
  g_innermost = outer_;
}

Status SchemaTransaction::Commit() {
  if (committed_) return Status::OK();
  committed_ = true;
  return Status::OK();
}

std::shared_ptr<const Schema> SchemaTransaction::ReleaseSnapshot() {
  committed_ = true;
  return snapshot_;
}

void SchemaTransaction::Rollback() {
  TYDER_COUNT("projection.rollbacks");
  TYDER_TIMED("projection.rollback_ns");
  TYDER_RECORD_V(kOp, "txn.rollback", depth_);
  obs::Narrate(nullptr, "transaction rollback");
  schema_ = *snapshot_;
}

}  // namespace tyder
