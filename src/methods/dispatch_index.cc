#include "methods/dispatch_index.h"

#include <algorithm>

#include "methods/applicability.h"
#include "objmodel/linearize.h"
#include "obs/obs.h"

namespace tyder {

DispatchIndex::DispatchIndex(const Schema& schema)
    : version_(schema.version()),
      num_types_(schema.types().NumTypes()),
      gfs_(schema.NumGenericFunctions()) {
  // One rank column per distinct formal of a multi-method gf.
  std::vector<uint32_t> col_of(num_types_, kNone);
  for (GfId gf = 0; gf < gfs_.size(); ++gf) {
    if (schema.gf(gf).methods.size() < 2) continue;
    for (MethodId m : schema.gf(gf).methods) {
      for (TypeId formal : schema.method(m).sig.params) {
        if (col_of[formal] == kNone) {
          col_of[formal] = static_cast<uint32_t>(num_cols_++);
        }
      }
    }
  }
  if (num_cols_ == 0) return;

  ranks_.assign(num_types_ * num_cols_, kNone);
  std::vector<std::vector<TypeId>> cpls =
      AllClassPrecedenceLists(schema.types());
  for (TypeId t = 0; t < num_types_; ++t) {
    for (size_t r = 0; r < cpls[t].size(); ++r) {
      uint32_t col = col_of[cpls[t][r]];
      if (col != kNone) ranks_[t * num_cols_ + col] = static_cast<uint32_t>(r);
    }
  }

  for (GfId gf = 0; gf < gfs_.size(); ++gf) {
    const GenericFunction& generic = schema.gf(gf);
    if (generic.methods.size() < 2) continue;
    Gf& g = gfs_[gf];
    g.arity = static_cast<uint32_t>(generic.arity);
    g.words = static_cast<uint32_t>((generic.methods.size() + 63) / 64);
    g.masks = masks_.size();
    g.cols = cols_.size();
    masks_.resize(masks_.size() + g.arity * num_types_ * g.words, 0);
    for (size_t j = 0; j < generic.methods.size(); ++j) {
      const std::vector<TypeId>& formals =
          schema.method(generic.methods[j]).sig.params;
      for (size_t pos = 0; pos < g.arity; ++pos) {
        uint32_t col = col_of[formals[pos]];
        cols_.push_back(col);
        // t ≼ formal iff the formal is in t's CPL.
        for (TypeId t = 0; t < num_types_; ++t) {
          if (ranks_[t * num_cols_ + col] == kNone) continue;
          masks_[g.masks + (pos * num_types_ + t) * g.words + (j >> 6)] |=
              uint64_t{1} << (j & 63);
        }
      }
    }
    if (g.arity == 1) {
      g.unary = unary_.size();
      for (TypeId t = 0; t < num_types_; ++t) {
        uint32_t best = Best(g, &t);
        unary_.push_back(best == kNone ? kInvalidMethod
                                       : generic.methods[best]);
      }
    }
  }
}

const DispatchIndex& DispatchIndex::Of(const Schema& schema) {
  DispatchIndexSlot& slot = schema.dispatch_index_slot();
  const DispatchIndex* index = slot.published_.load(std::memory_order_acquire);
  if (index != nullptr && index->version_ == schema.version()) return *index;

  std::lock_guard<std::mutex> lock(slot.mu_);
  // Another thread may have finished the build while we waited on the lock.
  index = slot.published_.load(std::memory_order_acquire);
  if (index != nullptr && index->version_ == schema.version()) return *index;
  TYDER_COUNT("dispatch.table_builds");
  std::unique_ptr<const DispatchIndex> built;
  {
    TYDER_TIMED("dispatch.index_build_ns");
    built.reset(new DispatchIndex(schema));
  }
  // The parked index was replaced before the mutation that made this build
  // necessary; the one replaced now may still be under a reader's version
  // check.
  slot.retired_ = std::move(slot.owner_);
  slot.owner_ = std::move(built);
  slot.published_.store(slot.owner_.get(), std::memory_order_release);
  return *slot.owner_;
}

bool DispatchIndex::MoreSpecific(const Gf& g, uint32_t a, uint32_t b,
                                 const TypeId* args) const {
  const uint32_t* col_a = cols_.data() + g.cols + a * g.arity;
  const uint32_t* col_b = cols_.data() + g.cols + b * g.arity;
  for (uint32_t pos = 0; pos < g.arity; ++pos) {
    const uint32_t* row = ranks_.data() + args[pos] * num_cols_;
    if (row[col_a[pos]] != row[col_b[pos]]) {
      return row[col_a[pos]] < row[col_b[pos]];
    }
  }
  return false;
}

template <typename Fn>
void DispatchIndex::ForEachApplicable(const Gf& g, const TypeId* args,
                                      Fn&& fn) const {
  for (uint32_t w = 0; w < g.words; ++w) {
    uint64_t bits = Mask(g, 0, args[0])[w];
    for (uint32_t pos = 1; pos < g.arity; ++pos) {
      bits &= Mask(g, pos, args[pos])[w];
    }
    for (; bits != 0; bits &= bits - 1) {
      fn((w << 6) + static_cast<uint32_t>(__builtin_ctzll(bits)));
    }
  }
}

uint32_t DispatchIndex::Best(const Gf& g, const TypeId* args) const {
  uint32_t best = kNone;
  ForEachApplicable(g, args, [&](uint32_t j) {
    if (best == kNone || MoreSpecific(g, j, best, args)) best = j;
  });
  return best;
}

MethodId DispatchIndex::Select(const Schema& schema, GfId gf,
                               std::span<const TypeId> args) const {
  const Gf& g = gfs_[gf];
  const std::vector<MethodId>& methods = schema.gf(gf).methods;
  if (g.words == 0) {
    return !methods.empty() && ApplicableToCall(schema, methods[0], args)
               ? methods[0]
               : kInvalidMethod;
  }
  if (g.arity == 1) return unary_[g.unary + args[0]];
  uint32_t best = Best(g, args.data());
  return best == kNone ? kInvalidMethod : methods[best];
}

std::vector<MethodId> DispatchIndex::Applicable(
    const Schema& schema, GfId gf, const std::vector<TypeId>& args) const {
  std::vector<MethodId> out;
  if (static_cast<int>(args.size()) != schema.gf(gf).arity) return out;
  const std::vector<MethodId>& methods = schema.gf(gf).methods;
  const Gf& g = gfs_[gf];
  if (g.words == 0) {
    if (!methods.empty() && ApplicableToCall(schema, methods[0], args)) {
      out.push_back(methods[0]);
    }
    return out;
  }
  ForEachApplicable(g, args.data(),
                    [&](uint32_t j) { out.push_back(methods[j]); });
  return out;
}

std::vector<MethodId> DispatchIndex::Order(
    const Schema& schema, GfId gf, const std::vector<TypeId>& args) const {
  const Gf& g = gfs_[gf];
  if (g.words == 0 || args.size() != g.arity) {
    return Applicable(schema, gf, args);
  }
  std::vector<uint32_t> positions;
  ForEachApplicable(g, args.data(),
                    [&](uint32_t j) { positions.push_back(j); });
  std::stable_sort(positions.begin(), positions.end(),
                   [&](uint32_t a, uint32_t b) {
                     return MoreSpecific(g, a, b, args.data());
                   });
  std::vector<MethodId> out;
  for (uint32_t j : positions) out.push_back(schema.gf(gf).methods[j]);
  return out;
}

void DispatchIndexSlot::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  published_.store(nullptr, std::memory_order_release);
  owner_.reset();
  retired_.reset();
}

}  // namespace tyder
