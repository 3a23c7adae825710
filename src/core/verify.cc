#include "core/verify.h"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <utility>

#include "common/failpoint.h"
#include "methods/applicability.h"
#include "methods/precedence.h"
#include "mir/type_check.h"
#include "obs/obs.h"

namespace tyder {

namespace {

// Calls `visit(b)` for every bit b set in `row`, ascending.
template <typename Visit>
void ForEachBit(std::span<const uint64_t> row, Visit&& visit) {
  for (size_t w = 0; w < row.size(); ++w) {
    for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      visit(static_cast<TypeId>(w * 64 + std::countr_zero(bits)));
    }
  }
}

// True iff rows `a` and `b` agree on bits [0, n).
bool SamePrefix(std::span<const uint64_t> a, std::span<const uint64_t> b,
                size_t n) {
  const size_t full = n / 64;
  if (!std::equal(a.begin(), a.begin() + full, b.begin())) return false;
  if (n % 64 == 0) return true;
  const uint64_t mask = (uint64_t{1} << (n % 64)) - 1;
  return ((a[full] ^ b[full]) & mask) == 0;
}

// True iff `row` and `mask` share a set bit.
bool Meets(std::span<const uint64_t> row, const std::vector<uint64_t>& mask) {
  for (size_t w = 0; w < row.size(); ++w) {
    if ((row[w] & mask[w]) != 0) return true;
  }
  return false;
}

// The names of t's cumulative attributes, the local attributes of every
// type in its ancestor row, into `names`, sorted and distinct.
void CumulativeAttrNames(const TypeGraph& graph, TypeId t,
                         std::vector<Symbol>* names) {
  names->clear();
  ForEachBit(graph.AncestorRow(t), [&](TypeId s) {
    for (AttrId a : graph.type(s).local_attributes()) {
      names->push_back(graph.attribute(a).name);
    }
  });
  std::sort(names->begin(), names->end());
  names->erase(std::unique(names->begin(), names->end()), names->end());
}

void CheckStatePreserved(const Schema& before, const Schema& after,
                         const std::vector<TypeId>& types,
                         std::vector<std::string>* issues) {
  std::vector<Symbol> pre, post;
  for (TypeId t : types) {
    CumulativeAttrNames(before.types(), t, &pre);
    CumulativeAttrNames(after.types(), t, &post);
    if (pre != post) {
      issues->push_back("cumulative state of '" + before.types().TypeName(t) +
                        "' changed");
    }
  }
}

void CheckDerivedType(const Schema& after, const DerivationResult& result,
                      std::vector<std::string>* issues) {
  TypeId derived = result.derived;
  if (derived >= after.types().NumTypes()) {
    issues->push_back("derived type id out of range");
    return;
  }
  // State: the derived type's cumulative attributes are exactly the
  // projection list.
  std::set<AttrId> expected(result.spec.attributes.begin(),
                            result.spec.attributes.end());
  std::vector<AttrId> actual_list = after.types().CumulativeAttributes(derived);
  std::set<AttrId> actual(actual_list.begin(), actual_list.end());
  if (!expected.empty() &&
      (expected != actual || actual_list.size() != actual.size())) {
    issues->push_back(
        "derived type state differs from the projection list");
  }
  for (MethodId m : result.applicability.applicable) {
    if (!ApplicableToType(after, m, derived)) {
      issues->push_back("method '" + after.method(m).label.str() +
                        "' was inferred applicable but is not applicable to "
                        "the derived type after factoring");
    }
  }
  for (MethodId m : result.applicability.not_applicable) {
    if (ApplicableToType(after, m, derived)) {
      issues->push_back("method '" + after.method(m).label.str() +
                        "' was inferred not applicable but is applicable to "
                        "the derived type after factoring");
    }
  }
}

// Per argument position of `g`, the pre-existing types (ascending) under
// some formal of `g` at that position in either schema. A call with an
// argument outside its position's list has no applicable method in either
// schema, so its outcome cannot change.
std::vector<std::vector<TypeId>> CandidateArgs(const Schema& before,
                                               const Schema& after, GfId g) {
  size_t n = before.types().NumTypes();
  std::vector<std::vector<TypeId>> lists(
      static_cast<size_t>(before.gf(g).arity));
  for (size_t i = 0; i < lists.size(); ++i) {
    for (TypeId t = 0; t < n; ++t) {
      auto under_a_formal = [&](const Schema& schema) {
        for (MethodId m : schema.gf(g).methods) {
          if (schema.types().IsSubtype(t, schema.method(m).sig.params[i])) {
            return true;
          }
        }
        return false;
      };
      if (under_a_formal(before) || under_a_formal(after)) {
        lists[i].push_back(t);
      }
    }
  }
  return lists;
}

// Calls `visit` on every tuple of lists[0] × … × lists[n-1], in
// lexicographic order (last position fastest).
template <typename Visit>
void ForEachTuple(const std::vector<std::vector<TypeId>>& lists,
                  Visit&& visit) {
  for (const std::vector<TypeId>& list : lists) {
    if (list.empty()) return;
  }
  std::vector<size_t> at(lists.size(), 0);
  std::vector<TypeId> args(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) args[i] = lists[i][0];
  for (;;) {
    visit(args);
    size_t i = lists.size();
    while (i > 0 && ++at[i - 1] == lists[i - 1].size()) at[--i] = 0;
    if (i == 0) return;
    for (size_t k = i - 1; k < lists.size(); ++k) args[k] = lists[k][at[k]];
  }
}

bool SameOutcome(const std::vector<MethodId>& pre,
                 const std::vector<MethodId>& post) {
  return pre.empty() == post.empty() &&
         (pre.empty() || pre.front() == post.front());
}

void SweepGf(const Schema& before, const Schema& after, GfId g,
             std::vector<std::string>* issues) {
  const GenericFunction& gf = before.gf(g);
  ForEachTuple(CandidateArgs(before, after, g),
               [&](const std::vector<TypeId>& args) {
    // Both schemas are mid-derivation: going through Dispatch() would build
    // a dispatch index per schema for these probes alone. Compare the
    // specificity order directly — the dispatch outcome is its front (or
    // NotFound if empty).
    TYDER_COUNT("verify.dispatch_probes");
    if (SameOutcome(SortBySpecificity(before, g, args),
                    SortBySpecificity(after, g, args))) {
      return;
    }
    std::string call = gf.name.str() + "(";
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) call += ", ";
      call += before.types().TypeName(args[i]);
    }
    call += ")";
    issues->push_back("dispatch of " + call + " changed");
  });
}

// One schema's side of a verification: its precedence memo, the CPL rank
// tables that probes read from it, and the buffers a probe reuses.
class Side {
 public:
  explicit Side(const Schema& schema)
      : schema_(schema),
        memo_(schema.types()),
        ranks_(schema.types().NumTypes()) {}

  std::span<const TypeId> Cpl(TypeId t) { return memo_.Cpl(t); }

  // The dispatch outcome of g(args): its most specific applicable method,
  // or kInvalidMethod when none applies.
  MethodId Outcome(GfId g, std::span<const TypeId> args) {
    applicable_.clear();
    for (MethodId m : schema_.gf(g).methods) {
      if (ApplicableToCall(schema_, m, args)) applicable_.push_back(m);
    }
    if (applicable_.size() < 2) {
      return applicable_.empty() ? kInvalidMethod : applicable_.front();
    }
    arg_ranks_.clear();
    for (TypeId t : args) arg_ranks_.push_back(Ranks(t));
    return MostSpecificOf(schema_, arg_ranks_, applicable_);
  }

 private:
  // t's CPL as a dense rank table, filled from the memo on first use. Types
  // outside the CPL rank after every member.
  std::span<const uint32_t> Ranks(TypeId t) {
    std::vector<uint32_t>& rank = ranks_[t];
    if (rank.empty()) {
      rank.assign(ranks_.size(), static_cast<uint32_t>(ranks_.size()));
      std::span<const TypeId> cpl = memo_.Cpl(t);
      for (size_t r = 0; r < cpl.size(); ++r) {
        rank[cpl[r]] = static_cast<uint32_t>(r);
      }
    }
    return rank;
  }

  const Schema& schema_;
  CplMemo memo_;
  std::vector<std::vector<uint32_t>> ranks_;  // by type; empty until used
  std::vector<MethodId> applicable_;
  std::vector<std::span<const uint32_t>> arg_ranks_;
};

// The Section 5 certificate's inputs and verdicts, diffed out of the two
// schemas (see verify.h).
class Certificate {
 public:
  Certificate(const Schema& before, const Schema& after)
      : before_(before),
        after_(after),
        n_(before.types().NumTypes()),
        pre_side_(before),
        post_side_(after),
        cpl_(n_, kUnchecked) {
    const TypeGraph& pre = before.types();
    const TypeGraph& post = after.types();
    // The touched types as masks over each graph's ancestor rows.
    std::vector<uint64_t> touched_pre((n_ + 63) / 64);
    std::vector<uint64_t> touched_post((post.NumTypes() + 63) / 64);
    for (TypeId t = 0; t < post.NumTypes(); ++t) {
      if (t >= n_ ||
          pre.type(t).supertypes() != post.type(t).supertypes() ||
          pre.type(t).local_attributes() != post.type(t).local_attributes()) {
        const uint64_t bit = uint64_t{1} << (t % 64);
        touched_post[t / 64] |= bit;
        if (t < n_) touched_pre[t / 64] |= bit;
      }
    }
    in_d_.assign(n_, false);
    for (TypeId t = 0; t < n_; ++t) {
      if (Meets(post.AncestorRow(t), touched_post) ||
          Meets(pre.AncestorRow(t), touched_pre)) {
        in_d_[t] = true;
        d_.push_back(t);
      }
    }
    // (i). A type outside D has no touched ancestor in either schema, so its
    // row is the same in both. Without (i) nothing below holds: every type's
    // state is compared and every gf is swept.
    for (TypeId t : d_) {
      if (!SamePrefix(pre.AncestorRow(t), post.AncestorRow(t), n_)) {
        relation_kept_ = false;
        break;
      }
    }
    if (!relation_kept_) {
      d_.resize(n_);
      std::iota(d_.begin(), d_.end(), TypeId{0});
    }
  }

  // (iv): the pre-existing types whose cumulative state must be compared,
  // ascending.
  const std::vector<TypeId>& state_types() const { return d_; }

  // (ii) and (iii) for one gf: true iff its dispatch over pre-existing types
  // is proven unchanged.
  bool DispatchKept(GfId g) {
    if (!relation_kept_) return false;
    const std::vector<MethodId>& methods = before_.gf(g).methods;
    if (methods != after_.gf(g).methods) return false;
    bool rehomed = false;
    for (MethodId m : methods) {
      const std::vector<TypeId>& old_params = before_.method(m).sig.params;
      const std::vector<TypeId>& new_params = after_.method(m).sig.params;
      for (size_t i = 0; i < old_params.size(); ++i) {
        if (old_params[i] == new_params[i]) continue;
        if (new_params[i] < n_ || !AdmitsSame(old_params[i], new_params[i])) {
          return false;
        }
        rehomed = true;
      }
    }
    if (methods.size() < 2) return true;
    // Outside D every argument keeps its class precedence list, and a
    // re-homed formal (a new type) admits no argument outside D, so only
    // tuples with an argument in D can sort differently. With no formal
    // re-homed, every formal is pre-existing and the order compares only
    // formals' ranks in each argument's CPL: only a type of D whose CPL,
    // restricted to pre-existing types, changed can sort differently.
    auto inside = [&](TypeId t) {
      return in_d_[t] && (rehomed || CplChanged(t));
    };
    if (!rehomed && !AnyChangedUnder(methods)) return true;
    // Enumerate each tuple with an argument inside once, by the first
    // position that holds one.
    std::vector<std::vector<TypeId>> all = CandidateArgs(before_, after_, g);
    std::vector<std::vector<TypeId>> in(all.size()), out(all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      for (TypeId t : all[i]) (inside(t) ? in : out)[i].push_back(t);
    }
    bool kept = true;
    for (size_t k = 0; k < all.size() && kept; ++k) {
      std::vector<std::vector<TypeId>> lists(all.size());
      for (size_t i = 0; i < all.size(); ++i) {
        lists[i] = i < k ? out[i] : i == k ? in[i] : all[i];
      }
      ForEachTuple(lists, [&](const std::vector<TypeId>& args) {
        if (!kept) return;
        TYDER_COUNT("verify.dispatch_probes");
        kept = pre_side_.Outcome(g, args) == post_side_.Outcome(g, args);
      });
    }
    return kept;
  }

 private:
  enum CplVerdict : uint8_t { kUnchecked, kSame, kChanged };

  // (ii) for one rewrite old → new, memoized per pair.
  bool AdmitsSame(TypeId old_formal, TypeId new_formal) {
    auto key = std::make_pair(old_formal, new_formal);
    auto it = admits_same_.find(key);
    if (it != admits_same_.end()) return it->second;
    bool same = true;
    for (TypeId t = 0; t < n_ && same; ++t) {
      same = before_.types().IsSubtype(t, old_formal) ==
             after_.types().IsSubtype(t, new_formal);
    }
    admits_same_.emplace(key, same);
    return same;
  }

  // (iii) for one type of D, memoized: true iff its CPL restricted to the
  // pre-existing types differs between the schemas.
  bool CplChanged(TypeId t) {
    if (cpl_[t] == kUnchecked) {
      std::span<const TypeId> pre = pre_side_.Cpl(t);
      std::span<const TypeId> post = post_side_.Cpl(t);
      size_t i = 0;
      bool same = true;
      for (TypeId x : post) {
        if (x >= n_) continue;
        same = i < pre.size() && pre[i] == x;
        if (!same) break;
        ++i;
      }
      same = same && i == pre.size();
      if (!same) TYDER_COUNT("verify.cpl_changed");
      cpl_[t] = same ? kSame : kChanged;
    }
    return cpl_[t] == kChanged;
  }

  // True iff some type of D under a formal of `methods` (all unchanged and
  // pre-existing) has a changed restricted CPL.
  bool AnyChangedUnder(const std::vector<MethodId>& methods) {
    for (TypeId t : d_) {
      bool under = false;
      for (MethodId m : methods) {
        for (TypeId formal : before_.method(m).sig.params) {
          under = under || before_.types().IsSubtype(t, formal);
        }
      }
      if (under && CplChanged(t)) return true;
    }
    return false;
  }

  const Schema& before_;
  const Schema& after_;
  size_t n_;  // pre-existing types are the ids below n_
  Side pre_side_, post_side_;
  std::vector<bool> in_d_;
  std::vector<TypeId> d_;  // ascending
  bool relation_kept_ = true;
  std::map<std::pair<TypeId, TypeId>, bool> admits_same_;
  std::vector<CplVerdict> cpl_;  // by pre-existing type
};

}  // namespace

void CheckDispatchPreserved(const Schema& before, const Schema& after,
                            std::vector<std::string>* issues) {
  for (GfId g = 0; g < before.NumGenericFunctions(); ++g) {
    SweepGf(before, after, g, issues);
  }
}

std::string VerifyReport::ToString() const {
  if (ok()) return "OK";
  std::string out;
  for (const std::string& issue : issues) {
    out += issue;
    out += "\n";
  }
  return out;
}

VerifyReport VerifyDerivation(const Schema& before, const Schema& after,
                              const DerivationResult& result) {
  VerifyReport report;
  // Fault point driving the genuine report-rejection path (the pipeline turns
  // a non-empty report into Status::Internal and rolls the schema back).
  if (TYDER_FAULT_CONSUME("verify.force_failure")) {
    report.issues.push_back("fault injected at 'verify.force_failure'");
  }
  Status valid = after.Validate();
  if (!valid.ok()) {
    report.issues.push_back("schema invalid after derivation: " +
                            valid.ToString());
  }
  Status typed = TypeCheckSchema(after);
  if (!typed.ok()) {
    report.issues.push_back("schema fails static type checking: " +
                            typed.ToString());
  }
  Certificate cert(before, after);
  CheckStatePreserved(before, after, cert.state_types(), &report.issues);
  for (GfId g = 0; g < before.NumGenericFunctions(); ++g) {
    if (cert.DispatchKept(g)) continue;
    TYDER_COUNT("verify.gf_sweeps");
    SweepGf(before, after, g, &report.issues);
  }
  CheckDerivedType(after, result, &report.issues);
  return report;
}

}  // namespace tyder
