#include "core/verify.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "common/failpoint.h"
#include "methods/applicability.h"
#include "methods/precedence.h"
#include "mir/type_check.h"
#include "obs/obs.h"

namespace tyder {

namespace {

std::set<Symbol> CumulativeAttrNames(const Schema& schema, TypeId t) {
  std::set<Symbol> names;
  for (AttrId a : schema.types().CumulativeAttributes(t)) {
    names.insert(schema.types().attribute(a).name);
  }
  return names;
}

void CheckStatePreserved(const Schema& before, const Schema& after,
                         const std::vector<TypeId>& types,
                         std::vector<std::string>* issues) {
  for (TypeId t : types) {
    std::set<Symbol> pre = CumulativeAttrNames(before, t);
    std::set<Symbol> post = CumulativeAttrNames(after, t);
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

// The Section 5 certificate's inputs and verdicts, diffed out of the two
// schemas (see verify.h).
class Certificate {
 public:
  Certificate(const Schema& before, const Schema& after)
      : before_(before),
        after_(after),
        n_(before.types().NumTypes()),
        ranks_before_(n_),
        ranks_after_(n_) {
    const TypeGraph& pre = before.types();
    const TypeGraph& post = after.types();
    std::vector<TypeId> touched;
    for (TypeId t = 0; t < post.NumTypes(); ++t) {
      if (t >= n_ ||
          pre.type(t).supertypes() != post.type(t).supertypes() ||
          pre.type(t).local_attributes() != post.type(t).local_attributes()) {
        touched.push_back(t);
      }
    }
    in_d_.assign(n_, false);
    for (TypeId t = 0; t < n_; ++t) {
      for (TypeId x : touched) {
        if (post.IsSubtype(t, x) || (x < n_ && pre.IsSubtype(t, x))) {
          in_d_[t] = true;
          d_.push_back(t);
          break;
        }
      }
    }
    // (i). Without it nothing below holds: every type's state is compared
    // and every gf is swept.
    for (TypeId a = 0; a < n_ && relation_kept_; ++a) {
      for (TypeId b = 0; b < n_ && relation_kept_; ++b) {
        relation_kept_ = pre.IsSubtype(a, b) == post.IsSubtype(a, b);
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
    for (MethodId m : methods) {
      const std::vector<TypeId>& old_params = before_.method(m).sig.params;
      const std::vector<TypeId>& new_params = after_.method(m).sig.params;
      for (size_t i = 0; i < old_params.size(); ++i) {
        if (old_params[i] == new_params[i]) continue;
        if (new_params[i] < n_ || !AdmitsSame(old_params[i], new_params[i])) {
          return false;
        }
      }
    }
    if (methods.size() < 2) return true;
    // Outside D every argument keeps its class precedence list, and a
    // re-homed formal (a new type) admits no argument outside D, so only
    // tuples with an argument in D can sort differently. Enumerate each such
    // tuple once, by the first position that holds a member of D.
    std::vector<std::vector<TypeId>> all = CandidateArgs(before_, after_, g);
    std::vector<std::vector<TypeId>> inside(all.size()), outside(all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      for (TypeId t : all[i]) (in_d_[t] ? inside : outside)[i].push_back(t);
    }
    bool kept = true;
    for (size_t k = 0; k < all.size() && kept; ++k) {
      std::vector<std::vector<TypeId>> lists(all.size());
      for (size_t i = 0; i < all.size(); ++i) {
        lists[i] = i < k ? outside[i] : i == k ? inside[i] : all[i];
      }
      ForEachTuple(lists, [&](const std::vector<TypeId>& args) {
        if (!kept) return;
        TYDER_COUNT("verify.dispatch_probes");
        kept = SameOutcome(Order(before_, ranks_before_, g, args),
                           Order(after_, ranks_after_, g, args));
      });
    }
    return kept;
  }

 private:
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

  // SortBySpecificity with each argument's CPL ranks computed once per
  // verification instead of once per probe.
  static std::vector<MethodId> Order(
      const Schema& schema, std::vector<std::vector<uint32_t>>& ranks,
      GfId g, const std::vector<TypeId>& args) {
    std::vector<MethodId> methods = ApplicableMethods(schema, g, args);
    if (methods.size() < 2) return methods;
    std::vector<const std::vector<uint32_t>*> arg_ranks;
    for (TypeId t : args) {
      if (ranks[t].empty()) ranks[t] = CplRanks(schema.types(), t);
      arg_ranks.push_back(&ranks[t]);
    }
    SortApplicableBySpecificity(schema, arg_ranks, &methods);
    return methods;
  }

  const Schema& before_;
  const Schema& after_;
  size_t n_;  // pre-existing types are the ids below n_
  std::vector<bool> in_d_;
  std::vector<TypeId> d_;  // ascending
  bool relation_kept_ = true;
  std::map<std::pair<TypeId, TypeId>, bool> admits_same_;
  std::vector<std::vector<uint32_t>> ranks_before_, ranks_after_;
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
