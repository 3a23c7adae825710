#include "methods/precedence.h"

#include <algorithm>

#include "methods/applicability.h"
#include "objmodel/linearize.h"

namespace tyder {

namespace {

// True iff `a` is more specific than `b` for one call: at the first position
// where their formals differ, a's formal ranks earlier in the actual's CPL.
// Every formal of an applicable method appears in the actual's CPL, so
// distinct formals never share a rank.
bool MoreSpecific(const Schema& schema,
                  std::span<const std::span<const uint32_t>> arg_ranks,
                  MethodId a, MethodId b) {
  const Signature& sa = schema.method(a).sig;
  const Signature& sb = schema.method(b).sig;
  for (size_t i = 0; i < arg_ranks.size(); ++i) {
    if (sa.params[i] == sb.params[i]) continue;
    return arg_ranks[i][sa.params[i]] < arg_ranks[i][sb.params[i]];
  }
  return false;
}

}  // namespace

std::vector<MethodId> SortBySpecificity(const Schema& schema, GfId gf,
                                        const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> methods = ApplicableMethods(schema, gf, arg_types);
  if (methods.size() <= 1) return methods;
  // Each actual's CPL, from one memo, becomes a dense rank table (types
  // outside it rank after every member), so the comparator is O(arity).
  const size_t num_types = schema.types().NumTypes();
  CplMemo memo(schema.types());
  std::vector<uint32_t> ranks(arg_types.size() * num_types,
                              static_cast<uint32_t>(num_types));
  std::vector<std::span<const uint32_t>> arg_ranks;
  for (size_t i = 0; i < arg_types.size(); ++i) {
    std::span<uint32_t> rank(ranks.data() + i * num_types, num_types);
    std::span<const TypeId> cpl = memo.Cpl(arg_types[i]);
    for (size_t r = 0; r < cpl.size(); ++r) {
      rank[cpl[r]] = static_cast<uint32_t>(r);
    }
    arg_ranks.push_back(rank);
  }
  std::stable_sort(methods.begin(), methods.end(),
                   [&](MethodId a, MethodId b) {
                     return MoreSpecific(schema, arg_ranks, a, b);
                   });
  return methods;
}

MethodId MostSpecificOf(const Schema& schema,
                        std::span<const std::span<const uint32_t>> arg_ranks,
                        std::span<const MethodId> methods) {
  // Lexicographic on rank tuples, so a strict weak order: the stable sort's
  // front is the first minimal element.
  MethodId best = kInvalidMethod;
  for (MethodId m : methods) {
    if (best == kInvalidMethod || MoreSpecific(schema, arg_ranks, m, best)) {
      best = m;
    }
  }
  return best;
}

Result<MethodId> MostSpecificApplicable(const Schema& schema, GfId gf,
                                        const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> sorted = SortBySpecificity(schema, gf, arg_types);
  if (sorted.empty()) {
    std::string args;
    for (size_t i = 0; i < arg_types.size(); ++i) {
      if (i > 0) args += ", ";
      args += schema.types().TypeName(arg_types[i]);
    }
    return Status::NotFound("no applicable method for " +
                            schema.gf(gf).name.str() + "(" + args + ")");
  }
  return sorted.front();
}

}  // namespace tyder
