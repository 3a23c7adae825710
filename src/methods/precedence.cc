#include "methods/precedence.h"

#include <algorithm>

#include "methods/applicability.h"
#include "objmodel/linearize.h"

namespace tyder {

std::vector<MethodId> SortBySpecificity(const Schema& schema, GfId gf,
                                        const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> methods = ApplicableMethods(schema, gf, arg_types);
  if (methods.size() <= 1) return methods;
  // Each actual's CPL is computed once into a dense rank table, so the
  // comparator is O(arity) with no repeated linearization.
  std::vector<std::vector<uint32_t>> ranks;
  ranks.reserve(arg_types.size());
  for (TypeId t : arg_types) ranks.push_back(CplRanks(schema.types(), t));
  std::vector<const std::vector<uint32_t>*> arg_ranks;
  for (const std::vector<uint32_t>& r : ranks) arg_ranks.push_back(&r);
  SortApplicableBySpecificity(schema, arg_ranks, &methods);
  return methods;
}

std::vector<uint32_t> CplRanks(const TypeGraph& graph, TypeId t) {
  size_t num_types = graph.NumTypes();
  std::vector<uint32_t> rank(num_types, static_cast<uint32_t>(num_types));
  std::vector<TypeId> cpl = ClassPrecedenceList(graph, t);
  for (size_t r = 0; r < cpl.size(); ++r) {
    rank[cpl[r]] = static_cast<uint32_t>(r);
  }
  return rank;
}

void SortApplicableBySpecificity(
    const Schema& schema,
    const std::vector<const std::vector<uint32_t>*>& arg_ranks,
    std::vector<MethodId>* methods) {
  // At the first position where two methods' formals differ, the formal
  // ranked earlier in the actual's CPL is more specific. Every formal of an
  // applicable method appears in the actual's CPL, so distinct formals never
  // share a rank.
  std::stable_sort(methods->begin(), methods->end(),
                   [&](MethodId a, MethodId b) {
                     const Signature& sa = schema.method(a).sig;
                     const Signature& sb = schema.method(b).sig;
                     for (size_t i = 0; i < arg_ranks.size(); ++i) {
                       if (sa.params[i] == sb.params[i]) continue;
                       const std::vector<uint32_t>& rank = *arg_ranks[i];
                       return rank[sa.params[i]] < rank[sb.params[i]];
                     }
                     return false;
                   });
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
