#include "methods/precedence.h"

#include <algorithm>
#include <list>

#include "methods/applicability.h"
#include "objmodel/linearize.h"

namespace tyder {

std::vector<MethodId> SortBySpecificity(const Schema& schema, GfId gf,
                                        const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> methods = ApplicableMethods(schema, gf, arg_types);
  if (methods.size() <= 1) return methods;
  // Each actual's CPL is computed once into a dense rank table, so the
  // comparator is O(arity): at the first position where two methods' formals
  // differ, the formal ranked earlier in the actual's CPL is more specific.
  // Every formal of an applicable method appears in the actual's CPL; absent
  // types keep the "least specific" sentinel rank.
  const TypeGraph& graph = schema.types();
  size_t num_types = graph.NumTypes();
  std::vector<std::vector<uint32_t>> rank(arg_types.size());
  for (size_t i = 0; i < arg_types.size(); ++i) {
    rank[i].assign(num_types, static_cast<uint32_t>(num_types));
    std::vector<TypeId> cpl = ClassPrecedenceList(graph, arg_types[i]);
    for (size_t r = 0; r < cpl.size(); ++r) {
      rank[i][cpl[r]] = static_cast<uint32_t>(r);
    }
  }
  std::stable_sort(methods.begin(), methods.end(),
                   [&](MethodId a, MethodId b) {
                     const Signature& sa = schema.method(a).sig;
                     const Signature& sb = schema.method(b).sig;
                     for (size_t i = 0; i < arg_types.size(); ++i) {
                       if (sa.params[i] == sb.params[i]) continue;
                       return rank[i][sa.params[i]] < rank[i][sb.params[i]];
                     }
                     return false;
                   });
  return methods;
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
