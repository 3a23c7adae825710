#include "methods/applicability.h"

namespace tyder {

bool ApplicableToType(const Schema& schema, MethodId m, TypeId t) {
  for (TypeId formal : schema.method(m).sig.params) {
    if (schema.types().IsSubtype(t, formal)) return true;
  }
  return false;
}

bool ApplicableToCall(const Schema& schema, MethodId m,
                      std::span<const TypeId> arg_types) {
  const Signature& sig = schema.method(m).sig;
  if (sig.params.size() != arg_types.size()) return false;
  for (size_t i = 0; i < arg_types.size(); ++i) {
    if (!schema.types().IsSubtype(arg_types[i], sig.params[i])) return false;
  }
  return true;
}

std::vector<MethodId> ApplicableMethods(const Schema& schema, GfId gf,
                                        const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> out;
  for (MethodId m : schema.gf(gf).methods) {
    if (ApplicableToCall(schema, m, arg_types)) out.push_back(m);
  }
  return out;
}

std::vector<MethodId> MethodsApplicableToType(const Schema& schema, TypeId t) {
  std::vector<MethodId> out;
  for (MethodId m = 0; m < schema.NumMethods(); ++m) {
    if (ApplicableToType(schema, m, t)) out.push_back(m);
  }
  return out;
}

}  // namespace tyder
