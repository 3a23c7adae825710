#include "methods/dispatch.h"

#include <string>

#include "methods/dispatch_index.h"
#include "obs/obs.h"

namespace tyder {

namespace {

Result<MethodId> NoApplicableMethod(const Schema& schema, GfId gf,
                                    std::span<const TypeId> arg_types) {
  std::string args;
  for (size_t i = 0; i < arg_types.size(); ++i) {
    if (i > 0) args += ", ";
    args += schema.types().TypeName(arg_types[i]);
  }
  return Status::NotFound("no applicable method for " +
                          schema.gf(gf).name.str() + "(" + args + ")");
}

}  // namespace

Result<MethodId> Dispatch(const Schema& schema, GfId gf,
                          std::span<const TypeId> arg_types) {
  TYDER_COUNT("dispatch.calls");
  if (static_cast<int>(arg_types.size()) != schema.gf(gf).arity) {
    return Status::InvalidArgument("call to '" + schema.gf(gf).name.str() +
                                   "' with wrong argument count");
  }
  MethodId target = DispatchIndex::Of(schema).Select(schema, gf, arg_types);
  if (target == kInvalidMethod) {
    TYDER_COUNT("dispatch.no_applicable_method");
    return NoApplicableMethod(schema, gf, arg_types);
  }
  return target;
}

Result<MethodId> DispatchByName(const Schema& schema, std::string_view gf_name,
                                const std::vector<TypeId>& arg_types) {
  TYDER_ASSIGN_OR_RETURN(GfId gf, schema.FindGenericFunction(gf_name));
  return Dispatch(schema, gf, arg_types);
}

std::vector<MethodId> DispatchOrder(const Schema& schema, GfId gf,
                                    const std::vector<TypeId>& arg_types) {
  TYDER_COUNT("dispatch.order_queries");
  return DispatchIndex::Of(schema).Order(schema, gf, arg_types);
}

}  // namespace tyder
