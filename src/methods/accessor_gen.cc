#include "methods/accessor_gen.h"

namespace tyder {

namespace {

// Picks `base`, or `base_<TypeName>` when `base` is already a method label.
std::string AccessorLabel(const Schema& schema, const std::string& base,
                          TypeId formal) {
  if (!schema.FindMethod(base).ok()) return base;
  return base + "_" + schema.types().TypeName(formal);
}

}  // namespace

namespace {

Result<MethodId> MakeReader(Schema& schema, AttrId attr,
                            const std::string& base_name, TypeId formal) {
  if (attr >= schema.types().NumAttributes()) {
    return Status::InvalidArgument("attribute id out of range");
  }
  // A copy: declaring the gf below writes the schema.
  const AttributeDef def = schema.types().attribute(attr);
  if (formal == kInvalidType) formal = def.owner;
  std::string gf_name = "get_" + base_name;
  TYDER_ASSIGN_OR_RETURN(GfId gf,
                         schema.FindOrDeclareGenericFunction(gf_name, 1));
  Method m;
  m.label = Symbol::Intern(AccessorLabel(schema, gf_name, formal));
  m.gf = gf;
  m.kind = MethodKind::kReader;
  m.sig = Signature{{formal}, def.value_type};
  m.attr = attr;
  m.param_names = {Symbol::Intern("self")};
  return schema.AddMethod(std::move(m));
}

Result<MethodId> MakeMutator(Schema& schema, AttrId attr,
                             const std::string& base_name, TypeId formal) {
  if (attr >= schema.types().NumAttributes()) {
    return Status::InvalidArgument("attribute id out of range");
  }
  // A copy: declaring the gf below writes the schema.
  const AttributeDef def = schema.types().attribute(attr);
  if (formal == kInvalidType) formal = def.owner;
  std::string gf_name = "set_" + base_name;
  TYDER_ASSIGN_OR_RETURN(GfId gf,
                         schema.FindOrDeclareGenericFunction(gf_name, 2));
  Method m;
  m.label = Symbol::Intern(AccessorLabel(schema, gf_name, formal));
  m.gf = gf;
  m.kind = MethodKind::kMutator;
  m.sig = Signature{{formal, def.value_type}, schema.builtins().void_type};
  m.attr = attr;
  m.param_names = {Symbol::Intern("self"), Symbol::Intern("value")};
  return schema.AddMethod(std::move(m));
}

}  // namespace

Result<MethodId> GenerateReader(Schema& schema, AttrId attr, TypeId formal) {
  if (attr >= schema.types().NumAttributes()) {
    return Status::InvalidArgument("attribute id out of range");
  }
  return MakeReader(schema, attr, schema.types().attribute(attr).name.str(),
                    formal);
}

Result<MethodId> GenerateMutator(Schema& schema, AttrId attr, TypeId formal) {
  if (attr >= schema.types().NumAttributes()) {
    return Status::InvalidArgument("attribute id out of range");
  }
  return MakeMutator(schema, attr, schema.types().attribute(attr).name.str(),
                     formal);
}

Result<MethodId> GenerateAliasReader(Schema& schema, AttrId attr,
                                     std::string_view alias, TypeId formal) {
  return MakeReader(schema, attr, std::string(alias), formal);
}

Result<MethodId> GenerateAliasMutator(Schema& schema, AttrId attr,
                                      std::string_view alias, TypeId formal) {
  return MakeMutator(schema, attr, std::string(alias), formal);
}

Status GenerateAccessorsForType(Schema& schema, TypeId t, bool with_mutators) {
  // Copy: AddMethod may not mutate the type's attribute list, but be safe
  // against future re-entrancy.
  std::vector<AttrId> attrs = schema.types().type(t).local_attributes();
  for (AttrId a : attrs) {
    TYDER_RETURN_IF_ERROR(GenerateReader(schema, a, t).status());
    if (with_mutators) {
      TYDER_RETURN_IF_ERROR(GenerateMutator(schema, a, t).status());
    }
  }
  return Status::OK();
}

Status GenerateAllAccessors(Schema& schema, bool with_mutators) {
  for (AttrId a = 0; a < schema.types().NumAttributes(); ++a) {
    TYDER_RETURN_IF_ERROR(GenerateReader(schema, a).status());
    if (with_mutators) {
      TYDER_RETURN_IF_ERROR(GenerateMutator(schema, a).status());
    }
  }
  return Status::OK();
}

}  // namespace tyder
