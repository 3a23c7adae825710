#include "testing/fixtures.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <vector>

#include "methods/accessor_gen.h"
#include "mir/builder.h"
#include "mir/type_check.h"

namespace tyder::testing {

namespace {

// Registers a general Void-returning method.
Result<MethodId> AddGeneral(Schema& schema, std::string_view label,
                            std::string_view gf_name,
                            std::vector<TypeId> params,
                            std::vector<std::string> param_names,
                            ExprPtr body, TypeId result = kInvalidType) {
  TYDER_ASSIGN_OR_RETURN(
      GfId gf, schema.FindOrDeclareGenericFunction(
                   gf_name, static_cast<int>(params.size())));
  Method m;
  m.label = Symbol::Intern(label);
  m.gf = gf;
  m.kind = MethodKind::kGeneral;
  m.sig.params = std::move(params);
  m.sig.result = result == kInvalidType ? schema.builtins().void_type : result;
  for (const std::string& name : param_names) {
    m.param_names.push_back(Symbol::Intern(name));
  }
  m.body = std::move(body);
  return schema.AddMethod(std::move(m));
}

Result<GfId> GfOf(const Schema& schema, std::string_view name) {
  return schema.FindGenericFunction(name);
}

}  // namespace

Result<PersonEmployeeFixture> BuildPersonEmployee() {
  PersonEmployeeFixture fx;
  TYDER_ASSIGN_OR_RETURN(fx.schema, Schema::Create());
  Schema& s = fx.schema;
  const BuiltinTypes& b = s.builtins();

  TYDER_ASSIGN_OR_RETURN(fx.person, s.types().DeclareType("Person", TypeKind::kUser));
  TYDER_ASSIGN_OR_RETURN(fx.employee, s.types().DeclareType("Employee", TypeKind::kUser));
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.employee, fx.person));

  TYDER_ASSIGN_OR_RETURN(fx.ssn, s.types().DeclareAttribute(fx.person, "SSN", b.string_type));
  TYDER_ASSIGN_OR_RETURN(fx.name, s.types().DeclareAttribute(fx.person, "name", b.string_type));
  TYDER_ASSIGN_OR_RETURN(fx.date_of_birth, s.types().DeclareAttribute(fx.person, "date_of_birth", b.date_type));
  TYDER_ASSIGN_OR_RETURN(fx.pay_rate, s.types().DeclareAttribute(fx.employee, "pay_rate", b.float_type));
  TYDER_ASSIGN_OR_RETURN(fx.hrs_worked, s.types().DeclareAttribute(fx.employee, "hrs_worked", b.float_type));

  TYDER_RETURN_IF_ERROR(GenerateAllAccessors(s));

  TYDER_ASSIGN_OR_RETURN(GfId get_dob, GfOf(s, "get_date_of_birth"));
  TYDER_ASSIGN_OR_RETURN(GfId get_pay, GfOf(s, "get_pay_rate"));
  TYDER_ASSIGN_OR_RETURN(GfId get_hrs, GfOf(s, "get_hrs_worked"));

  // age(p: Person) = { return 2026 - get_date_of_birth(p); }
  TYDER_ASSIGN_OR_RETURN(
      fx.age,
      AddGeneral(s, "age", "age", {fx.person}, {"p"},
                 mir::Seq({mir::Return(mir::BinOp(
                     BinOpKind::kSub, mir::IntLit(2026),
                     mir::Call(get_dob, {mir::Param(0)})))}),
                 b.int_type));

  // income(e: Employee) = { return get_pay_rate(e) * get_hrs_worked(e); }
  TYDER_ASSIGN_OR_RETURN(
      fx.income,
      AddGeneral(s, "income", "income", {fx.employee}, {"e"},
                 mir::Seq({mir::Return(mir::BinOp(
                     BinOpKind::kMul, mir::Call(get_pay, {mir::Param(0)}),
                     mir::Call(get_hrs, {mir::Param(0)})))}),
                 b.float_type));

  // promote(e: Employee) uses date_of_birth and pay_rate.
  TYDER_ASSIGN_OR_RETURN(
      fx.promote,
      AddGeneral(
          s, "promote", "promote", {fx.employee}, {"e"},
          mir::Seq({mir::Return(mir::BinOp(
              BinOpKind::kAnd,
              mir::BinOp(BinOpKind::kLt,
                         mir::BinOp(BinOpKind::kSub, mir::IntLit(2026),
                                    mir::Call(get_dob, {mir::Param(0)})),
                         mir::IntLit(65)),
              mir::BinOp(BinOpKind::kLt, mir::Call(get_pay, {mir::Param(0)}),
                         mir::FloatLit(100.0))))}),
          b.bool_type));

  TYDER_RETURN_IF_ERROR(s.Validate());
  TYDER_RETURN_IF_ERROR(TypeCheckSchema(s));
  return fx;
}

Result<Example1Fixture> BuildExample1(bool with_z_methods) {
  Example1Fixture fx;
  TYDER_ASSIGN_OR_RETURN(fx.schema, Schema::Create());
  Schema& s = fx.schema;
  TypeId int_t = s.builtins().int_type;

  // Figure 3 hierarchy. Supertype lists are in precedence order.
  TYDER_ASSIGN_OR_RETURN(fx.h, s.types().DeclareType("H", TypeKind::kUser));
  TYDER_ASSIGN_OR_RETURN(fx.g, s.types().DeclareType("G", TypeKind::kUser));
  TYDER_ASSIGN_OR_RETURN(fx.d, s.types().DeclareType("D", TypeKind::kUser));
  TYDER_ASSIGN_OR_RETURN(fx.e, s.types().DeclareType("E", TypeKind::kUser));
  TYDER_ASSIGN_OR_RETURN(fx.f, s.types().DeclareType("F", TypeKind::kUser));
  TYDER_ASSIGN_OR_RETURN(fx.c, s.types().DeclareType("C", TypeKind::kUser));
  TYDER_ASSIGN_OR_RETURN(fx.b, s.types().DeclareType("B", TypeKind::kUser));
  TYDER_ASSIGN_OR_RETURN(fx.a, s.types().DeclareType("A", TypeKind::kUser));
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.e, fx.g));  // E: G(1), H(2)
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.e, fx.h));
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.f, fx.h));  // F: H(1)
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.c, fx.f));  // C: F(1), E(2)
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.c, fx.e));
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.b, fx.d));  // B: D(1), E(2)
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.b, fx.e));
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.a, fx.c));  // A: C(1), B(2)
  TYDER_RETURN_IF_ERROR(s.types().AddSupertype(fx.a, fx.b));

  TYDER_ASSIGN_OR_RETURN(fx.h1, s.types().DeclareAttribute(fx.h, "h1", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.h2, s.types().DeclareAttribute(fx.h, "h2", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.g1, s.types().DeclareAttribute(fx.g, "g1", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.d1, s.types().DeclareAttribute(fx.d, "d1", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.e1, s.types().DeclareAttribute(fx.e, "e1", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.e2, s.types().DeclareAttribute(fx.e, "e2", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.f1, s.types().DeclareAttribute(fx.f, "f1", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.c1, s.types().DeclareAttribute(fx.c, "c1", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.b1, s.types().DeclareAttribute(fx.b, "b1", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.a1, s.types().DeclareAttribute(fx.a, "a1", int_t));
  TYDER_ASSIGN_OR_RETURN(fx.a2, s.types().DeclareAttribute(fx.a, "a2", int_t));

  // The paper's four accessors, with the formals it gives them.
  TYDER_ASSIGN_OR_RETURN(fx.get_a1, GenerateReader(s, fx.a1, fx.a));
  TYDER_ASSIGN_OR_RETURN(fx.get_b1, GenerateReader(s, fx.b1, fx.b));
  TYDER_ASSIGN_OR_RETURN(fx.get_h2, GenerateReader(s, fx.h2, fx.b));
  TYDER_ASSIGN_OR_RETURN(fx.get_g1, GenerateReader(s, fx.g1, fx.c));

  GfId get_a1_gf = s.method(fx.get_a1).gf;
  GfId get_b1_gf = s.method(fx.get_b1).gf;
  GfId get_h2_gf = s.method(fx.get_h2).gf;
  GfId get_g1_gf = s.method(fx.get_g1).gf;

  // Declare all generic functions up front so bodies can call forward.
  TYDER_ASSIGN_OR_RETURN(GfId u, s.DeclareGenericFunction("u", 1));
  TYDER_ASSIGN_OR_RETURN(GfId v, s.DeclareGenericFunction("v", 2));
  TYDER_ASSIGN_OR_RETURN(GfId w, s.DeclareGenericFunction("w", 1));
  TYDER_ASSIGN_OR_RETURN(GfId x, s.DeclareGenericFunction("x", 2));
  TYDER_ASSIGN_OR_RETURN(GfId y, s.DeclareGenericFunction("y", 2));

  auto stmt_call = [](GfId gf, std::vector<ExprPtr> args) {
    return mir::ExprStmt(mir::Call(gf, std::move(args)));
  };

  // u1(A) = {get_a1(A)}
  TYDER_ASSIGN_OR_RETURN(
      fx.u1, AddGeneral(s, "u1", "u", {fx.a}, {"arg"},
                        mir::Seq({stmt_call(get_a1_gf, {mir::Param(0)})})));
  // u2(A) = {get_g1(A)}  (A ≼ C, so get_g1's C formal admits it)
  TYDER_ASSIGN_OR_RETURN(
      fx.u2, AddGeneral(s, "u2", "u", {fx.a}, {"arg"},
                        mir::Seq({stmt_call(get_g1_gf, {mir::Param(0)})})));
  // u3(B) = {get_h2(B)}
  TYDER_ASSIGN_OR_RETURN(
      fx.u3, AddGeneral(s, "u3", "u", {fx.b}, {"arg"},
                        mir::Seq({stmt_call(get_h2_gf, {mir::Param(0)})})));
  // v1(A, C) = {u(A); w(C)}
  TYDER_ASSIGN_OR_RETURN(
      fx.v1, AddGeneral(s, "v1", "v", {fx.a, fx.c}, {"pa", "pc"},
                        mir::Seq({stmt_call(u, {mir::Param(0)}),
                                  stmt_call(w, {mir::Param(1)})})));
  // v2(B, C) = {get_b1(B); u(C)}
  TYDER_ASSIGN_OR_RETURN(
      fx.v2, AddGeneral(s, "v2", "v", {fx.b, fx.c}, {"pb", "pc"},
                        mir::Seq({stmt_call(get_b1_gf, {mir::Param(0)}),
                                  stmt_call(u, {mir::Param(1)})})));
  // w1(A) = {get_a1(A)}
  TYDER_ASSIGN_OR_RETURN(
      fx.w1, AddGeneral(s, "w1", "w", {fx.a}, {"arg"},
                        mir::Seq({stmt_call(get_a1_gf, {mir::Param(0)})})));
  // w2(C) = {u(C)}
  TYDER_ASSIGN_OR_RETURN(
      fx.w2, AddGeneral(s, "w2", "w", {fx.c}, {"arg"},
                        mir::Seq({stmt_call(u, {mir::Param(0)})})));
  // x1(A, B) = {y(A, B); v(B, A)}
  TYDER_ASSIGN_OR_RETURN(
      fx.x1,
      AddGeneral(s, "x1", "x", {fx.a, fx.b}, {"pa", "pb"},
                 mir::Seq({stmt_call(y, {mir::Param(0), mir::Param(1)}),
                           stmt_call(v, {mir::Param(1), mir::Param(0)})})));
  // y1(A, B) = {x(A, B)}
  TYDER_ASSIGN_OR_RETURN(
      fx.y1,
      AddGeneral(s, "y1", "y", {fx.a, fx.b}, {"pa", "pb"},
                 mir::Seq({stmt_call(x, {mir::Param(0), mir::Param(1)})})));

  if (with_z_methods) {
    // z1(C) -> G = { g: G; g = c; u(c); return g; }  — Section 6.3's example.
    TYDER_ASSIGN_OR_RETURN(
        fx.z1,
        AddGeneral(s, "z1", "z", {fx.c}, {"pc"},
                   mir::Seq({mir::Decl("gv", fx.g),
                             mir::Assign("gv", mir::Param(0)),
                             stmt_call(u, {mir::Param(0)}),
                             mir::Return(mir::Var("gv"))}),
                   fx.g));
    // z2(B) = { dv: D; dv = b; get_h2(b); } — makes D enter Y.
    TYDER_ASSIGN_OR_RETURN(
        fx.z2,
        AddGeneral(s, "z2", "zz", {fx.b}, {"pb"},
                   mir::Seq({mir::Decl("dv", fx.d),
                             mir::Assign("dv", mir::Param(0)),
                             stmt_call(get_h2_gf, {mir::Param(0)})})));
  }

  TYDER_RETURN_IF_ERROR(s.Validate());
  TYDER_RETURN_IF_ERROR(TypeCheckSchema(s));
  return fx;
}

std::string UniqueTestDir(std::string_view tag) {
  // Every directory handed out is removed again when the process exits, so
  // repeated runs do not pile up per-process directories.
  static struct Issued {
    std::mutex mu;
    std::vector<std::filesystem::path> dirs;
    ~Issued() {
      std::error_code ignored;
      for (const std::filesystem::path& dir : dirs) {
        std::filesystem::remove_all(dir, ignored);
      }
    }
  } issued;
  static std::atomic<uint64_t> counter{0};
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string(tag) + "-" + std::to_string(::getpid()) + "-" +
       std::to_string(counter.fetch_add(1)));
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  {
    std::lock_guard<std::mutex> lock(issued.mu);
    issued.dirs.push_back(dir);
  }
  return dir.string();
}

}  // namespace tyder::testing
