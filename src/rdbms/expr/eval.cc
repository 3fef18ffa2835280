#include "rdbms/expr/eval.h"

#include <cmath>
#include <cstdint>

#include "common/date.h"
#include "common/str_util.h"

namespace r3 {
namespace rdbms {

namespace {

// Checked int64 add/sub/mul: SQL integer overflow is an error, never UB.
Status CheckedInt(ArithOp op, int64_t a, int64_t b, int64_t* out) {
  bool overflow = true;
  switch (op) {
    case ArithOp::kAdd:
      overflow = __builtin_add_overflow(a, b, out);
      break;
    case ArithOp::kSub:
      overflow = __builtin_sub_overflow(a, b, out);
      break;
    case ArithOp::kMul:
      overflow = __builtin_mul_overflow(a, b, out);
      break;
    case ArithOp::kDiv:
    case ArithOp::kNeg:
      return Status::Internal("bad checked integer op");
  }
  if (overflow) {
    return Status::InvalidArgument(
        str::Format("integer overflow in %lld %c %lld",
                    static_cast<long long>(a),
                    op == ArithOp::kAdd ? '+' : op == ArithOp::kSub ? '-' : '*',
                    static_cast<long long>(b)));
  }
  return Status::OK();
}

Status EvalArith(const Expr& e, const EvalContext& ctx, Value* out) {
  Value l;
  R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &l));
  if (e.arith_op == ArithOp::kNeg) {
    if (l.is_null()) {
      *out = Value::Null(l.type());
      return Status::OK();
    }
    int64_t neg = 0;
    switch (l.type()) {
      case DataType::kInt64:
        R3_RETURN_IF_ERROR(CheckedInt(ArithOp::kSub, 0, l.int_value(), &neg));
        *out = Value::Int(neg);
        return Status::OK();
      case DataType::kDecimal:
        R3_RETURN_IF_ERROR(
            CheckedInt(ArithOp::kSub, 0, l.decimal_cents(), &neg));
        *out = Value::DecimalFromCents(neg);
        return Status::OK();
      case DataType::kDouble:
        *out = Value::Dbl(-l.double_value());
        return Status::OK();
      default:
        return Status::InvalidArgument("cannot negate " +
                                       std::string(DataTypeName(l.type())));
    }
  }
  Value r;
  R3_RETURN_IF_ERROR(EvalExpr(*e.children[1], ctx, &r));
  if (l.is_null() || r.is_null()) {
    *out = Value::Null(DataType::kDouble);
    return Status::OK();
  }
  // Date +/- integer days.
  if (l.type() == DataType::kDate && r.type() == DataType::kInt64 &&
      (e.arith_op == ArithOp::kAdd || e.arith_op == ArithOp::kSub)) {
    int64_t day = 0;
    R3_RETURN_IF_ERROR(
        CheckedInt(e.arith_op, l.date_value(), r.int_value(), &day));
    if (day < INT32_MIN || day > INT32_MAX) {
      return Status::InvalidArgument("date arithmetic out of range");
    }
    *out = Value::Date(static_cast<int32_t>(day));
    return Status::OK();
  }
  if (l.type() == DataType::kDate && r.type() == DataType::kDate &&
      e.arith_op == ArithOp::kSub) {
    *out = Value::Int(int64_t{l.date_value()} - r.date_value());
    return Status::OK();
  }
  if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
    return Status::InvalidArgument(
        str::Format("arithmetic on %s and %s", DataTypeName(l.type()),
                    DataTypeName(r.type())));
  }
  if (l.type() == DataType::kInt64 && r.type() == DataType::kInt64 &&
      e.arith_op != ArithOp::kDiv) {
    int64_t v = 0;
    R3_RETURN_IF_ERROR(
        CheckedInt(e.arith_op, l.int_value(), r.int_value(), &v));
    *out = Value::Int(v);
    return Status::OK();
  }
  switch (e.arith_op) {
    case ArithOp::kAdd:
      *out = Value::Dbl(l.AsDouble() + r.AsDouble());
      return Status::OK();
    case ArithOp::kSub:
      *out = Value::Dbl(l.AsDouble() - r.AsDouble());
      return Status::OK();
    case ArithOp::kMul:
      *out = Value::Dbl(l.AsDouble() * r.AsDouble());
      return Status::OK();
    case ArithOp::kDiv: {
      double denom = r.AsDouble();
      if (denom == 0.0) return Status::InvalidArgument("division by zero");
      *out = Value::Dbl(l.AsDouble() / denom);
      return Status::OK();
    }
    case ArithOp::kNeg:
      break;  // handled above
  }
  return Status::Internal("bad arith op");
}

// Three-valued AND/OR. Bool values with Null as UNKNOWN.
Value Logic3(LogicOp op, const Value& a, const Value& b) {
  auto truth = [](const Value& v) -> int {  // 1 true, 0 false, -1 unknown
    if (v.is_null()) return -1;
    return v.bool_value() ? 1 : 0;
  };
  int x = truth(a);
  int y = truth(b);
  if (op == LogicOp::kAnd) {
    if (x == 0 || y == 0) return Value::Bool(false);
    if (x == 1 && y == 1) return Value::Bool(true);
    return Value::Null(DataType::kBool);
  }
  if (x == 1 || y == 1) return Value::Bool(true);
  if (x == 0 && y == 0) return Value::Bool(false);
  return Value::Null(DataType::kBool);
}

Status EvalFunc(const Expr& e, const EvalContext& ctx, Value* out) {
  std::vector<Value> args(e.children.size());
  for (size_t i = 0; i < e.children.size(); ++i) {
    R3_RETURN_IF_ERROR(EvalExpr(*e.children[i], ctx, &args[i]));
  }
  const std::string& f = e.func_name;
  auto arity = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument(
          str::Format("%s expects %zu arguments", f.c_str(), n));
    }
    return Status::OK();
  };
  if (f == "YEAR" || f == "MONTH") {
    R3_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) {
      *out = Value::Null(DataType::kInt64);
      return Status::OK();
    }
    if (args[0].type() != DataType::kDate) {
      return Status::InvalidArgument(f + " expects a DATE");
    }
    *out = Value::Int(f == "YEAR" ? date::Year(args[0].date_value())
                                  : date::Month(args[0].date_value()));
    return Status::OK();
  }
  if (f == "SUBSTR" || f == "SUBSTRING") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::InvalidArgument("SUBSTR expects 2 or 3 arguments");
    }
    if (args[0].is_null()) {
      *out = Value::Null(DataType::kString);
      return Status::OK();
    }
    const std::string& s = args[0].string_value();
    int64_t start = args[1].AsInt();  // 1-based
    if (start < 1) start = 1;
    size_t begin = static_cast<size_t>(start - 1);
    if (begin >= s.size()) {
      *out = Value::Str("");
      return Status::OK();
    }
    size_t len = args.size() == 3 ? static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()))
                                  : s.size() - begin;
    *out = Value::Str(s.substr(begin, len));
    return Status::OK();
  }
  if (f == "UPPER" || f == "LOWER") {
    R3_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) {
      *out = Value::Null(DataType::kString);
      return Status::OK();
    }
    *out = Value::Str(f == "UPPER" ? str::ToUpper(args[0].string_value())
                                   : str::ToLower(args[0].string_value()));
    return Status::OK();
  }
  if (f == "LENGTH") {
    R3_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) {
      *out = Value::Null(DataType::kInt64);
      return Status::OK();
    }
    *out = Value::Int(static_cast<int64_t>(args[0].string_value().size()));
    return Status::OK();
  }
  if (f == "ABS") {
    R3_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) {
      *out = args[0];
      return Status::OK();
    }
    if (args[0].type() == DataType::kInt64) {
      if (args[0].int_value() == INT64_MIN) {
        return Status::InvalidArgument("integer overflow in ABS");
      }
      *out = Value::Int(std::llabs(args[0].int_value()));
    } else {
      *out = Value::Dbl(std::fabs(args[0].AsDouble()));
    }
    return Status::OK();
  }
  if (f == "MOD") {
    R3_RETURN_IF_ERROR(arity(2));
    if (args[0].is_null() || args[1].is_null()) {
      *out = Value::Null(DataType::kInt64);
      return Status::OK();
    }
    int64_t d = args[1].AsInt();
    if (d == 0) return Status::InvalidArgument("MOD by zero");
    // x % -1 is 0; computing INT64_MIN % -1 would trap.
    *out = Value::Int(d == -1 ? 0 : args[0].AsInt() % d);
    return Status::OK();
  }
  if (f == "ROUND") {
    if (args.size() != 1 && args.size() != 2) {
      return Status::InvalidArgument("ROUND expects 1 or 2 arguments");
    }
    if (args[0].is_null()) {
      *out = Value::Null(DataType::kDouble);
      return Status::OK();
    }
    int64_t digits = args.size() == 2 ? args[1].AsInt() : 0;
    double scale = std::pow(10.0, static_cast<double>(digits));
    *out = Value::Dbl(std::round(args[0].AsDouble() * scale) / scale);
    return Status::OK();
  }
  return Status::Unsupported("unknown function " + f);
}

}  // namespace

Status EvalExpr(const Expr& e, const EvalContext& ctx, Value* out) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      *out = e.literal;
      return Status::OK();
    case ExprKind::kColumnRef:
    case ExprKind::kSlotRef:
      if (ctx.row == nullptr || e.column_index >= ctx.row->size()) {
        return Status::Internal("column ref out of range: " + e.ToString());
      }
      *out = (*ctx.row)[e.column_index];
      return Status::OK();
    case ExprKind::kOuterRef:
      if (ctx.outer == nullptr || e.column_index >= ctx.outer->size()) {
        return Status::Internal("outer ref out of range: " + e.ToString());
      }
      *out = (*ctx.outer)[e.column_index];
      return Status::OK();
    case ExprKind::kParam:
      if (ctx.params == nullptr || e.param_index >= ctx.params->size()) {
        return Status::InvalidArgument(
            str::Format("parameter ?%zu not bound", e.param_index));
      }
      *out = (*ctx.params)[e.param_index];
      return Status::OK();
    case ExprKind::kArith:
      return EvalArith(e, ctx, out);
    case ExprKind::kCompare: {
      Value l, r;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &l));
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[1], ctx, &r));
      if (l.is_null() || r.is_null()) {
        *out = Value::Null(DataType::kBool);
        return Status::OK();
      }
      int c = l.Compare(r);
      bool v = false;
      switch (e.cmp_op) {
        case CmpOp::kEq:
          v = c == 0;
          break;
        case CmpOp::kNe:
          v = c != 0;
          break;
        case CmpOp::kLt:
          v = c < 0;
          break;
        case CmpOp::kLe:
          v = c <= 0;
          break;
        case CmpOp::kGt:
          v = c > 0;
          break;
        case CmpOp::kGe:
          v = c >= 0;
          break;
      }
      *out = Value::Bool(v);
      return Status::OK();
    }
    case ExprKind::kLogic: {
      Value l, r;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &l));
      // Short circuit where three-valued logic allows it.
      if (!l.is_null()) {
        if (e.logic_op == LogicOp::kAnd && !l.bool_value()) {
          *out = Value::Bool(false);
          return Status::OK();
        }
        if (e.logic_op == LogicOp::kOr && l.bool_value()) {
          *out = Value::Bool(true);
          return Status::OK();
        }
      }
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[1], ctx, &r));
      *out = Logic3(e.logic_op, l, r);
      return Status::OK();
    }
    case ExprKind::kNot: {
      Value v;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &v));
      if (v.is_null()) {
        *out = Value::Null(DataType::kBool);
      } else {
        *out = Value::Bool(!v.bool_value());
      }
      return Status::OK();
    }
    case ExprKind::kIsNull: {
      Value v;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &v));
      bool is_null = v.is_null();
      *out = Value::Bool(e.negated ? !is_null : is_null);
      return Status::OK();
    }
    case ExprKind::kLike: {
      Value v, p;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &v));
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[1], ctx, &p));
      if (v.is_null() || p.is_null()) {
        *out = Value::Null(DataType::kBool);
        return Status::OK();
      }
      bool m = str::LikeMatch(v.string_value(), p.string_value());
      *out = Value::Bool(e.negated ? !m : m);
      return Status::OK();
    }
    case ExprKind::kInList: {
      Value target;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &target));
      if (target.is_null()) {
        *out = Value::Null(DataType::kBool);
        return Status::OK();
      }
      bool saw_null = false;
      bool matched = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        Value item;
        R3_RETURN_IF_ERROR(EvalExpr(*e.children[i], ctx, &item));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (target.Compare(item) == 0) {
          matched = true;
          break;
        }
      }
      if (matched) {
        *out = Value::Bool(!e.negated);
      } else if (saw_null) {
        *out = Value::Null(DataType::kBool);
      } else {
        *out = Value::Bool(e.negated);
      }
      return Status::OK();
    }
    case ExprKind::kBetween: {
      Value v, lo, hi;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &v));
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[1], ctx, &lo));
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[2], ctx, &hi));
      if (v.is_null() || lo.is_null() || hi.is_null()) {
        *out = Value::Null(DataType::kBool);
        return Status::OK();
      }
      bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      *out = Value::Bool(e.negated ? !in : in);
      return Status::OK();
    }
    case ExprKind::kCase: {
      size_t pairs = (e.children.size() - (e.case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        Value cond;
        R3_RETURN_IF_ERROR(EvalExpr(*e.children[2 * i], ctx, &cond));
        if (!cond.is_null() && cond.bool_value()) {
          return EvalExpr(*e.children[2 * i + 1], ctx, out);
        }
      }
      if (e.case_has_else) {
        return EvalExpr(*e.children.back(), ctx, out);
      }
      *out = Value::Null(e.result_type);
      return Status::OK();
    }
    case ExprKind::kFunc:
      return EvalFunc(e, ctx, out);
    case ExprKind::kCast: {
      Value v;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &v));
      R3_ASSIGN_OR_RETURN(*out, v.CastTo(e.cast_target));
      return Status::OK();
    }
    case ExprKind::kAggCall:
      return Status::Internal("aggregate call evaluated outside aggregation");
    case ExprKind::kAggRef:
      if (ctx.row == nullptr || e.slot >= ctx.row->size()) {
        return Status::Internal("aggregate ref out of range");
      }
      *out = (*ctx.row)[e.slot];
      return Status::OK();
    case ExprKind::kScalarSubquery:
      if (ctx.subqueries == nullptr) {
        return Status::Internal("no subquery runner in context");
      }
      return ctx.subqueries->RunScalar(e.subquery_index, ctx.row, out);
    case ExprKind::kExistsSubquery: {
      if (ctx.subqueries == nullptr) {
        return Status::Internal("no subquery runner in context");
      }
      bool exists = false;
      R3_RETURN_IF_ERROR(
          ctx.subqueries->RunExists(e.subquery_index, ctx.row, &exists));
      *out = Value::Bool(e.negated ? !exists : exists);
      return Status::OK();
    }
    case ExprKind::kInSubquery: {
      if (ctx.subqueries == nullptr) {
        return Status::Internal("no subquery runner in context");
      }
      Value probe;
      R3_RETURN_IF_ERROR(EvalExpr(*e.children[0], ctx, &probe));
      Value res;
      R3_RETURN_IF_ERROR(
          ctx.subqueries->RunInProbe(e.subquery_index, ctx.row, probe, &res));
      if (res.is_null()) {
        *out = res;
      } else {
        *out = Value::Bool(e.negated ? !res.bool_value() : res.bool_value());
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad expr kind");
}

Result<bool> EvalPredicate(const Expr& e, const EvalContext& ctx) {
  Value v;
  R3_RETURN_IF_ERROR(EvalExpr(e, ctx, &v));
  return !v.is_null() && v.bool_value();
}

Result<bool> EvalPredicates(const std::vector<const Expr*>& preds,
                            const EvalContext& ctx) {
  for (const Expr* p : preds) {
    R3_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*p, ctx));
    if (!ok) return false;
  }
  return true;
}

Status EvalPredicatesBatch(const std::vector<const Expr*>& preds,
                           EvalContext* ec, const RowBatch& batch,
                           size_t first, SelVector* sel) {
  sel->clear();
  for (size_t i = first; i < batch.size(); ++i) {
    ec->row = &batch.row(i);
    R3_ASSIGN_OR_RETURN(bool pass, EvalPredicates(preds, *ec));
    if (pass) sel->push_back(static_cast<uint32_t>(i));
  }
  return Status::OK();
}

Status EvalProjectionBatch(const std::vector<const Expr*>& exprs,
                           EvalContext* ec, const RowBatch& in,
                           RowBatch* out) {
  for (size_t i = 0; i < in.size(); ++i) {
    ec->row = &in.row(i);
    // EvalExpr overwrites each value whole, so the recycled slot's storage
    // is reused.
    Row& dst = out->AppendRow();
    dst.resize(exprs.size());
    for (size_t j = 0; j < exprs.size(); ++j) {
      R3_RETURN_IF_ERROR(EvalExpr(*exprs[j], *ec, &dst[j]));
    }
  }
  return Status::OK();
}

}  // namespace rdbms
}  // namespace r3
