#include <algorithm>
#include <unordered_map>

#include "common/str_util.h"
#include "rdbms/exec/agg_state.h"
#include "rdbms/exec/executor.h"
#include "rdbms/index/key_codec.h"

namespace r3 {
namespace rdbms {

namespace {

std::string Indent(const std::string& s) {
  std::string out;
  size_t start = 0;
  while (start < s.size()) {
    size_t end = s.find('\n', start);
    if (end == std::string::npos) end = s.size();
    out += "  " + s.substr(start, end - start) + "\n";
    start = end + 1;
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

// Cap on speculative reserve() sizing so a wild cardinality estimate cannot
// allocate an absurd table up front.
constexpr uint64_t kMaxReserve = 1u << 20;

}  // namespace

HashAggOp::HashAggOp(OperatorPtr child, std::vector<const Expr*> group_exprs,
                     std::vector<const Expr*> agg_calls,
                     uint64_t est_input_rows)
    : child_(std::move(child)),
      est_input_rows_(est_input_rows),
      group_exprs_(std::move(group_exprs)),
      agg_calls_(std::move(agg_calls)) {}

Status HashAggOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  results_.clear();
  pos_ = 0;
  R3_RETURN_IF_ERROR(child_->Open(ctx));

  struct Group {
    Row keys;
    std::vector<AggState> states;
  };
  std::unordered_map<std::string, Group> groups;
  if (est_input_rows_ > 0) {
    groups.reserve(static_cast<size_t>(
        std::min<uint64_t>(est_input_rows_, kMaxReserve)));
  }

  Row keys;
  std::string key;  // reused encode buffer — no per-row allocation
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  while (true) {
    child_batch_.Reset(ctx->batch_size);
    R3_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&child_batch_));
    if (!ok) break;
    for (size_t r = 0; r < child_batch_.size(); ++r) {
      ctx_->clock->ChargeDbmsTuple();
      ec.row = &child_batch_.row(r);
      key.clear();
      keys.clear();
      for (const Expr* g : group_exprs_) {
        Value v;
        R3_RETURN_IF_ERROR(EvalExpr(*g, ec, &v));
        key_codec::EncodeValue(v, &key);
        keys.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) {
        it->second.keys = keys;
        it->second.states.resize(agg_calls_.size());
      }
      for (size_t i = 0; i < agg_calls_.size(); ++i) {
        const Expr& call = *agg_calls_[i];
        Value arg;
        if (call.agg_func != AggFunc::kCountStar) {
          R3_RETURN_IF_ERROR(EvalExpr(*call.children[0], ec, &arg));
        }
        it->second.states[i].Accumulate(call, arg);
      }
    }
  }
  R3_RETURN_IF_ERROR(child_->Close());

  if (groups.empty() && group_exprs_.empty()) {
    // Aggregates over empty input without GROUP BY: one row of "empties".
    Row out;
    for (const Expr* call : agg_calls_) {
      AggState empty;
      R3_ASSIGN_OR_RETURN(Value v, empty.Finalize(*call));
      out.push_back(std::move(v));
    }
    results_.push_back(std::move(out));
    return Status::OK();
  }
  // Emit in encoded-key order (what the previous std::map implementation
  // produced) so result order stays deterministic.
  std::vector<std::pair<const std::string*, Group*>> ordered;
  ordered.reserve(groups.size());
  for (auto& [k, g] : groups) ordered.emplace_back(&k, &g);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  results_.reserve(ordered.size());
  for (auto& [k, g] : ordered) {
    Row out = std::move(g->keys);
    for (size_t i = 0; i < agg_calls_.size(); ++i) {
      R3_ASSIGN_OR_RETURN(Value v, g->states[i].Finalize(*agg_calls_[i]));
      out.push_back(std::move(v));
    }
    results_.push_back(std::move(out));
  }
  return Status::OK();
}

Result<bool> HashAggOp::NextBatchImpl(RowBatch* out) {
  while (!out->full() && pos_ < results_.size()) {
    out->AppendRow() = results_[pos_++];  // copy: results_ replay on re-open
  }
  return !out->empty();
}

Status HashAggOp::CloseImpl() {
  results_.clear();
  pos_ = 0;
  return Status::OK();
}

std::string HashAggOp::Describe(bool analyze) const {
  std::string out = "HashAggregate(groups=[";
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (i != 0) out += ", ";
    out += group_exprs_[i]->ToString();
  }
  out += "], aggs=[";
  for (size_t i = 0; i < agg_calls_.size(); ++i) {
    if (i != 0) out += ", ";
    out += agg_calls_[i]->ToString();
  }
  return out + "])" + StatsSuffix(analyze) + "\n" +
         Indent(child_->Describe(analyze));
}

}  // namespace rdbms
}  // namespace r3
