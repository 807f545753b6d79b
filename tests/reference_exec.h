// Row-at-a-time reference interpreter: the oracle the columnar engine
// (ExecutePlan, exec/batch_exec.h) is checked against.
//
// Each operator runs over fully materialized child rows: filter and project
// evaluate through the scalar evaluator one row at a time, union tags ids
// per branch, and every other operator calls the row kernel that
// exec/executor.h exports. Its contract is ExecutePlan's: the same rows in
// the same order, the same row ids, the same error (code and message) for
// the same failing row, and the same rows_processed, charged only when the
// whole execution succeeds. With ctx.profile set it records rows_out and
// wall_ns per operator, so EXPLAIN ANALYZE output can be compared too.

#ifndef DVS_TESTS_REFERENCE_EXEC_H_
#define DVS_TESTS_REFERENCE_EXEC_H_

#include <chrono>
#include <vector>

#include "exec/executor.h"
#include "exec/row_id.h"
#include "obs/profile.h"

namespace dvs {
namespace reference {

inline Result<std::vector<IdRow>> ExecNode(const PlanNode& n,
                                           const ExecContext& ctx,
                                           uint64_t* charged) {
  const auto start = std::chrono::steady_clock::now();
  auto child = [&](size_t i) { return ExecNode(*n.children[i], ctx, charged); };
  Result<std::vector<IdRow>> result = [&]() -> Result<std::vector<IdRow>> {
    switch (n.kind) {
      case PlanKind::kScan:
        return ctx.resolve_scan(n.table_id);
      case PlanKind::kValues:
        return ComputeValuesRows(n);
      case PlanKind::kFilter: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        std::vector<IdRow> out;
        for (IdRow& r : in) {
          DVS_ASSIGN_OR_RETURN(bool pass,
                               EvalPredicate(*n.predicate, r.values, ctx.eval));
          if (pass) out.push_back(std::move(r));
        }
        return out;
      }
      case PlanKind::kProject: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        std::vector<IdRow> out;
        for (const IdRow& r : in) {
          Row vals;
          for (const ExprPtr& e : n.exprs) {
            DVS_ASSIGN_OR_RETURN(Value v, Eval(*e, r.values, ctx.eval));
            vals.push_back(std::move(v));
          }
          out.push_back({r.id, std::move(vals)});
        }
        return out;
      }
      case PlanKind::kJoin: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> left, child(0));
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> right, child(1));
        return ComputeJoin(n, left, right, ctx.eval);
      }
      case PlanKind::kUnionAll: {
        std::vector<IdRow> out;
        for (size_t b = 0; b < n.children.size(); ++b) {
          DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(b));
          for (IdRow& r : in) {
            out.push_back(
                {rowid::Union(n.node_tag, b, r.id), std::move(r.values)});
          }
        }
        return out;
      }
      case PlanKind::kAggregate: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeAggregateRows(n, in, ctx.eval,
                                    /*force_global_group=*/true);
      }
      case PlanKind::kDistinct: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeDistinctRows(n, in, ctx.eval);
      }
      case PlanKind::kWindow: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeWindowRows(n, in, ctx.eval);
      }
      case PlanKind::kFlatten: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeFlattenRows(n, in, ctx.eval);
      }
      case PlanKind::kOrderBy: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeOrderByRows(n, std::move(in), ctx.eval);
      }
      case PlanKind::kLimit: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeLimitRows(n, std::move(in));
      }
    }
    return Internal("unhandled plan kind");
  }();
  if (result.ok()) {
    *charged += result.value().size();
    if (ctx.profile != nullptr) {
      obs::OpStats* s = ctx.profile->Node(n.node_tag);
      s->rows_out += result.value().size();
      s->wall_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
  }
  return result;
}

/// Executes `plan` row at a time through ctx.resolve_scan.
inline Result<std::vector<IdRow>> Execute(const PlanNode& plan,
                                          const ExecContext& ctx) {
  uint64_t charged = 0;
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> rows, ExecNode(plan, ctx, &charged));
  ctx.rows_processed += charged;
  return rows;
}

}  // namespace reference
}  // namespace dvs

#endif  // DVS_TESTS_REFERENCE_EXEC_H_
