// Columnar batch engine tests: ColumnBatch invariants (null bitmap, lane
// demotion, string interning), vectorized-vs-scalar evaluation parity, key
// digest compatibility with HashRow, and randomized whole-plan equivalence
// against the row-at-a-time reference interpreter (reference_exec.h) as the
// oracle — results, row ids, emission order, the rows_processed work metric
// and, for plans that raise an error on some row, the error status must all
// match.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/batch_exec.h"
#include "exec/vector_eval.h"
#include "plan/logical_plan.h"
#include "reference_exec.h"

namespace dvs {
namespace {

std::vector<IdRow> MakeIdRows(std::vector<Row> rows) {
  std::vector<IdRow> out;
  RowId id = 1;
  for (Row& r : rows) out.push_back({id++, std::move(r)});
  return out;
}

// ---- Null bitmap ----

TEST(ColumnBatchTest, NullBitmapRoundTrip) {
  BatchColumn col;
  col.AppendValue(Value::Int(1));
  col.AppendValue(Value::Null());
  col.AppendValue(Value::Int(3));
  col.AppendValue(Value::Null());
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_TRUE(col.IsNull(3));
  EXPECT_EQ(col.null_count(), 2u);
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2).int_value(), 3);
}

TEST(ColumnBatchTest, NullPropagatesThroughVectorEval) {
  // v + 1 over [10, NULL, 30]: the null row stays null, exactly like the
  // scalar engine's null propagation.
  std::vector<IdRow> rows =
      MakeIdRows({{Value::Int(10)}, {Value::Null()}, {Value::Int(30)}});
  BatchVector batches = RowsToBatches(rows);
  ASSERT_EQ(batches.size(), 1u);
  ExprPtr e = Binary(BinaryOp::kAdd, ColRef(0), LitInt(1));
  EvalContext ec;
  Result<ColumnPtr> out = EvalColumn(*e, *batches[0], nullptr, ec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value()->GetValue(0).int_value(), 11);
  EXPECT_TRUE(out.value()->IsNull(1));
  EXPECT_EQ(out.value()->GetValue(2).int_value(), 31);
}

// ---- Lane discipline ----

TEST(ColumnBatchTest, MixedTagsDemoteWithoutPromotion) {
  // Int then double then string: the lane demotes to boxed values but every
  // element keeps its exact original tag (SUM's all-int accumulation and
  // Value::Hash are tag-sensitive).
  BatchColumn col;
  col.AppendValue(Value::Int(7));
  col.AppendValue(Value::Double(2.5));
  col.AppendValue(Value::String("x"));
  EXPECT_EQ(col.lane(), BatchColumn::Lane::kVal);
  EXPECT_EQ(col.GetValue(0).type(), DataType::kInt64);
  EXPECT_EQ(col.GetValue(1).type(), DataType::kDouble);
  EXPECT_EQ(col.GetValue(2).type(), DataType::kString);
  EXPECT_EQ(col.GetValue(0).int_value(), 7);
  EXPECT_EQ(col.GetValue(1).double_value(), 2.5);
  EXPECT_EQ(col.GetValue(2).string_value(), "x");
}

TEST(ColumnBatchTest, BoolAndTimestampShareLaneButKeepTags) {
  // BOOL / INT64 / TIMESTAMP all ride the i64 lane; mixing them within one
  // column must still round-trip exact tags (via demotion).
  BatchColumn col;
  col.AppendValue(Value::Bool(true));
  col.AppendValue(Value::Timestamp(12345));
  col.AppendValue(Value::Int(9));
  EXPECT_EQ(col.GetValue(0).type(), DataType::kBool);
  EXPECT_TRUE(col.GetValue(0).bool_value());
  EXPECT_EQ(col.GetValue(1).type(), DataType::kTimestamp);
  EXPECT_EQ(col.GetValue(2).type(), DataType::kInt64);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(col.HashAt(i), col.GetValue(i).Hash()) << i;
  }
}

// ---- String lifetime ----

TEST(ColumnBatchTest, GatherInternsStringsIntoDestinationArena) {
  // Strings gathered into a new batch must not reference the source arena:
  // the source batch (and its arena) is freed while the gathered batch is
  // still live — exactly what filter compaction and join gathers do across
  // batch boundaries.
  auto src = std::make_shared<ColumnBatch>();
  {
    auto col = std::make_shared<BatchColumn>();
    col->AppendValue(Value::String("alpha-0123456789"));
    col->AppendValue(Value::String("beta-0123456789"));
    col->AppendValue(Value::String("gamma-0123456789"));
    src->cols.push_back(std::move(col));
    src->ids = {1, 2, 3};
    src->rows = 3;
  }
  BatchPtr gathered = GatherBatch(src, Sel{0, 2});
  src.reset();  // free the source batch and its string arena
  ASSERT_EQ(gathered->rows, 2u);
  EXPECT_EQ(gathered->ids, (std::vector<RowId>{1, 3}));
  EXPECT_EQ(gathered->cols[0]->GetValue(0).string_value(), "alpha-0123456789");
  EXPECT_EQ(gathered->cols[0]->GetValue(1).string_value(), "gamma-0123456789");
}

// ---- Selection-vector compaction ----

TEST(BatchExecTest, FilterCompactsAcrossBatchBoundaries) {
  // 2.5 batches worth of rows; keep every third row via IN. Compaction must
  // keep ids aligned with values across batch boundaries, and the batch
  // engine's work accounting must equal the reference interpreter's.
  const size_t n = 2 * kBatchSize + kBatchSize / 2;
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::String("r" + std::to_string(i % 7))});
  }
  std::vector<IdRow> input = MakeIdRows(std::move(rows));

  std::vector<ExprPtr> in_children;
  in_children.push_back(ColRef(0));
  for (size_t i = 0; i < n; i += 3) {
    in_children.push_back(LitInt(static_cast<int64_t>(i)));
  }
  PlanPtr plan = MakeFilter(
      MakeScan(1, "t",
               Schema({{"i", DataType::kInt64}, {"s", DataType::kString}})),
      InList(std::move(in_children)));

  ExecContext batch_ctx;
  batch_ctx.resolve_scan = [&](ObjectId) -> Result<std::vector<IdRow>> {
    return input;
  };
  ExecContext row_ctx = batch_ctx;

  auto b = ExecutePlan(*plan, batch_ctx);
  auto r = reference::Execute(*plan, row_ctx);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(b.value().size(), (n + 2) / 3);
  ASSERT_EQ(b.value().size(), r.value().size());
  for (size_t i = 0; i < b.value().size(); ++i) {
    EXPECT_EQ(b.value()[i].id, r.value()[i].id);
    EXPECT_TRUE(RowsEqual(b.value()[i].values, r.value()[i].values));
  }
  EXPECT_EQ(batch_ctx.rows_processed, row_ctx.rows_processed);
}

// ---- Digest compatibility ----

TEST(BatchKeysTest, DigestsMatchHashRowExactly) {
  // ComputeBatchKeys digests feed the same KeyedIndex/KeyedSet tables as
  // KeyExtractor; they must equal HashRow of the materialized key bit for
  // bit, across every value tag (including the integral-double case, where
  // HashRow's numeric folding is tag-sensitive).
  std::vector<Row> rows = {
      {Value::Int(42), Value::String("a")},
      {Value::Null(), Value::String("b")},
      {Value::Bool(true), Value::Null()},
      {Value::Double(3.0), Value::String("c")},   // integral double
      {Value::Double(3.25), Value::String("d")},  // non-integral
      {Value::Timestamp(99), Value::String("e")},
  };
  BatchVector batches = RowsToBatches(MakeIdRows(std::move(rows)));
  ASSERT_EQ(batches.size(), 1u);
  std::vector<ExprPtr> keys;
  keys.push_back(ColRef(0));
  keys.push_back(ColRef(1));
  EvalContext ec;
  Result<BatchKeys> bk = ComputeBatchKeys(keys, *batches[0], ec);
  ASSERT_TRUE(bk.ok()) << bk.status().ToString();
  for (size_t r = 0; r < batches[0]->rows; ++r) {
    Row key = {batches[0]->cols[0]->GetValue(r),
               batches[0]->cols[1]->GetValue(r)};
    EXPECT_EQ(bk.value().digests[r], HashRow(key)) << "row " << r;
    bool has_null = key[0].is_null() || key[1].is_null();
    EXPECT_EQ(bk.value().has_null[r] != 0, has_null) << "row " << r;
  }
}

// ---- Randomized whole-plan equivalence (reference interpreter as oracle) ----

Row RandomRow(Rng* rng) {
  // k: small-domain int (join/group key), occasionally null; v: mixed
  // int/double/null (SUM/AVG folds are tag-sensitive); s: small-domain
  // string, occasionally null.
  Value k = rng->Bernoulli(0.1) ? Value::Null()
                                : Value::Int(rng->Uniform(0, 6));
  Value v;
  switch (rng->Uniform(0, 2)) {
    case 0:
      v = Value::Null();
      break;
    case 1:
      v = Value::Int(rng->Uniform(-5, 5));
      break;
    default:
      v = Value::Double(static_cast<double>(rng->Uniform(-8, 8)) / 2.0);
      break;
  }
  Value s = rng->Bernoulli(0.1)
                ? Value::Null()
                : Value::String("s" + std::to_string(rng->Uniform(0, 3)));
  return {std::move(k), std::move(v), std::move(s)};
}

// On rows with v = 4 (about one row in twenty), raises an error that names
// the row ("cannot cast 's2|3|4' to INT"); yields 7 on every other row. The
// columns of k, v and s are passed in so the expression also fits a joined
// row. Which row fails first is visible in the message, so error selection
// is checked, not just the error code.
ExprPtr RowError(size_t k, size_t v, size_t s) {
  return CastTo(
      DataType::kInt64,
      Func("iff", {Binary(BinaryOp::kEq, ColRef(v), LitInt(4)),
                   Func("concat", {ColRef(s), LitString("|"), ColRef(k),
                                   LitString("|"), ColRef(v)}),
                   LitString("7")}));
}

constexpr int kShapeCount = 21;

PlanPtr EquivalenceShape(int which, const Schema& schema) {
  PlanPtr sa = MakeScan(1, "a", schema);
  PlanPtr sb = MakeScan(2, "b", schema);
  switch (which) {
    case 0:  // filter + project with arithmetic
      return MakeProject(
          MakeFilter(sa, Binary(BinaryOp::kGt, ColRef(1), LitInt(0))),
          {ColRef(0), Binary(BinaryOp::kAdd, ColRef(1), ColRef(1)), ColRef(2)},
          {"k", "v2", "s"});
    case 1:  // inner equi-join
      return MakeJoin(JoinType::kInner, sa, sb, {ColRef(0)}, {ColRef(0)});
    case 2:  // left join with residual over the concatenated row
      return MakeJoin(JoinType::kLeft, sa, sb, {ColRef(0)}, {ColRef(0)},
                      Binary(BinaryOp::kNe, ColRef(2), ColRef(5)));
    case 3:  // full outer join
      return MakeJoin(JoinType::kFull, sa, sb, {ColRef(0)}, {ColRef(0)});
    case 4:  // grouped aggregation, all fold kinds
      return MakeAggregate(sa, {ColRef(0)},
                           {Agg(AggFunc::kCountStar, {}),
                            Agg(AggFunc::kSum, {ColRef(1)}),
                            Agg(AggFunc::kMin, {ColRef(2)}),
                            Agg(AggFunc::kAvg, {ColRef(1)})},
                           {"k", "n", "sv", "mn", "av"});
    case 5:  // aggregation over a join (the E15 hot-path shape)
      return MakeAggregate(
          MakeJoin(JoinType::kInner, sa, sb, {ColRef(0)}, {ColRef(0)}),
          {ColRef(2)},
          {Agg(AggFunc::kCountStar, {}), Agg(AggFunc::kSum, {ColRef(4)})},
          {"s", "n", "sv"});
    case 6:  // distinct over a projection
      return MakeDistinct(MakeProject(sa, {ColRef(0), ColRef(2)}, {"k", "s"}));
    case 7:  // union all
      return MakeUnionAll(MakeProject(sa, {ColRef(0), ColRef(1)}, {"k", "v"}),
                          MakeProject(sb, {ColRef(0), ColRef(1)}, {"k", "v"}));
    case 8:  // window over partitions (row-kernel shim under batching)
      return MakeWindow(sa, {ColRef(2)}, {{ColRef(1), true}},
                        {Win(WindowFunc::kRowNumber, {}),
                         Win(WindowFunc::kSum, {ColRef(1)})},
                        {"rn", "running"});
    case 9:  // scalar aggregation (forced global group)
      return MakeAggregate(sa, {},
                           {Agg(AggFunc::kCountStar, {}),
                            Agg(AggFunc::kSum, {ColRef(1)})},
                           {"n", "sv"});
    case 10:  // order by + limit over a filter (row kernels)
      return MakeLimit(
          MakeOrderBy(MakeFilter(sa, Binary(BinaryOp::kGe, ColRef(1),
                                            LitInt(-2))),
                      {{ColRef(2), false}, {ColRef(0), true}}),
          7);
    case 11:  // flatten of a per-row array
      return MakeFlatten(sa, Func("array_construct", {ColRef(0), ColRef(1)}));
    // Shapes 12.. raise an error on some rows: the surfaced error must be
    // the one row-order evaluation raises, from every operator kind.
    case 12:  // project
      return MakeProject(sa, {ColRef(0), RowError(0, 1, 2)}, {"k", "e"});
    case 13:  // filter predicate
      return MakeFilter(sa, Binary(BinaryOp::kGt, RowError(0, 1, 2),
                                   LitInt(0)));
    case 14:  // join key on the probe side
      return MakeJoin(JoinType::kInner, sa, sb, {RowError(0, 1, 2)},
                      {ColRef(0)});
    case 15:  // join key on the build side, full outer
      return MakeJoin(JoinType::kFull, sa, sb, {ColRef(0)},
                      {RowError(0, 1, 2)});
    case 16:  // left-join residual over the concatenated row
      return MakeJoin(JoinType::kLeft, sa, sb, {ColRef(0)}, {ColRef(0)},
                      Binary(BinaryOp::kGt, RowError(3, 4, 5), LitInt(0)));
    case 17:  // aggregate argument
      return MakeAggregate(sa, {ColRef(0)},
                           {Agg(AggFunc::kSum, {RowError(0, 1, 2)})},
                           {"k", "se"});
    case 18:  // group key
      return MakeAggregate(sa, {RowError(0, 1, 2)},
                           {Agg(AggFunc::kCountStar, {})}, {"e", "n"});
    case 19:  // order-by key
      return MakeOrderBy(sa, {{RowError(0, 1, 2), true}});
    default:  // both join inputs raise: the left input's error wins
      return MakeJoin(
          JoinType::kInner,
          MakeFilter(sa, Binary(BinaryOp::kGt, RowError(0, 1, 2), LitInt(0))),
          MakeFilter(sb, Binary(BinaryOp::kGt, RowError(0, 1, 2), LitInt(0))),
          {ColRef(0)}, {ColRef(0)});
  }
}

TEST(BatchExecTest, RandomPlansMatchRowEngineExactly) {
  const Schema schema({{"k", DataType::kInt64},
                       {"v", DataType::kInt64},
                       {"s", DataType::kString}});
  int errors = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (int shape = 0; shape < kShapeCount; ++shape) {
      Rng rng(seed * 104729 + static_cast<uint64_t>(shape));
      std::vector<Row> ra, rb;
      const int64_t na = rng.Uniform(0, 60);
      const int64_t nb = rng.Uniform(0, 60);
      for (int64_t i = 0; i < na; ++i) ra.push_back(RandomRow(&rng));
      for (int64_t i = 0; i < nb; ++i) rb.push_back(RandomRow(&rng));
      std::vector<IdRow> ia = MakeIdRows(std::move(ra));
      std::vector<IdRow> ib = MakeIdRows(std::move(rb));

      PlanPtr plan = CanonicalizePlanTags(EquivalenceShape(shape, schema));
      ASSERT_NE(plan, nullptr);

      ExecContext batch_ctx;
      batch_ctx.resolve_scan = [&](ObjectId id) -> Result<std::vector<IdRow>> {
        return id == 1 ? ia : ib;
      };
      ExecContext row_ctx = batch_ctx;

      auto b = ExecutePlan(*plan, batch_ctx);
      auto r = reference::Execute(*plan, row_ctx);
      ASSERT_EQ(b.ok(), r.ok()) << "seed " << seed << " shape " << shape;
      EXPECT_EQ(batch_ctx.rows_processed, row_ctx.rows_processed)
          << "seed " << seed << " shape " << shape;
      if (!b.ok()) {
        ++errors;
        EXPECT_EQ(b.status().code(), r.status().code())
            << "seed " << seed << " shape " << shape;
        EXPECT_EQ(b.status().message(), r.status().message())
            << "seed " << seed << " shape " << shape;
        continue;
      }
      ASSERT_EQ(b.value().size(), r.value().size())
          << "seed " << seed << " shape " << shape;
      for (size_t i = 0; i < b.value().size(); ++i) {
        EXPECT_EQ(b.value()[i].id, r.value()[i].id)
            << "seed " << seed << " shape " << shape << " row " << i;
        EXPECT_TRUE(RowsEqual(b.value()[i].values, r.value()[i].values))
            << "seed " << seed << " shape " << shape << " row " << i;
      }
    }
  }
  // The error shapes must actually exercise the error path, and not on
  // every run.
  EXPECT_GT(errors, 10);
  EXPECT_LT(errors, 12 * 9);
}

TEST(BatchExecTest, VolatileFunctionWithoutEntropyFailsLikeScalarEval) {
  // RANDOM() over a non-empty input with no entropy source in the context:
  // the columnar engine surfaces the scalar evaluator's error.
  PlanPtr plan = CanonicalizePlanTags(
      MakeProject(MakeScan(1, "t", Schema({{"k", DataType::kInt64}})),
                  {ColRef(0), Func("random", {})}, {"k", "r"}));
  std::vector<IdRow> input = MakeIdRows({{Value::Int(1)}, {Value::Int(2)}});
  ExecContext ctx;
  ctx.resolve_scan = [&](ObjectId) -> Result<std::vector<IdRow>> {
    return input;
  };
  ExecContext ref_ctx = ctx;
  auto b = ExecutePlan(*plan, ctx);
  auto r = reference::Execute(*plan, ref_ctx);
  ASSERT_FALSE(b.ok());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kUserError);
  EXPECT_EQ(b.status().message(),
            "random(): no entropy source in this context");
  EXPECT_EQ(b.status().ToString(), r.status().ToString());
}

TEST(BatchExecTest, ScanWidthMismatchFailsPrecondition) {
  // A scan source whose rows do not have the scan node's schema width (a
  // time-travel read across a schema-changing rebind, for one) fails
  // cleanly instead of reading columns that are not there.
  PlanPtr plan = CanonicalizePlanTags(MakeProject(
      MakeScan(1, "t",
               Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}})),
      {ColRef(1)}, {"v"}));
  std::vector<IdRow> narrow = MakeIdRows({{Value::Int(1)}, {Value::Int(2)}});
  ExecContext row_ctx;
  row_ctx.resolve_scan = [&](ObjectId) -> Result<std::vector<IdRow>> {
    return narrow;
  };
  auto r = ExecutePlan(*plan, row_ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("width 1"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(row_ctx.rows_processed, 0u);

  ExecContext batch_ctx;
  batch_ctx.resolve_scan_batches = [&](ObjectId) -> Result<BatchVector> {
    return RowsToBatches(narrow);
  };
  auto b = ExecutePlan(*plan, batch_ctx);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().ToString(), r.status().ToString());
}

}  // namespace
}  // namespace dvs
