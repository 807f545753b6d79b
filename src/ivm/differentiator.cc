#include "ivm/differentiator.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/key_hash.h"
#include "exec/row_id.h"
#include "obs/profile.h"

namespace dvs {

namespace {

/// Batch-engine snapshot of a subplan at one interval endpoint, memoized in
/// the DeltaContext's BatchMemo. Both endpoints share the memo, so
/// unchanged micro-partitions (pointer-identical batches from the partition
/// cache) turn the second endpoint's joins into probe-cache hits.
Result<const BatchVector*> SnapshotBatches(const PlanNode& n,
                                           const DeltaContext& ctx,
                                           bool at_end) {
  auto& cache = ctx.memo.snapshots[at_end ? 1 : 0];
  auto it = cache.find(&n);
  if (it != cache.end()) return &it->second;
  BatchExecEnv env;
  env.resolve_scan = at_end ? ctx.resolve_at_end : ctx.resolve_at_start;
  env.resolve_scan_batches =
      at_end ? ctx.batch_resolve_at_end : ctx.batch_resolve_at_start;
  env.eval = at_end ? ctx.eval_end : ctx.eval_start;
  env.memo = &ctx.memo;
  env.profile = ctx.profile;
  // Materialization is not charged (see Snapshot below); env charges are
  // discarded with the env.
  DVS_ASSIGN_OR_RETURN(BatchVector batches, ExecutePlanBatches(n, env));
  auto [ins, unused] = cache.emplace(&n, std::move(batches));
  (void)unused;
  return &ins->second;
}

/// Materializes a subplan at one end of the interval, memoized.
///
/// Note on cost accounting: materialization itself is *not* charged to
/// rows_processed. The work metric models a pruning engine (Snowflake
/// prunes snapshot scans via partition metadata and row-id prefixes,
/// §5.5.2); each delta rule charges the rows it actually consumes after
/// restriction, plus its output. Wall-clock cost of the interpreter is
/// measured separately by E14.
Result<const std::vector<IdRow>*> Snapshot(const PlanNode& n,
                                           const DeltaContext& ctx,
                                           bool at_end) {
  auto& cache = at_end ? ctx.end_cache : ctx.start_cache;
  auto it = cache.find(&n);
  if (it != cache.end()) return &it->second;
  DVS_ASSIGN_OR_RETURN(const BatchVector* batches,
                       SnapshotBatches(n, ctx, at_end));
  auto [ins, unused] = cache.emplace(&n, BatchesToRows(*batches));
  (void)unused;
  return &ins->second;
}

const EvalContext& CtxFor(const DeltaContext& ctx, ChangeAction action) {
  return action == ChangeAction::kDelete ? ctx.eval_start : ctx.eval_end;
}

Result<ChangeSet> Delta(const PlanNode& n, const DeltaContext& ctx);
Result<ChangeSet> DeltaImpl(const PlanNode& n, const DeltaContext& ctx);

// Δ(σ_p Q): filter each change row with the predicate evaluated in the
// context matching its action (deletes see I0 context functions, inserts
// I1).
Result<ChangeSet> DeltaFilter(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet in, Delta(*n.children[0], ctx));
  ChangeSet out;
  for (ChangeRow& c : in) {
    DVS_ASSIGN_OR_RETURN(
        bool pass, EvalPredicate(*n.predicate, c.values, CtxFor(ctx, c.action)));
    if (pass) out.push_back(std::move(c));
  }
  return out;
}

Result<ChangeSet> DeltaProject(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet in, Delta(*n.children[0], ctx));
  ChangeSet out;
  out.reserve(in.size());
  for (const ChangeRow& c : in) {
    Row vals;
    vals.reserve(n.exprs.size());
    for (const ExprPtr& e : n.exprs) {
      DVS_ASSIGN_OR_RETURN(Value v, Eval(*e, c.values, CtxFor(ctx, c.action)));
      vals.push_back(std::move(v));
    }
    out.push_back({c.action, c.row_id, std::move(vals)});
  }
  return out;
}

Result<ChangeSet> DeltaFlatten(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet in, Delta(*n.children[0], ctx));
  ChangeSet out;
  for (const ChangeRow& c : in) {
    DVS_ASSIGN_OR_RETURN(Value arr,
                         Eval(*n.flatten_expr, c.values, CtxFor(ctx, c.action)));
    if (arr.is_null()) continue;
    if (arr.type() != DataType::kArray) {
      return UserError("FLATTEN input is not an array");
    }
    const Array& elements = arr.array_value();
    for (size_t i = 0; i < elements.size(); ++i) {
      Row vals = c.values;
      vals.push_back(Value::Int(static_cast<int64_t>(i)));
      vals.push_back(elements[i]);
      out.push_back({c.action, rowid::Flatten(n.node_tag, c.row_id, i),
                     std::move(vals)});
    }
  }
  return out;
}

Result<ChangeSet> DeltaUnionAll(const PlanNode& n, const DeltaContext& ctx) {
  ChangeSet out;
  for (size_t b = 0; b < n.children.size(); ++b) {
    DVS_ASSIGN_OR_RETURN(ChangeSet in, Delta(*n.children[b], ctx));
    for (ChangeRow& c : in) {
      out.push_back({c.action, rowid::Union(n.node_tag, b, c.row_id),
                     std::move(c.values)});
    }
  }
  return out;
}

// Builds a digest-keyed hash table over `rows` using `key_exprs`.
Result<KeyedIndex<std::vector<size_t>>> BuildKeyedTable(
    const std::vector<ExprPtr>& key_exprs, const std::vector<IdRow>& rows,
    const EvalContext& ec) {
  KeyedIndex<std::vector<size_t>> table;
  table.reserve(rows.size());
  KeyExtractor key(key_exprs, ec);
  for (size_t i = 0; i < rows.size(); ++i) {
    DVS_RETURN_IF_ERROR(key.Extract(rows[i].values));
    if (key.has_null()) continue;
    auto it = table.find(key.ref());
    if (it == table.end()) {
      it = table.emplace(key.hashed_key(), std::vector<size_t>{}).first;
    }
    it->second.push_back(i);
  }
  return table;
}

// Δ(Q ⋈inner R) = ΔQ ⋈ R@I1 + Q@I0 ⋈ ΔR, with the change action taken from
// the delta side (signed-multiset bilinearity; DESIGN.md §6).
Result<ChangeSet> DeltaInnerJoin(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet dq, Delta(*n.children[0], ctx));
  DVS_ASSIGN_OR_RETURN(ChangeSet dr, Delta(*n.children[1], ctx));
  ChangeSet out;

  // Term 1: ΔQ ⋈ R@I1 — skip entirely when ΔQ is empty.
  if (!dq.empty()) {
    DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* r1,
                         Snapshot(*n.children[1], ctx, /*at_end=*/true));
    DVS_ASSIGN_OR_RETURN(KeyedIndex<std::vector<size_t>> table,
                         BuildKeyedTable(n.right_keys, *r1, ctx.eval_end));
    KeyExtractor left_del(n.left_keys, ctx.eval_start);
    KeyExtractor left_ins(n.left_keys, ctx.eval_end);
    for (const ChangeRow& c : dq) {
      KeyExtractor& key =
          c.action == ChangeAction::kDelete ? left_del : left_ins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      if (key.has_null()) continue;
      auto it = table.find(key.ref());
      if (it == table.end()) continue;
      for (size_t ri : it->second) {
        Row combined = ConcatRows(c.values, (*r1)[ri].values);
        if (n.residual) {
          DVS_ASSIGN_OR_RETURN(
              bool pass,
              EvalPredicate(*n.residual, combined, CtxFor(ctx, c.action)));
          if (!pass) continue;
        }
        out.push_back({c.action, rowid::Join(n.node_tag, c.row_id, (*r1)[ri].id),
                       std::move(combined)});
      }
    }
  }

  // Term 2: Q@I0 ⋈ ΔR.
  if (!dr.empty()) {
    DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* q0,
                         Snapshot(*n.children[0], ctx, /*at_end=*/false));
    DVS_ASSIGN_OR_RETURN(KeyedIndex<std::vector<size_t>> table,
                         BuildKeyedTable(n.left_keys, *q0, ctx.eval_start));
    KeyExtractor right_del(n.right_keys, ctx.eval_start);
    KeyExtractor right_ins(n.right_keys, ctx.eval_end);
    for (const ChangeRow& c : dr) {
      KeyExtractor& key =
          c.action == ChangeAction::kDelete ? right_del : right_ins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      if (key.has_null()) continue;
      auto it = table.find(key.ref());
      if (it == table.end()) continue;
      for (size_t li : it->second) {
        Row combined = ConcatRows((*q0)[li].values, c.values);
        if (n.residual) {
          DVS_ASSIGN_OR_RETURN(
              bool pass,
              EvalPredicate(*n.residual, combined, CtxFor(ctx, c.action)));
          if (!pass) continue;
        }
        out.push_back({c.action, rowid::Join(n.node_tag, (*q0)[li].id, c.row_id),
                       std::move(combined)});
      }
    }
  }
  ctx.rows_processed += dq.size() + dr.size();
  return out;
}

// Affected-key recompute shared by outer joins, aggregates, distinct, and
// windows: evaluate the operator over the I0 snapshot restricted to affected
// keys (emit as deletes) and over the I1 snapshot restricted the same way
// (emit as inserts); consolidation cancels the unchanged remainder.
struct KeySet {
  KeyedSet keys;                      ///< Digest-keyed affected keys.
  std::unordered_set<RowId> row_ids;  ///< Rows in the delta itself (null-key
                                      ///< rows are matched by id instead).
  bool Contains(const HashedKeyRef& key, RowId id) const {
    if (row_ids.count(id)) return true;
    return keys.find(key) != keys.end();
  }
};

std::vector<IdRow> Restrict(const std::vector<IdRow>& rows,
                            const std::vector<ExprPtr>& key_exprs,
                            const EvalContext& ec, const KeySet& ks,
                            Status* status) {
  std::vector<IdRow> out;
  KeyExtractor key(key_exprs, ec);
  for (const IdRow& r : rows) {
    Status s = key.Extract(r.values);
    if (!s.ok()) {
      *status = s;
      return out;
    }
    if (ks.Contains(key.ref(), r.id)) out.push_back(r);
  }
  return out;
}

// Δ(outer join): affected keys are the join keys touched on either side.
Result<ChangeSet> DeltaOuterJoin(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet dq, Delta(*n.children[0], ctx));
  DVS_ASSIGN_OR_RETURN(ChangeSet dr, Delta(*n.children[1], ctx));
  if (dq.empty() && dr.empty()) return ChangeSet{};

  KeySet left_ks, right_ks;
  {
    KeyExtractor ldel(n.left_keys, ctx.eval_start);
    KeyExtractor lins(n.left_keys, ctx.eval_end);
    for (const ChangeRow& c : dq) {
      KeyExtractor& key = c.action == ChangeAction::kDelete ? ldel : lins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      left_ks.row_ids.insert(c.row_id);
      if (!key.has_null()) {
        left_ks.keys.insert(key.hashed_key());
        right_ks.keys.insert(key.hashed_key());
      }
    }
    KeyExtractor rdel(n.right_keys, ctx.eval_start);
    KeyExtractor rins(n.right_keys, ctx.eval_end);
    for (const ChangeRow& c : dr) {
      KeyExtractor& key = c.action == ChangeAction::kDelete ? rdel : rins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      right_ks.row_ids.insert(c.row_id);
      if (!key.has_null()) {
        right_ks.keys.insert(key.hashed_key());
        left_ks.keys.insert(key.hashed_key());
      }
    }
  }

  DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* q0,
                       Snapshot(*n.children[0], ctx, false));
  DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* r0,
                       Snapshot(*n.children[1], ctx, false));
  DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* q1,
                       Snapshot(*n.children[0], ctx, true));
  DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* r1,
                       Snapshot(*n.children[1], ctx, true));

  Status st = OkStatus();
  std::vector<IdRow> q0r = Restrict(*q0, n.left_keys, ctx.eval_start, left_ks, &st);
  DVS_RETURN_IF_ERROR(st);
  std::vector<IdRow> r0r = Restrict(*r0, n.right_keys, ctx.eval_start, right_ks, &st);
  DVS_RETURN_IF_ERROR(st);
  std::vector<IdRow> q1r = Restrict(*q1, n.left_keys, ctx.eval_end, left_ks, &st);
  DVS_RETURN_IF_ERROR(st);
  std::vector<IdRow> r1r = Restrict(*r1, n.right_keys, ctx.eval_end, right_ks, &st);
  DVS_RETURN_IF_ERROR(st);

  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> old_rows,
                       ComputeJoin(n, q0r, r0r, ctx.eval_start));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> new_rows,
                       ComputeJoin(n, q1r, r1r, ctx.eval_end));
  ChangeSet out;
  out.reserve(old_rows.size() + new_rows.size());
  for (IdRow& r : old_rows) {
    out.push_back({ChangeAction::kDelete, r.id, std::move(r.values)});
  }
  for (IdRow& r : new_rows) {
    out.push_back({ChangeAction::kInsert, r.id, std::move(r.values)});
  }
  ctx.rows_processed +=
      q0r.size() + r0r.size() + q1r.size() + r1r.size();
  return out;
}

bool ExprsImmutable(const std::vector<ExprPtr>& exprs) {
  for (const ExprPtr& e : exprs) {
    Result<Volatility> v = ExprVolatility(e);
    if (!v.ok() || v.value() != Volatility::kImmutable) return false;
  }
  return true;
}

/// Row-wise redo of one batch's restriction, exactly the scalar code path
/// of Restrict (the first failing row's error surfaces).
Result<Sel> RedoRestrictRowwise(const ColumnBatch& b,
                                const std::vector<ExprPtr>& key_exprs,
                                const EvalContext& ec, const KeySet& ks) {
  Sel sel;
  KeyExtractor key(key_exprs, ec);
  for (size_t r = 0; r < b.rows; ++r) {
    DVS_RETURN_IF_ERROR(key.Extract(MaterializeRow(b, r)));
    if (ks.Contains(key.ref(), b.ids[r])) {
      sel.push_back(static_cast<uint32_t>(r));
    }
  }
  return sel;
}

/// Columnar Restrict: keeps rows whose group key is in `ks`, gathering the
/// survivors into compacted batches. The digest set prefilters so only
/// candidate rows materialize their key Row for the exact KeySet probe.
/// `sel_memo` (optional) caches per-batch selections — pointer-identical
/// snapshot batches at the other endpoint skip key evaluation entirely;
/// only sound when the key exprs are immutable. A batch whose vectorized
/// key evaluation fails is redone row-wise, so a surfaced error is the one
/// row-order evaluation raises.
Status RestrictBatches(const BatchVector& in,
                       const std::vector<ExprPtr>& key_exprs,
                       const EvalContext& ec, const KeySet& ks,
                       const std::unordered_set<uint64_t>& digests,
                       std::unordered_map<const ColumnBatch*, Sel>* sel_memo,
                       BatchVector* out, uint64_t* member_count,
                       obs::OpStats* prof) {
  for (const BatchPtr& b : in) {
    Sel sel;
    const Sel* use = nullptr;
    if (sel_memo != nullptr) {
      auto it = sel_memo->find(b.get());
      if (it != sel_memo->end()) {
        use = &it->second;
        if (prof != nullptr) prof->sel_memo_hits += 1;
      }
    }
    if (use == nullptr) {
      Result<BatchKeys> bk = ComputeBatchKeys(key_exprs, *b, ec);
      if (bk.ok()) {
        const BatchKeys& k = bk.value();
        Row scratch;
        for (size_t r = 0; r < b->rows; ++r) {
          bool hit = !ks.row_ids.empty() && ks.row_ids.count(b->ids[r]) > 0;
          if (!hit && digests.count(k.digests[r]) > 0) {
            scratch.clear();
            for (const ColumnPtr& c : k.cols) scratch.push_back(c->GetValue(r));
            hit = ks.keys.find(HashedKeyRef{&scratch, k.digests[r]}) !=
                  ks.keys.end();
          }
          if (hit) sel.push_back(static_cast<uint32_t>(r));
        }
      } else {
        // Vector key evaluation failed somewhere in this batch: redo it
        // row-wise, so a surfaced error is the first failing row's.
        obs::ExecCounters::Instance().row_redos += 1;
        if (prof != nullptr) prof->row_redos += 1;
        DVS_ASSIGN_OR_RETURN(sel, RedoRestrictRowwise(*b, key_exprs, ec, ks));
      }
      if (sel_memo != nullptr) {
        use = &sel_memo->emplace(b.get(), std::move(sel)).first->second;
      } else {
        use = &sel;
      }
    }
    *member_count += use->size();
    if (use->empty()) continue;
    if (use->size() == b->rows) {
      out->push_back(b);  // all rows survive: share the batch untouched
    } else {
      out->push_back(GatherBatch(b, *use));
    }
  }
  return OkStatus();
}

// Δ(γ): affected-group recompute over restricted columnar snapshots. For
// scalar aggregation (no GROUP BY) the single global row is affected
// whenever the input delta is non-empty.
Result<ChangeSet> DeltaAggregate(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet din, Delta(*n.children[0], ctx));
  if (din.empty()) return ChangeSet{};

  DVS_ASSIGN_OR_RETURN(const BatchVector* b0,
                       SnapshotBatches(*n.children[0], ctx, false));
  DVS_ASSIGN_OR_RETURN(const BatchVector* b1,
                       SnapshotBatches(*n.children[0], ctx, true));
  // Scalar aggregation always emits one row, even on empty input; for
  // grouped aggregation, groups with no surviving members disappear.
  const bool force = n.group_by.empty();

  BatchVector old_members, new_members;
  uint64_t old_count = 0, new_count = 0;
  if (force) {
    old_members = *b0;
    new_members = *b1;
    old_count = BatchRowCount(old_members);
    new_count = BatchRowCount(new_members);
  } else {
    KeySet ks;
    KeyExtractor kdel(n.group_by, ctx.eval_start);
    KeyExtractor kins(n.group_by, ctx.eval_end);
    for (const ChangeRow& c : din) {
      KeyExtractor& key = c.action == ChangeAction::kDelete ? kdel : kins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      ks.keys.insert(key.hashed_key());
    }
    std::unordered_set<uint64_t> digests;
    digests.reserve(ks.keys.size());
    for (const HashedKey& k : ks.keys) digests.insert(k.digest);
    std::unordered_map<const ColumnBatch*, Sel> sel_memo;
    std::unordered_map<const ColumnBatch*, Sel>* memo =
        ExprsImmutable(n.group_by) ? &sel_memo : nullptr;
    obs::OpStats* prof =
        ctx.profile != nullptr ? ctx.profile->Node(n.node_tag) : nullptr;
    DVS_RETURN_IF_ERROR(RestrictBatches(*b0, n.group_by, ctx.eval_start, ks,
                                        digests, memo, &old_members,
                                        &old_count, prof));
    DVS_RETURN_IF_ERROR(RestrictBatches(*b1, n.group_by, ctx.eval_end, ks,
                                        digests, memo, &new_members,
                                        &new_count, prof));
  }
  BatchExecEnv env0, env1;
  env0.eval = ctx.eval_start;
  env1.eval = ctx.eval_end;
  env0.profile = ctx.profile;
  env1.profile = ctx.profile;
  DVS_ASSIGN_OR_RETURN(BatchVector oldb,
                       ComputeAggregateBatches(n, old_members, env0, force));
  DVS_ASSIGN_OR_RETURN(BatchVector newb,
                       ComputeAggregateBatches(n, new_members, env1, force));
  std::vector<IdRow> old_rows = BatchesToRows(oldb);
  std::vector<IdRow> new_rows = BatchesToRows(newb);
  ChangeSet out;
  out.reserve(old_rows.size() + new_rows.size());
  for (IdRow& r : old_rows) {
    out.push_back({ChangeAction::kDelete, r.id, std::move(r.values)});
  }
  for (IdRow& r : new_rows) {
    out.push_back({ChangeAction::kInsert, r.id, std::move(r.values)});
  }
  ctx.rows_processed += old_count + new_count;
  return out;
}

// Δ(distinct): affected values are exactly the changed rows' values.
Result<ChangeSet> DeltaDistinct(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet din, Delta(*n.children[0], ctx));
  if (din.empty()) return ChangeSet{};

  KeyedSet affected;
  affected.reserve(din.size());
  for (const ChangeRow& c : din) affected.insert(HashedKey(c.values));

  DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* in0,
                       Snapshot(*n.children[0], ctx, false));
  DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* in1,
                       Snapshot(*n.children[0], ctx, true));

  // Presence checks are digest probes; emit sorted by value so the change
  // order stays deterministic (the std::set order this replaced).
  KeyedSet old_present, new_present;
  for (const IdRow& r : *in0) {
    HashedKeyRef probe{&r.values, HashRow(r.values)};
    if (affected.find(probe) != affected.end()) {
      old_present.insert(HashedKey(r.values, probe.digest));
    }
  }
  for (const IdRow& r : *in1) {
    HashedKeyRef probe{&r.values, HashRow(r.values)};
    if (affected.find(probe) != affected.end()) {
      new_present.insert(HashedKey(r.values, probe.digest));
    }
  }
  auto sorted = [](const KeyedSet& s) {
    std::vector<const HashedKey*> v;
    v.reserve(s.size());
    for (const HashedKey& k : s) v.push_back(&k);
    std::sort(v.begin(), v.end(), [](const HashedKey* a, const HashedKey* b) {
      return RowLess(a->values, b->values);
    });
    return v;
  };
  ChangeSet out;
  out.reserve(old_present.size() + new_present.size());
  for (const HashedKey* k : sorted(old_present)) {
    out.push_back({ChangeAction::kDelete,
                   rowid::DistinctFromDigest(n.node_tag, k->digest),
                   k->values});
  }
  for (const HashedKey* k : sorted(new_present)) {
    out.push_back({ChangeAction::kInsert,
                   rowid::DistinctFromDigest(n.node_tag, k->digest),
                   k->values});
  }
  return out;
}

// Δ(ξ_k Q) — the paper's window derivative, applied per affected partition.
Result<ChangeSet> DeltaWindow(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet din, Delta(*n.children[0], ctx));
  if (din.empty()) return ChangeSet{};

  KeySet ks;
  {
    KeyExtractor kdel(n.partition_by, ctx.eval_start);
    KeyExtractor kins(n.partition_by, ctx.eval_end);
    for (const ChangeRow& c : din) {
      KeyExtractor& key = c.action == ChangeAction::kDelete ? kdel : kins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      ks.keys.insert(key.hashed_key());
    }
  }

  DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* in0,
                       Snapshot(*n.children[0], ctx, false));
  DVS_ASSIGN_OR_RETURN(const std::vector<IdRow>* in1,
                       Snapshot(*n.children[0], ctx, true));
  Status st = OkStatus();
  std::vector<IdRow> old_members =
      Restrict(*in0, n.partition_by, ctx.eval_start, ks, &st);
  DVS_RETURN_IF_ERROR(st);
  std::vector<IdRow> new_members =
      Restrict(*in1, n.partition_by, ctx.eval_end, ks, &st);
  DVS_RETURN_IF_ERROR(st);

  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> old_rows,
                       ComputeWindowRows(n, old_members, ctx.eval_start));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> new_rows,
                       ComputeWindowRows(n, new_members, ctx.eval_end));
  ChangeSet out;
  for (IdRow& r : old_rows) {
    out.push_back({ChangeAction::kDelete, r.id, std::move(r.values)});
  }
  for (IdRow& r : new_rows) {
    out.push_back({ChangeAction::kInsert, r.id, std::move(r.values)});
  }
  ctx.rows_processed += old_members.size() + new_members.size();
  return out;
}

Result<ChangeSet> Delta(const PlanNode& n, const DeltaContext& ctx) {
  std::chrono::steady_clock::time_point prof_start;
  if (ctx.profile != nullptr) prof_start = std::chrono::steady_clock::now();
  Result<ChangeSet> result = DeltaImpl(n, ctx);
  if (result.ok()) {
    ctx.rows_processed += result.value().size();
    if (ctx.profile != nullptr) {
      obs::OpStats* s = ctx.profile->Node(n.node_tag);
      s->rows_out += result.value().size();
      s->wall_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - prof_start)
              .count());
    }
  }
  return result;
}

Result<ChangeSet> DeltaImpl(const PlanNode& n, const DeltaContext& ctx) {
  switch (n.kind) {
    case PlanKind::kScan:
      return ctx.resolve_delta(n.table_id);
    case PlanKind::kFilter:
      return DeltaFilter(n, ctx);
    case PlanKind::kProject:
      return DeltaProject(n, ctx);
    case PlanKind::kJoin:
      return n.join_type == JoinType::kInner ? DeltaInnerJoin(n, ctx)
                                             : DeltaOuterJoin(n, ctx);
    case PlanKind::kUnionAll:
      return DeltaUnionAll(n, ctx);
    case PlanKind::kAggregate:
      return DeltaAggregate(n, ctx);
    case PlanKind::kDistinct:
      return DeltaDistinct(n, ctx);
    case PlanKind::kWindow:
      return DeltaWindow(n, ctx);
    case PlanKind::kFlatten:
      return DeltaFlatten(n, ctx);
    case PlanKind::kOrderBy:
    case PlanKind::kLimit:
      return Unsupported(std::string(PlanKindName(n.kind)) +
                         " is not incrementally maintainable");
    case PlanKind::kValues:
      // Unreachable in practice: table functions are rejected in DT
      // definitions at bind time (no provider installed there).
      return Unsupported("table functions are not incrementally maintainable");
  }
  return Internal("unhandled plan kind in differentiator");
}

}  // namespace

ChangeSet Consolidate(ChangeSet changes) {
  // Cancel (row_id, equal content) insert/delete pairs.
  std::unordered_map<RowId, std::vector<size_t>> deletes_by_id;
  for (size_t i = 0; i < changes.size(); ++i) {
    if (changes[i].action == ChangeAction::kDelete) {
      deletes_by_id[changes[i].row_id].push_back(i);
    }
  }
  std::vector<bool> drop(changes.size(), false);
  for (size_t i = 0; i < changes.size(); ++i) {
    if (changes[i].action != ChangeAction::kInsert) continue;
    auto it = deletes_by_id.find(changes[i].row_id);
    if (it == deletes_by_id.end()) continue;
    for (size_t di : it->second) {
      if (!drop[di] && RowsEqual(changes[i].values, changes[di].values)) {
        drop[i] = true;
        drop[di] = true;
        break;
      }
    }
  }
  ChangeSet out;
  out.reserve(changes.size());
  for (size_t i = 0; i < changes.size(); ++i) {
    if (!drop[i]) out.push_back(std::move(changes[i]));
  }
  return out;
}

bool ConsolidationSkippable(const PlanNode& plan) {
  bool skippable = true;
  // Walk manually to also inspect join types.
  std::vector<const PlanNode*> stack = {&plan};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    switch (n->kind) {
      case PlanKind::kAggregate:
      case PlanKind::kDistinct:
      case PlanKind::kWindow:
        skippable = false;
        break;
      case PlanKind::kJoin:
        if (n->join_type != JoinType::kInner) skippable = false;
        break;
      default:
        break;
    }
    for (const PlanPtr& c : n->children) stack.push_back(c.get());
  }
  return skippable;
}

Result<DeltaResult> Differentiate(const PlanNode& plan, const DeltaContext& ctx,
                                  bool sources_insert_only) {
  DVS_ASSIGN_OR_RETURN(ChangeSet raw, Delta(plan, ctx));
  DeltaResult out;
  out.pre_consolidation_size = raw.size();
  if (sources_insert_only && ConsolidationSkippable(plan)) {
    out.consolidation_skipped = true;
    out.changes = std::move(raw);
  } else {
    out.changes = Consolidate(std::move(raw));
  }
  // Count once here; consumers (refresh reporting, merge accounting) thread
  // these stats through instead of rescanning the change set.
  out.stats = CountChanges(out.changes);
  return out;
}

}  // namespace dvs
