#include "core/query_translator.h"

#include <chrono>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/translation_cache.h"
#include "qlang/fingerprint.h"
#include "qlang/parser.h"
#include "serializer/serializer.h"

namespace hyperq {

namespace {

/// Wall time of a cache hit, from request text to ready Translation.
LatencyHistogram* CacheHitHistogram() {
  static LatencyHistogram* hist =
      MetricsRegistry::Global().GetHistogram("translate.cache_hit_us");
  return hist;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Serializes a planned distribution. A rewrite that does not distribute,
/// or does not serialize, yields an empty plan: planning failures never
/// fail translation, and the fallback path stays correct.
ShardPlan ToShardPlan(ShardRewrite rewrite) {
  if (rewrite.mode == ShardMode::kNone) return ShardPlan{};
  ShardPlan plan;
  if (rewrite.partial != nullptr) {
    Result<std::string> p = Serializer().Serialize(rewrite.partial);
    if (!p.ok()) return ShardPlan{};
    plan.partial_sql = std::move(*p);
  }
  Result<std::string> m = Serializer().Serialize(rewrite.merge);
  if (!m.ok()) return ShardPlan{};
  plan.mode = rewrite.mode;
  plan.table = std::move(rewrite.table);
  plan.merge_sql = std::move(*m);
  plan.routed = rewrite.routed;
  plan.route_key = std::move(rewrite.route_key);
  return plan;
}

}  // namespace

/// A single side-effect-free statement whose cold translation the cache
/// keeps (exact tier, and the fingerprint tier on a fingerprint miss).
struct CacheableStatement {
  const std::string& q_text;
  const QueryFingerprint& fp;
  bool fp_miss;
  const BindTrace& trace;
};

std::string QueryTranslator::NextTempName() {
  return StrCat("HQ_TEMP_", ++temp_counter_);
}

bool QueryTranslator::IsFunctionInvocation(const AstPtr& stmt) const {
  if (stmt->kind != AstKind::kApply || !stmt->child ||
      stmt->child->kind != AstKind::kVarRef) {
    return false;
  }
  Result<VarBinding> b = scopes_->Lookup(stmt->child->name);
  return b.ok() && b->kind == VarBinding::Kind::kFunction;
}

void QueryTranslator::Lap(double* stage) {
  const auto now = std::chrono::steady_clock::now();
  *stage += std::chrono::duration<double, std::micro>(now - lap_).count();
  lap_ = now;
}

Result<Translation> QueryTranslator::Translate(const std::string& q_text) {
  const auto start = std::chrono::steady_clock::now();
  lap_ = start;
  const bool cache_on = cache_ != nullptr && cache_->enabled();
  TranslationCache::ShadowFn shadow = [this](const std::string& name) {
    return scopes_->IsShadowed(name);
  };

  // Every cache step of a translation that misses is charged to cache_us;
  // a hit returns before anything is charged.
  Translation out;
  if (cache_on) {
    Translation hit;
    if (cache_->LookupExact(q_text, shadow, &hit)) {
      hit.cache_hit = true;
      CacheHitHistogram()->Record(MicrosSince(start));
      return hit;
    }
    Lap(&out.timings.cache_us);
  }

  std::vector<AstPtr> stmts;
  HQ_ASSIGN_OR_RETURN(stmts, Parser::ParseProgram(q_text));
  Lap(&out.timings.parse_us);
  if (stmts.empty()) {
    return InvalidArgument("empty q request");
  }

  // A single side-effect-free statement is cached. On a fingerprint miss
  // it binds with the fingerprint's slots, so the one serialization of its
  // result query also writes the `$n` template.
  QueryFingerprint fp;
  bool fp_miss = false;
  if (cache_on) {
    if (stmts.size() == 1 && !IsFunctionInvocation(stmts[0])) {
      fp = FingerprintProgram(stmts);
    }
    if (fp.cacheable) {
      Translation hit;
      TranslationCache::FpResult r =
          cache_->Lookup(fp.hash, fp.text, fp.params, shadow, &hit);
      if (r == TranslationCache::FpResult::kHit) {
        hit.cache_hit = true;
        hit.timings.parse_us = out.timings.parse_us;
        CacheHitHistogram()->Record(MicrosSince(start));
        return hit;
      }
      fp_miss = r == TranslationCache::FpResult::kMiss;
    }
    Lap(&out.timings.cache_us);
  }

  BindTrace trace;
  Binder binder(mdi_, scopes_, &trace, fp_miss ? &fp.slots : nullptr);
  const CacheableStatement cacheable{q_text, fp, fp_miss, trace};
  for (size_t i = 0; i < stmts.size(); ++i) {
    bool is_last = i + 1 == stmts.size();
    const AstPtr& stmt = stmts[i];
    if (stmt->kind == AstKind::kAssign ||
        stmt->kind == AstKind::kGlobalAssign) {
      HQ_RETURN_IF_ERROR(ProcessAssignment(stmt, &binder, &out));
      continue;
    }
    if (IsFunctionInvocation(stmt)) {
      HQ_RETURN_IF_ERROR(ProcessFunctionCall(*stmt, &binder, &out));
      continue;
    }
    // Intermediate non-assignment statements without side effects are only
    // translated when they are the last statement (their value is the
    // response); earlier ones are skipped. A cacheable statement always
    // ends here: the fingerprint walk rejects assignments, and function
    // invocations are never fingerprinted.
    if (is_last) {
      HQ_RETURN_IF_ERROR(EmitResultQuery(stmt, &binder, &out,
                                         fp.cacheable ? &cacheable : nullptr));
    }
  }
  stmts.clear();
  Lap(&out.timings.parse_us);  // freeing what parsing built
  return out;
}

Status QueryTranslator::ProcessAssignment(const AstPtr& stmt, Binder* binder,
                                          Translation* out) {
  const std::string& name = stmt->name;
  const AstPtr& rhs = stmt->child;

  // Function definition: store the lambda text (§4.3).
  if (rhs->kind == AstKind::kLambda) {
    VarBinding b;
    b.kind = VarBinding::Kind::kFunction;
    b.function = QValue::MakeLambda(rhs->params, rhs->source);
    if (stmt->kind == AstKind::kGlobalAssign) {
      scopes_->UpsertSession(name, std::move(b));
    } else {
      scopes_->Upsert(name, std::move(b));
    }
    return Status::OK();
  }

  // Scalar constant: keep in Hyper-Q's variable store (logical
  // materialization of scalars, §4.3).
  {
    Result<QValue> c = binder->BindConstant(rhs);
    if (c.ok()) {
      VarBinding b;
      b.kind = VarBinding::Kind::kScalar;
      b.scalar = std::move(c).value();
      if (stmt->kind == AstKind::kGlobalAssign) {
        scopes_->UpsertSession(name, std::move(b));
      } else {
        scopes_->Upsert(name, std::move(b));
      }
      return Status::OK();
    }
  }

  // Table-valued: materialize eagerly into the backend.
  return MaterializeQuery(name, rhs, binder, out);
}

Status QueryTranslator::MaterializeQuery(const std::string& var_name,
                                         const AstPtr& expr, Binder* binder,
                                         Translation* out) {
  BoundQuery bound;
  HQ_ASSIGN_OR_RETURN(bound, binder->BindQuery(expr));
  Lap(&out->timings.bind_us);
  Xformer xformer(options_.xformer);
  HQ_RETURN_IF_ERROR(
      xformer.Transform(bound.root, /*result_order_required=*/true));
  Lap(&out->timings.xform_us);
  std::string select_sql;
  HQ_ASSIGN_OR_RETURN(select_sql, Serializer().Serialize(bound.root));
  Lap(&out->timings.serialize_us);

  std::string temp = NextTempName();
  std::string quoted = Serializer::QuoteIdent(temp);
  std::string ddl =
      options_.materialize == MaterializeMode::kPhysical
          ? StrCat("CREATE TEMPORARY TABLE ", quoted, " AS ", select_sql)
          : StrCat("CREATE TEMPORARY VIEW ", quoted, " AS ", select_sql);
  // Eager materialization (§4.3): later statements algebrize against this
  // object's metadata, so it must exist before we continue. Running the
  // DDL is backend work, so it starts a new lap without charging a stage.
  HQ_RETURN_IF_ERROR(execute_backend_(ddl));
  lap_ = std::chrono::steady_clock::now();
  out->setup_sql.push_back(std::move(ddl));

  VarBinding b;
  b.kind = VarBinding::Kind::kRelation;
  b.table = temp;
  scopes_->Upsert(var_name, std::move(b));
  return Status::OK();
}

Status QueryTranslator::ProcessFunctionCall(const AstNode& apply,
                                            Binder* binder,
                                            Translation* out) {
  HQ_ASSIGN_OR_RETURN(VarBinding fb, scopes_->Lookup(apply.child->name));
  const QLambda& lambda = fb.function.Lambda();

  // The function body is stored as text and re-algebrized on invocation
  // (§4.3).
  AstPtr body;
  HQ_ASSIGN_OR_RETURN(body, Parser::ParseExpression(lambda.source));
  Lap(&out->timings.parse_us);
  if (body->kind != AstKind::kLambda) {
    return InternalError("stored function text is not a lambda");
  }
  if (apply.args.size() > body->params.size()) {
    return BindError(StrCat("function '", apply.child->name, "' takes ",
                            body->params.size(), " arguments, got ",
                            apply.args.size()));
  }

  // Bind arguments as local constants (table arguments would require
  // materialization; constants cover the dominant customer pattern, §5).
  scopes_->PushLocal();
  auto cleanup = [&]() { scopes_->PopLocal(); };
  for (size_t i = 0; i < apply.args.size(); ++i) {
    Result<QValue> c = binder->BindConstant(apply.args[i]);
    if (!c.ok()) {
      cleanup();
      return BindError(StrCat(
          "argument ", i + 1, " of '", apply.child->name,
          "' is not a translatable constant: ", c.status().message()));
    }
    VarBinding b;
    b.kind = VarBinding::Kind::kScalar;
    b.scalar = std::move(c).value();
    scopes_->Upsert(body->params[i], std::move(b));
  }

  // Unroll the body: assignments materialize, the explicit return (or the
  // last statement) becomes the result query.
  Status s;
  for (size_t i = 0; i < body->body.size() && s.ok(); ++i) {
    const AstPtr& stmt = body->body[i];
    if (stmt->kind == AstKind::kAssign ||
        stmt->kind == AstKind::kGlobalAssign) {
      s = ProcessAssignment(stmt, binder, out);
      continue;
    }
    if (stmt->kind != AstKind::kReturn && i + 1 < body->body.size()) continue;
    const AstPtr& expr =
        stmt->kind == AstKind::kReturn ? stmt->child : stmt;
    // A function may end by calling another function: unroll recursively
    // (§5: "unrolling a large class of Q user-defined functions").
    s = IsFunctionInvocation(expr) ? ProcessFunctionCall(*expr, binder, out)
                                   : EmitResultQuery(expr, binder, out);
    break;
  }
  cleanup();
  return s;
}

Status QueryTranslator::EmitResultQuery(const AstPtr& expr, Binder* binder,
                                        Translation* out,
                                        const CacheableStatement* cacheable) {
  BoundQuery bound;
  HQ_ASSIGN_OR_RETURN(bound, binder->BindQuery(expr));
  Lap(&out->timings.bind_us);
  bool order_matters = bound.shape == ResultShape::kTable ||
                       bound.shape == ResultShape::kList;
  Xformer xformer(options_.xformer);
  HQ_RETURN_IF_ERROR(xformer.Transform(bound.root, order_matters));
  // Distribution is one more rewrite of the transformed tree.
  ShardRewrite rewrite = PlanShardRewrite(bound.root, options_.shard_info);
  Lap(&out->timings.xform_us);
  Serializer::Templated serialized;
  Serializer serializer;
  if (cacheable != nullptr && cacheable->fp_miss) {
    HQ_ASSIGN_OR_RETURN(serialized,
                        serializer.SerializeWithTemplate(bound.root));
  } else {
    HQ_ASSIGN_OR_RETURN(serialized.sql, serializer.Serialize(bound.root));
  }
  out->shard = ToShardPlan(std::move(rewrite));
  Lap(&out->timings.serialize_us);
  out->result_sql = std::move(serialized.sql);
  out->shape = bound.shape;
  out->key_columns = std::move(bound.key_columns);
  bound = BoundQuery{};
  Lap(&out->timings.bind_us);  // freeing what binding built
  if (cacheable != nullptr) {
    CacheResult(*cacheable, std::move(serialized), *out);
    Lap(&out->timings.cache_us);
  }
  return Status::OK();
}

void QueryTranslator::CacheResult(const CacheableStatement& c,
                                  Serializer::Templated serialized,
                                  const Translation& out) {
  // Value-dependent bindings make the translation specific to this
  // session's variables: never share it through the cache.
  if (c.trace.used_scope_var) return;
  cache_->InsertExact(c.q_text, out, c.trace.ref_tables, c.trace.ref_names);
  if (!c.fp_miss) return;
  const QueryFingerprint& fp = c.fp;
  if (serialized.sql_template.empty()) {
    cache_->MarkUncacheable(fp.hash, fp.text,
                            "a name or literal holds a slot marker byte");
    return;
  }
  // Verify end-to-end before publishing: instantiating the template with
  // the current literals must reproduce the concrete SQL byte-for-byte.
  // This catches any path that bakes a parameter value we failed to pin
  // (and pathological `$n` collisions inside string literals).
  Result<std::vector<std::string>> rendered =
      TranslationCache::RenderParams(fp.params);
  if (!rendered.ok()) {
    cache_->MarkUncacheable(fp.hash, fp.text,
                            std::string(rendered.status().message()));
    return;
  }
  Result<std::string> replay =
      TranslationCache::Instantiate(serialized.sql_template, *rendered);
  if (!replay.ok() || *replay != out.result_sql) {
    cache_->MarkUncacheable(
        fp.hash, fp.text,
        replay.ok() ? "instantiated template diverges from concrete SQL"
                    : std::string(replay.status().message()));
    return;
  }

  // Every slot that did not surface as a placeholder had its value baked
  // into the plan (structural pins, `in`-list expansion, constant folding):
  // it must match exactly for the entry to be reused.
  std::vector<bool> emitted(fp.params.size(), false);
  for (int slot : serialized.emitted_slots) {
    if (slot >= 0 && static_cast<size_t>(slot) < emitted.size()) {
      emitted[slot] = true;
    }
  }
  TranslationCache::Insertable entry;
  entry.sql_template = std::move(serialized.sql_template);
  entry.shape = out.shape;
  entry.key_columns = out.key_columns;
  for (size_t i = 0; i < emitted.size(); ++i) {
    if (!emitted[i]) entry.pinned_slots.push_back(static_cast<int>(i));
  }
  entry.ref_tables = c.trace.ref_tables;
  entry.ref_names = c.trace.ref_names;
  cache_->Insert(fp.hash, fp.text, *rendered, entry);
}

}  // namespace hyperq
