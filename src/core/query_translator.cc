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

class StageTimer {
 public:
  explicit StageTimer(double* sink) : sink_(sink) {
    start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    auto end = std::chrono::steady_clock::now();
    *sink_ += std::chrono::duration<double, std::micro>(end - start_).count();
  }

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

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

Result<Translation> QueryTranslator::Translate(const std::string& q_text) {
  const auto start = std::chrono::steady_clock::now();
  const bool cache_on = cache_ != nullptr && cache_->enabled();
  TranslationCache::ShadowFn shadow = [this](const std::string& name) {
    return scopes_->IsShadowed(name);
  };

  if (cache_on) {
    Translation hit;
    if (cache_->LookupExact(q_text, shadow, &hit)) {
      hit.cache_hit = true;
      CacheHitHistogram()->Record(MicrosSince(start));
      return hit;
    }
  }

  Translation out;
  std::vector<AstPtr> stmts;
  {
    StageTimer t(&out.timings.parse_us);
    HQ_ASSIGN_OR_RETURN(stmts, Parser::ParseProgram(q_text));
  }
  if (stmts.empty()) {
    return InvalidArgument("empty q request");
  }

  // Single side-effect-free statements go through the fingerprint tier.
  bool exact_insertable = false;
  bool fp_attempt_failed = false;
  QueryFingerprint fp;
  if (cache_on && stmts.size() == 1 && !IsFunctionInvocation(stmts[0])) {
    fp = FingerprintProgram(stmts);
    if (fp.cacheable) {
      exact_insertable = true;  // definitely side-effect free
      Translation hit;
      TranslationCache::FpResult r =
          cache_->Lookup(fp.hash, fp.text, fp.params, shadow, &hit);
      if (r == TranslationCache::FpResult::kHit) {
        hit.cache_hit = true;
        hit.timings.parse_us = out.timings.parse_us;
        CacheHitHistogram()->Record(MicrosSince(start));
        return hit;
      }
      if (r == TranslationCache::FpResult::kMiss) {
        Result<Translation> miss = TranslateFingerprintMiss(
            q_text, stmts[0], fp, out.timings.parse_us);
        // Errors fall through to the plain path below, which re-raises
        // genuine user errors with the original (unparameterized) AST.
        if (miss.ok()) return miss;
        fp_attempt_failed = true;
      }
    }
  }

  BindTrace trace;
  Binder binder(mdi_, scopes_, &trace);
  bool produced_result = false;
  for (size_t i = 0; i < stmts.size(); ++i) {
    bool is_last = i + 1 == stmts.size();
    const AstPtr& stmt = stmts[i];
    if (stmt->kind == AstKind::kAssign ||
        stmt->kind == AstKind::kGlobalAssign) {
      HQ_RETURN_IF_ERROR(ProcessAssignment(stmt, &binder, &out));
      produced_result = false;
      continue;
    }
    if (stmt->kind == AstKind::kApply) {
      // Possibly a user-function invocation to unroll.
      const AstPtr& callee = stmt->child;
      if (callee->kind == AstKind::kVarRef) {
        Result<VarBinding> b = scopes_->Lookup(callee->name);
        if (b.ok() && b->kind == VarBinding::Kind::kFunction) {
          HQ_RETURN_IF_ERROR(
              ProcessFunctionCall(*stmt, &binder, &out, &produced_result));
          continue;
        }
      }
    }
    // Intermediate non-assignment statements without side effects are only
    // translated when they are the last statement (their value is the
    // response); earlier ones are skipped.
    if (is_last) {
      HQ_RETURN_IF_ERROR(EmitResultQuery(stmt, &binder, &out));
      produced_result = true;
    }
  }
  // The exact tier can replay any side-effect-free result query whose
  // binding never read a session/local variable's value.
  if (exact_insertable && produced_result && out.setup_sql.empty() &&
      !trace.used_scope_var) {
    if (fp_attempt_failed) {
      // The plain pipeline accepts this query but the parameterized one
      // does not: stop re-attempting parameterization for the shape.
      cache_->MarkUncacheable(fp.hash, fp.text,
                              "parameterized translation failed");
    }
    cache_->InsertExact(q_text, out, trace.ref_tables, trace.ref_names);
  }
  (void)produced_result;
  return out;
}

Result<Translation> QueryTranslator::TranslateFingerprintMiss(
    const std::string& q_text, const AstPtr& stmt, const QueryFingerprint& fp,
    double parse_us) {
  Translation out;
  out.timings.parse_us = parse_us;

  AstPtr param_stmt = ParameterizeStatement(stmt);
  BindTrace trace;
  Binder binder(mdi_, scopes_, &trace);

  BoundQuery bound;
  {
    StageTimer t(&out.timings.bind_us);
    HQ_ASSIGN_OR_RETURN(bound, binder.BindQuery(param_stmt));
  }
  bool order_matters = bound.shape == ResultShape::kTable ||
                       bound.shape == ResultShape::kList;
  {
    StageTimer t(&out.timings.xform_us);
    Xformer xformer(options_.xformer);
    HQ_RETURN_IF_ERROR(xformer.Transform(bound.root, order_matters));
  }
  {
    StageTimer t(&out.timings.serialize_us);
    Serializer concrete;
    HQ_ASSIGN_OR_RETURN(out.result_sql, concrete.Serialize(bound.root));
  }
  out.shape = bound.shape;
  out.key_columns = bound.key_columns;
  PlanDistribution(bound.root, &out);

  // Value-dependent bindings make the translation specific to this
  // session's variables: return it, but never share it through the cache.
  if (trace.used_scope_var) return out;

  // Serialize the same tree again in parameterized mode to get the $n
  // template (cold-path-only extra work, excluded from stage timings).
  Serializer param_ser;
  param_ser.EnableParamMode();
  Result<std::string> sql_template = param_ser.Serialize(bound.root);
  if (!sql_template.ok()) {
    cache_->MarkUncacheable(fp.hash, fp.text,
                            std::string(sql_template.status().message()));
    return out;
  }

  // Every slot that did not surface as a placeholder had its value baked
  // into the plan (structural pins, `in`-list expansion, constant folding):
  // it must match exactly for the entry to be reused.
  std::vector<bool> emitted(fp.params.size(), false);
  for (int slot : param_ser.emitted_slots()) {
    if (slot >= 0 && static_cast<size_t>(slot) < emitted.size()) {
      emitted[slot] = true;
    }
  }
  TranslationCache::Insertable entry;
  entry.sql_template = std::move(*sql_template);
  entry.shape = out.shape;
  entry.key_columns = out.key_columns;
  for (size_t i = 0; i < emitted.size(); ++i) {
    if (!emitted[i]) entry.pinned_slots.push_back(static_cast<int>(i));
  }
  entry.ref_tables = trace.ref_tables;
  entry.ref_names = trace.ref_names;

  // Verify end-to-end before publishing: instantiating the template with
  // the current literals must reproduce the concrete SQL byte-for-byte.
  // This catches any path that bakes a parameter value we failed to pin
  // (and pathological `$n` collisions inside string literals).
  Result<std::vector<std::string>> rendered =
      TranslationCache::RenderParams(fp.params);
  if (!rendered.ok()) {
    cache_->MarkUncacheable(fp.hash, fp.text,
                            std::string(rendered.status().message()));
    return out;
  }
  Result<std::string> replay =
      TranslationCache::Instantiate(entry.sql_template, *rendered);
  if (!replay.ok() || *replay != out.result_sql) {
    cache_->MarkUncacheable(
        fp.hash, fp.text,
        replay.ok() ? "instantiated template diverges from concrete SQL"
                    : std::string(replay.status().message()));
    return out;
  }

  cache_->Insert(fp.hash, fp.text, *rendered, entry);
  cache_->InsertExact(q_text, out, trace.ref_tables, trace.ref_names);
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
  {
    StageTimer t(&out->timings.bind_us);
    HQ_ASSIGN_OR_RETURN(bound, binder->BindQuery(expr));
  }
  {
    StageTimer t(&out->timings.xform_us);
    Xformer xformer(options_.xformer);
    HQ_RETURN_IF_ERROR(
        xformer.Transform(bound.root, /*result_order_required=*/true));
  }
  std::string select_sql;
  {
    StageTimer t(&out->timings.serialize_us);
    Serializer serializer;
    HQ_ASSIGN_OR_RETURN(select_sql, serializer.Serialize(bound.root));
  }

  std::string temp = NextTempName();
  std::string quoted = Serializer::QuoteIdent(temp);
  std::string ddl =
      options_.materialize == MaterializeMode::kPhysical
          ? StrCat("CREATE TEMPORARY TABLE ", quoted, " AS ", select_sql)
          : StrCat("CREATE TEMPORARY VIEW ", quoted, " AS ", select_sql);
  // Eager materialization (§4.3): later statements algebrize against this
  // object's metadata, so it must exist before we continue.
  HQ_RETURN_IF_ERROR(execute_backend_(ddl));
  out->setup_sql.push_back(std::move(ddl));

  VarBinding b;
  b.kind = VarBinding::Kind::kRelation;
  b.table = temp;
  scopes_->Upsert(var_name, std::move(b));
  return Status::OK();
}

Status QueryTranslator::ProcessFunctionCall(const AstNode& apply,
                                            Binder* binder, Translation* out,
                                            bool* produced_result) {
  HQ_ASSIGN_OR_RETURN(VarBinding fb, scopes_->Lookup(apply.child->name));
  const QLambda& lambda = fb.function.Lambda();

  // The function body is stored as text and re-algebrized on invocation
  // (§4.3).
  AstPtr body;
  {
    StageTimer t(&out->timings.parse_us);
    HQ_ASSIGN_OR_RETURN(body, Parser::ParseExpression(lambda.source));
  }
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
  for (size_t i = 0; i < body->body.size(); ++i) {
    const AstPtr& stmt = body->body[i];
    bool is_last = i + 1 == body->body.size();
    if (stmt->kind == AstKind::kAssign) {
      Status s = ProcessAssignment(stmt, binder, out);
      if (!s.ok()) {
        cleanup();
        return s;
      }
      continue;
    }
    if (stmt->kind == AstKind::kGlobalAssign) {
      Status s = ProcessAssignment(stmt, binder, out);
      if (!s.ok()) {
        cleanup();
        return s;
      }
      continue;
    }
    const AstPtr& expr =
        stmt->kind == AstKind::kReturn ? stmt->child : stmt;
    if (stmt->kind == AstKind::kReturn || is_last) {
      // A function may end by calling another function: unroll recursively
      // (§5: "unrolling a large class of Q user-defined functions").
      if (expr->kind == AstKind::kApply &&
          expr->child->kind == AstKind::kVarRef) {
        Result<VarBinding> callee = scopes_->Lookup(expr->child->name);
        if (callee.ok() && callee->kind == VarBinding::Kind::kFunction) {
          Status s = ProcessFunctionCall(*expr, binder, out,
                                         produced_result);
          cleanup();
          return s;
        }
      }
      Status s = EmitResultQuery(expr, binder, out);
      if (!s.ok()) {
        cleanup();
        return s;
      }
      *produced_result = true;
      break;
    }
  }
  cleanup();
  return Status::OK();
}

Status QueryTranslator::EmitResultQuery(const AstPtr& expr, Binder* binder,
                                        Translation* out) {
  BoundQuery bound;
  {
    StageTimer t(&out->timings.bind_us);
    HQ_ASSIGN_OR_RETURN(bound, binder->BindQuery(expr));
  }
  bool order_matters = bound.shape == ResultShape::kTable ||
                       bound.shape == ResultShape::kList;
  {
    StageTimer t(&out->timings.xform_us);
    Xformer xformer(options_.xformer);
    HQ_RETURN_IF_ERROR(xformer.Transform(bound.root, order_matters));
  }
  {
    StageTimer t(&out->timings.serialize_us);
    Serializer serializer;
    HQ_ASSIGN_OR_RETURN(out->result_sql, serializer.Serialize(bound.root));
  }
  out->shape = bound.shape;
  out->key_columns = bound.key_columns;
  PlanDistribution(bound.root, out);
  return Status::OK();
}

void QueryTranslator::PlanDistribution(const xtra::XtraPtr& root,
                                       Translation* out) {
  out->shard = ToShardPlan(PlanShardRewrite(root, options_.shard_info));
}

}  // namespace hyperq
