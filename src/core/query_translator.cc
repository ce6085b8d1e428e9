#include "core/query_translator.h"

#include <chrono>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/translation_cache.h"
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

  BindTrace trace;
  Binder binder(mdi_, scopes_, &trace);
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
    // response); earlier ones are skipped.
    if (!is_last) continue;
    HQ_RETURN_IF_ERROR(EmitResultQuery(stmt, &binder, &out));
    // A lone statement's translation depends on its text, the catalog and
    // the names it resolved, so the cache can replay it, shard plan
    // included. One that read a session or local variable is specific to
    // this session's values and is never shared.
    if (cache_on && stmts.size() == 1 && !trace.used_scope_var) {
      cache_->InsertExact(q_text, out, trace.ref_tables, trace.ref_names);
      Lap(&out.timings.cache_us);
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
                                        Translation* out) {
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
  HQ_ASSIGN_OR_RETURN(out->result_sql, Serializer().Serialize(bound.root));
  out->shard = ToShardPlan(std::move(rewrite));
  Lap(&out->timings.serialize_us);
  out->shape = bound.shape;
  out->key_columns = std::move(bound.key_columns);
  bound = BoundQuery{};
  Lap(&out->timings.bind_us);  // freeing what binding built
  return Status::OK();
}

}  // namespace hyperq
