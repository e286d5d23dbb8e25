#include "rules/grounding.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/columnar.h"
#include "util/thread_pool.h"

namespace relacc {
namespace {

/// Grounds one form-(2) rule on master tuple tm, emitting one kSetTe step
/// per assignment with a non-null source value.
void GroundMasterRule(const AccuracyRule& rule, const Tuple& tm, int rule_id,
                      std::vector<GroundStep>* out) {
  std::vector<GroundPredicate> residual;
  for (const MasterPredicate& p : rule.master_lhs) {
    switch (p.kind) {
      case MasterPredicate::Kind::kMasterConst: {
        if (!EvalCompare(p.op, tm.at(p.master_attr), p.constant)) return;
        break;
      }
      case MasterPredicate::Kind::kTeConst: {
        if (p.constant.is_null()) return;  // te never becomes null
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.te_attr;
        g.op = CompareOp::kEq;
        g.constant = p.constant;
        residual.push_back(std::move(g));
        break;
      }
      case MasterPredicate::Kind::kTeMaster: {
        const Value& c = tm.at(p.master_attr);
        if (c.is_null()) return;
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.te_attr;
        g.op = CompareOp::kEq;
        g.constant = c;
        residual.push_back(std::move(g));
        break;
      }
    }
  }
  for (const auto& [te_attr, m_attr] : rule.assignments) {
    const Value& v = tm.at(m_attr);
    if (v.is_null()) continue;  // no information to copy
    GroundStep step;
    step.kind = GroundStep::Kind::kSetTe;
    step.attr = te_attr;
    step.te_value = v;
    step.residual = residual;
    step.rule_id = rule_id;
    out->push_back(std::move(step));
  }
}

/// The flattened loop space of Instantiation: one row per (rule, ti)
/// outer-loop iteration of a form-(1) rule and per (rule, tm) iteration
/// of a form-(2) rule. `starts[r]` is the first global row of rule r,
/// `starts[rules.size()]` the total row count. Rules referencing an
/// absent master relation contribute zero rows, matching the serial
/// loop's `continue`.
std::vector<int64_t> RowStarts(int num_ie_rows,
                               const std::vector<Relation>& masters,
                               const std::vector<AccuracyRule>& rules) {
  std::vector<int64_t> starts(rules.size() + 1, 0);
  for (std::size_t r = 0; r < rules.size(); ++r) {
    int64_t rows = 0;
    if (rules[r].form == AccuracyRule::Form::kTuplePair) {
      rows = num_ie_rows;
    } else if (rules[r].master_index >= 0 &&
               rules[r].master_index < static_cast<int>(masters.size())) {
      rows = masters[rules[r].master_index].size();
    }
    starts[r + 1] = starts[r] + rows;
  }
  return starts;
}

std::vector<std::string> RuleNames(const std::vector<AccuracyRule>& rules) {
  std::vector<std::string> names;
  names.reserve(rules.size());
  for (const AccuracyRule& rule : rules) names.push_back(rule.name);
  return names;
}

/// Pre-interns every kAttrConst constant of every rule so the columnar
/// pair loop compares ids instead of Values. Must run serially, before
/// any shard fan-out, and interning an absent constant is harmless — a
/// fresh id simply matches no column id. Entry [r][k] is the constant of
/// rule r's k-th lhs conjunct (kNullTermId where the conjunct has none).
std::vector<std::vector<TermId>> InternRuleConstants(
    const std::vector<AccuracyRule>& rules, Dictionary* dict) {
  std::vector<std::vector<TermId>> ids(rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    ids[r].assign(rules[r].lhs.size(), kNullTermId);
    for (std::size_t k = 0; k < rules[r].lhs.size(); ++k) {
      const TuplePairPredicate& p = rules[r].lhs[k];
      if (p.kind == TuplePairPredicate::Kind::kAttrConst) {
        ids[r][k] = dict->Intern(p.constant);
      }
    }
  }
  return ids;
}

/// Grounds one form-(1) rule on the ordered pair (ti, tj). Returns false
/// if some constant predicate already fails (the step is dropped).
/// Equality operators are decided on TermIds (id equality ==
/// Value::operator== equality by the interning contract, nulls included:
/// all nulls share kNullTermId); order operators fall back to the
/// dictionary representatives, whose cross-type numeric Compare agrees
/// with the schema-typed values. `const_ids[k]` pre-resolves the k-th
/// conjunct's kAttrConst constant.
bool GroundPair(const AccuracyRule& rule, const std::vector<TermId>& const_ids,
                const ColumnarRelation& ie, int i, int j, GroundStep* out) {
  const Dictionary& dict = ie.dict();
  out->kind = GroundStep::Kind::kAddOrder;
  out->attr = rule.rhs_attr;
  out->i = i;
  out->j = j;
  out->residual.clear();
  for (std::size_t k = 0; k < rule.lhs.size(); ++k) {
    const TuplePairPredicate& p = rule.lhs[k];
    switch (p.kind) {
      case TuplePairPredicate::Kind::kAttrAttr: {
        const TermId a = ie.id_at(i, p.left_attr);
        const TermId b = ie.id_at(j, p.right_attr);
        if (p.op == CompareOp::kEq) {
          if (a != b) return false;
        } else if (p.op == CompareOp::kNe) {
          if (a == b) return false;
        } else if (!EvalCompare(p.op, dict.value(a), dict.value(b))) {
          return false;
        }
        break;
      }
      case TuplePairPredicate::Kind::kAttrConst: {
        const int row = p.which == 1 ? i : j;
        const TermId v = ie.id_at(row, p.left_attr);
        if (p.op == CompareOp::kEq) {
          if (v != const_ids[k]) return false;
        } else if (p.op == CompareOp::kNe) {
          if (v == const_ids[k]) return false;
        } else if (!EvalCompare(p.op, dict.value(v), p.constant)) {
          return false;
        }
        break;
      }
      case TuplePairPredicate::Kind::kAttrTe: {
        // ti[a] op te[b]  ==>  te[b] op' c with c = ti[a], materialized
        // with the schema column type so the residual constant is the
        // boundary Value of the cell. te values are non-null once set,
        // so te = null is unsatisfiable and te-order-compare against
        // null is always false.
        const int row = p.which == 1 ? i : j;
        const TermId vid = ie.id_at(row, p.left_attr);
        const CompareOp flipped = FlipCompareOp(p.op);
        if (vid == kNullTermId && flipped != CompareOp::kNe) return false;
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.right_attr;
        g.op = flipped;
        g.constant = MaterializeAs(dict, vid, ie.schema().type(p.left_attr));
        out->residual.push_back(std::move(g));
        break;
      }
      case TuplePairPredicate::Kind::kTeConst: {
        if (p.constant.is_null() && p.op != CompareOp::kNe) return false;
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kTeCompare;
        g.attr = p.left_attr;
        g.op = p.op;
        g.constant = p.constant;
        out->residual.push_back(std::move(g));
        break;
      }
      case TuplePairPredicate::Kind::kOrder: {
        // t1 ≺_a t2 requires differing values; resolved now since tuple
        // values are constants.
        if (p.strict &&
            ie.id_at(i, p.left_attr) == ie.id_at(j, p.left_attr)) {
          return false;
        }
        GroundPredicate g;
        g.kind = GroundPredicate::Kind::kOrderPair;
        g.attr = p.left_attr;
        g.i = i;
        g.j = j;
        out->residual.push_back(std::move(g));
        break;
      }
    }
  }
  return true;
}

/// Grounds global rows [begin, end) in row order, appending to `out`.
/// Emission order within a row (the inner j loop / the assignment list)
/// is the serial order, so concatenating contiguous ranges in ascending
/// row order reproduces the serial program exactly. Masters stay row
/// relations (they are small and master steps carry Values regardless).
void GroundRange(const ColumnarRelation& ie,
                 const std::vector<Relation>& masters,
                 const std::vector<AccuracyRule>& rules,
                 const std::vector<std::vector<TermId>>& const_ids,
                 const std::vector<int64_t>& starts, int64_t begin,
                 int64_t end, std::vector<GroundStep>* out) {
  const int n = ie.size();
  GroundStep scratch;
  for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
    const int64_t lo = std::max(begin, starts[r]);
    const int64_t hi = std::min(end, starts[r + 1]);
    if (lo >= hi) continue;
    const AccuracyRule& rule = rules[r];
    if (rule.form == AccuracyRule::Form::kTuplePair) {
      for (int64_t row = lo; row < hi; ++row) {
        const int i = static_cast<int>(row - starts[r]);
        for (int j = 0; j < n; ++j) {
          if (i == j) continue;
          if (GroundPair(rule, const_ids[r], ie, i, j, &scratch)) {
            scratch.rule_id = r;
            out->push_back(scratch);
          }
        }
      }
    } else {
      const Relation& im = masters[rule.master_index];
      for (int64_t row = lo; row < hi; ++row) {
        GroundMasterRule(rule, im.tuple(static_cast<int>(row - starts[r])),
                         r, out);
      }
    }
  }
}

}  // namespace

bool operator==(const GroundPredicate& a, const GroundPredicate& b) {
  return a.kind == b.kind && a.attr == b.attr && a.i == b.i && a.j == b.j &&
         a.op == b.op && a.constant == b.constant;
}

bool operator==(const GroundStep& a, const GroundStep& b) {
  return a.kind == b.kind && a.attr == b.attr && a.i == b.i && a.j == b.j &&
         a.te_value == b.te_value && a.rule_id == b.rule_id &&
         a.residual == b.residual;
}

bool operator==(const GroundProgram& a, const GroundProgram& b) {
  return a.num_tuples == b.num_tuples && a.num_attrs == b.num_attrs &&
         a.rule_names == b.rule_names && a.steps == b.steps;
}

GroundProgram Instantiate(const ColumnarRelation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules,
                          int num_shards, ThreadPool* pool) {
  GroundProgram prog;
  prog.num_tuples = ie.size();
  prog.num_attrs = ie.schema().size();
  prog.rule_names = RuleNames(rules);
  // Constants are interned before any fan-out; shard workers only read
  // the dictionary (lock-free shelf loads) on order comparisons.
  const std::vector<std::vector<TermId>> const_ids =
      InternRuleConstants(rules, ie.mutable_dict());
  const std::vector<int64_t> starts = RowStarts(ie.size(), masters, rules);
  const int64_t rows = starts.back();
  // Below ~2 rows per shard the fan-out costs more than the grounding;
  // the serial loop is also the reference the sharded one must match.
  const int64_t shards =
      std::min<int64_t>(std::max(1, num_shards), std::max<int64_t>(1, rows));
  if (shards <= 1) {
    GroundRange(ie, masters, rules, const_ids, starts, 0, rows, &prog.steps);
    return prog;
  }

  // Each shard grounds a contiguous global-row range into a private
  // list; concatenating the lists in shard order is the serial order.
  std::vector<std::vector<GroundStep>> parts(
      static_cast<std::size_t>(shards));
  const int64_t chunk = (rows + shards - 1) / shards;
  const auto ground_shard = [&](int64_t s) {
    const int64_t begin = s * chunk;
    const int64_t end = std::min(begin + chunk, rows);
    if (begin < end) {
      GroundRange(ie, masters, rules, const_ids, starts, begin, end,
                  &parts[static_cast<std::size_t>(s)]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(shards, ground_shard);
  } else {
    // Shards beyond the core count cannot run anyway; cap the transient
    // pool so an aggressive shard count costs partitioning, not OS
    // threads (ParallelFor chunks the shards over fewer workers).
    ThreadPool local(static_cast<int>(std::min<int64_t>(
        shards,
        std::max(1u, std::thread::hardware_concurrency()))));
    local.ParallelFor(shards, ground_shard);
  }
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  prog.steps.reserve(total);
  for (auto& part : parts) {
    for (GroundStep& step : part) prog.steps.push_back(std::move(step));
  }
  return prog;
}

GroundProgram Instantiate(const ColumnarRelation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules) {
  return Instantiate(ie, masters, rules, /*num_shards=*/1);
}

GroundProgram Instantiate(const Relation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules) {
  Dictionary dict;
  return Instantiate(ColumnarRelation::FromRelation(ie, &dict), masters,
                     rules);
}

}  // namespace relacc
