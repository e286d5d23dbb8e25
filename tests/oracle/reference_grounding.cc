#include "oracle/reference_grounding.h"

#include <utility>

namespace relacc::oracle {
namespace {

/// A te comparison te[attr] op c, left in the residual of a ground step.
GroundPredicate TeCompare(AttrId attr, CompareOp op, const Value& c) {
  GroundPredicate g;
  g.kind = GroundPredicate::Kind::kTeCompare;
  g.attr = attr;
  g.op = op;
  g.constant = c;
  return g;
}

/// An order conjunct ti ⪯_attr tj, left in the residual of a ground step.
GroundPredicate OrderPair(AttrId attr, int i, int j) {
  GroundPredicate g;
  g.kind = GroundPredicate::Kind::kOrderPair;
  g.attr = attr;
  g.i = i;
  g.j = j;
  return g;
}

/// Form (1) on (ti, tj): ti ⪯_rhs tj once the residual holds, or nothing
/// when some conjunct is already false on the constants of ti and tj.
bool GroundPair(const AccuracyRule& rule, int rule_id, const Relation& ie,
                int i, int j, GroundStep* step) {
  const Tuple& ti = ie.tuple(i);
  const Tuple& tj = ie.tuple(j);
  step->kind = GroundStep::Kind::kAddOrder;
  step->attr = rule.rhs_attr;
  step->i = i;
  step->j = j;
  step->rule_id = rule_id;
  for (const TuplePairPredicate& p : rule.lhs) {
    const Tuple& t = p.which == 1 ? ti : tj;
    switch (p.kind) {
      case TuplePairPredicate::Kind::kAttrAttr:
        if (!EvalCompare(p.op, ti.at(p.left_attr), tj.at(p.right_attr))) {
          return false;
        }
        break;
      case TuplePairPredicate::Kind::kAttrConst:
        if (!EvalCompare(p.op, t.at(p.left_attr), p.constant)) return false;
        break;
      case TuplePairPredicate::Kind::kAttrTe: {
        // t[a] op te[b] is te[b] op' t[a]. te is never null once set, so
        // only != can hold against a null cell.
        const Value& c = t.at(p.left_attr);
        const CompareOp flipped = FlipCompareOp(p.op);
        if (c.is_null() && flipped != CompareOp::kNe) return false;
        step->residual.push_back(TeCompare(p.right_attr, flipped, c));
        break;
      }
      case TuplePairPredicate::Kind::kTeConst:
        if (p.constant.is_null() && p.op != CompareOp::kNe) return false;
        step->residual.push_back(TeCompare(p.left_attr, p.op, p.constant));
        break;
      case TuplePairPredicate::Kind::kOrder: {
        // ti ≺_a tj needs ti[a] != tj[a], which the constants decide now.
        if (p.strict && ti.at(p.left_attr) == tj.at(p.left_attr)) {
          return false;
        }
        step->residual.push_back(OrderPair(p.left_attr, i, j));
        break;
      }
    }
  }
  return true;
}

/// Form (2) on tm: one te[a] := tm[b] step per assignment whose source
/// is non-null, all sharing the residual of the rule's conditions.
void GroundMaster(const AccuracyRule& rule, int rule_id, const Tuple& tm,
                  std::vector<GroundStep>* steps) {
  std::vector<GroundPredicate> residual;
  for (const MasterPredicate& p : rule.master_lhs) {
    switch (p.kind) {
      case MasterPredicate::Kind::kMasterConst:
        if (!EvalCompare(p.op, tm.at(p.master_attr), p.constant)) return;
        break;
      case MasterPredicate::Kind::kTeConst:
        if (p.constant.is_null()) return;
        residual.push_back(TeCompare(p.te_attr, CompareOp::kEq, p.constant));
        break;
      case MasterPredicate::Kind::kTeMaster: {
        const Value& c = tm.at(p.master_attr);
        if (c.is_null()) return;
        residual.push_back(TeCompare(p.te_attr, CompareOp::kEq, c));
        break;
      }
    }
  }
  for (const auto& [te_attr, m_attr] : rule.assignments) {
    const Value& v = tm.at(m_attr);
    if (v.is_null()) continue;
    GroundStep step;
    step.kind = GroundStep::Kind::kSetTe;
    step.attr = te_attr;
    step.te_value = v;
    step.residual = residual;
    step.rule_id = rule_id;
    steps->push_back(std::move(step));
  }
}

}  // namespace

GroundProgram ReferenceInstantiate(const Relation& ie,
                                   const std::vector<Relation>& masters,
                                   const std::vector<AccuracyRule>& rules) {
  GroundProgram program;
  program.num_tuples = ie.size();
  program.num_attrs = ie.schema().size();
  for (const AccuracyRule& rule : rules) {
    program.rule_names.push_back(rule.name);
  }
  for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
    const AccuracyRule& rule = rules[r];
    if (rule.form == AccuracyRule::Form::kTuplePair) {
      for (int i = 0; i < ie.size(); ++i) {
        for (int j = 0; j < ie.size(); ++j) {
          if (i == j) continue;
          GroundStep step;
          if (GroundPair(rule, r, ie, i, j, &step)) {
            program.steps.push_back(std::move(step));
          }
        }
      }
    } else if (rule.master_index >= 0 &&
               rule.master_index < static_cast<int>(masters.size())) {
      for (const Tuple& tm : masters[rule.master_index].tuples()) {
        GroundMaster(rule, r, tm, &program.steps);
      }
    }
  }
  return program;
}

}  // namespace relacc::oracle
