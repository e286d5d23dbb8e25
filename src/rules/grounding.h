#ifndef RELACC_RULES_GROUNDING_H_
#define RELACC_RULES_GROUNDING_H_

#include <cstdint>
#include <vector>

#include "core/relation.h"
#include "rules/accuracy_rule.h"

namespace relacc {

class ColumnarRelation;  // core/columnar.h
class ThreadPool;        // util/thread_pool.h

/// A residual conjunct of a ground step (procedure Instantiation, Sec. 5):
/// every predicate that could be evaluated against constants has been
/// folded away; only order predicates and target-template predicates
/// remain, both of which become satisfiable as the chase proceeds.
struct GroundPredicate {
  enum class Kind {
    kOrderPair,  ///< ti ⪯_attr tj derived (strictness resolved at ground time)
    kTeCompare,  ///< te[attr] op constant; evaluable once te[attr] is set
  };

  Kind kind = Kind::kOrderPair;
  AttrId attr = -1;
  int i = -1;
  int j = -1;
  CompareOp op = CompareOp::kEq;
  Value constant;
};

/// A possible single chase step φ ∈ Γ: once the residual LHS is satisfied,
/// enforce the conclusion (extend a partial order or instantiate te).
struct GroundStep {
  enum class Kind { kAddOrder, kSetTe };

  Kind kind = Kind::kAddOrder;
  AttrId attr = -1;
  int i = -1;              ///< kAddOrder: ti ⪯_attr tj
  int j = -1;
  Value te_value;          ///< kSetTe: te[attr] := te_value
  std::vector<GroundPredicate> residual;
  int rule_id = -1;        ///< index into the specification's rule list
};

/// Output of Instantiation: the ground step set Γ plus sizing facts needed
/// to build the chase index H. Built once per specification and shared
/// across chase runs (the top-k `check` re-runs the chase many times with
/// different initial targets over the same Γ).
struct GroundProgram {
  std::vector<GroundStep> steps;
  int num_tuples = 0;
  int num_attrs = 0;
  /// Rule names by rule_id (parallel to the specification's rule list),
  /// so chase violations can name the rules whose steps conflicted and
  /// cross-reference the static `relacc lint` checks.
  std::vector<std::string> rule_names;
};

/// Structural equality, field for field in step order — the determinism
/// contract of sharded grounding (tests assert step-by-step identity
/// across shard counts). Value equality treats null == null as true, so
/// residual constants compare as stored.
bool operator==(const GroundPredicate& a, const GroundPredicate& b);
inline bool operator!=(const GroundPredicate& a, const GroundPredicate& b) {
  return !(a == b);
}
bool operator==(const GroundStep& a, const GroundStep& b);
inline bool operator!=(const GroundStep& a, const GroundStep& b) {
  return !(a == b);
}
bool operator==(const GroundProgram& a, const GroundProgram& b);
inline bool operator!=(const GroundProgram& a, const GroundProgram& b) {
  return !(a == b);
}

/// Procedure Instantiation (Sec. 5, Fig. 4 line 1): partially evaluates
/// every rule against every ordered tuple pair of `ie` (form 1) / every
/// master tuple (form 2). Steps whose LHS is already false are dropped.
/// Runs in O(|Σ|·(|Ie|² + |Im|)) time.
///
/// Ie is read dictionary-encoded: every constant conjunct whose operator
/// is an equality is decided by TermId comparison (id equality == value
/// equality by the interning contract, nulls included); order
/// comparisons fall back to the dictionary values. Residual constants
/// lifted out of tuples (kAttrTe) are materialized with the schema
/// column type, so they are the cells' boundary Values. Rule constants
/// are pre-interned into ie's dictionary, serially, before any fan-out.
/// Steps are emitted rule by rule, then by ti, then by tj (or tm), which
/// is the order of the reference nested loops in tests/oracle/.
GroundProgram Instantiate(const ColumnarRelation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules);

/// Sharded Instantiation: the same Γ, built in parallel. The rule×Ie
/// (and rule×Im) loop space is flattened into "rows" — one (rule, ti)
/// outer-loop iteration of a form-(1) rule, one (rule, tm) iteration of
/// a form-(2) rule — and split into `num_shards` contiguous row ranges.
/// Each shard grounds its rows into a private step list; the merge
/// concatenates the lists in shard order, which reproduces the serial
/// emission order exactly, so the returned GroundProgram is
/// step-for-step identical (operator== above) to the serial overload for
/// every shard count (enforced by tests and by bench/pipeline_scaling's
/// ground_scaling rows).
///
/// `num_shards <= 1` (or a trivially small row space) runs the serial
/// loop. Shards run on `pool` when given — only idle-at-call-site pools
/// may be passed, e.g. the service's chase pool between phases — or on a
/// transient pool of min(num_shards, rows) threads when null.
GroundProgram Instantiate(const ColumnarRelation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules,
                          int num_shards, ThreadPool* pool = nullptr);

/// Row-boundary adapter: encodes `ie` into a call-local dictionary and
/// runs the serial overload above. For callers that hold a Relation.
GroundProgram Instantiate(const Relation& ie,
                          const std::vector<Relation>& masters,
                          const std::vector<AccuracyRule>& rules);

}  // namespace relacc

#endif  // RELACC_RULES_GROUNDING_H_
