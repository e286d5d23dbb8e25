#ifndef RELACC_TESTS_ORACLE_REFERENCE_GROUNDING_H_
#define RELACC_TESTS_ORACLE_REFERENCE_GROUNDING_H_

#include <vector>

#include "core/relation.h"
#include "rules/accuracy_rule.h"
#include "rules/grounding.h"

namespace relacc::oracle {

/// Procedure Instantiation (Sec. 5) written as plain nested loops over
/// Values: for every rule, in specification order, a form-(1) rule is
/// partially evaluated on every ordered pair (ti, tj), i != j, of `ie`
/// and a form-(2) rule on every tuple tm of its master relation. Steps
/// whose LHS is already false are dropped. No dictionary, no row ranges,
/// no shards: this is the reference the library's Instantiate is checked
/// against, step for step.
GroundProgram ReferenceInstantiate(const Relation& ie,
                                   const std::vector<Relation>& masters,
                                   const std::vector<AccuracyRule>& rules);

}  // namespace relacc::oracle

#endif  // RELACC_TESTS_ORACLE_REFERENCE_GROUNDING_H_
