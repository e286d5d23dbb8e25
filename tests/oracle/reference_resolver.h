#ifndef RELACC_TESTS_ORACLE_REFERENCE_RESOLVER_H_
#define RELACC_TESTS_ORACLE_REFERENCE_RESOLVER_H_

#include "core/relation.h"
#include "er/resolver.h"

namespace relacc::oracle {

/// Entity resolution as a plain all-pairs loop: the same normalized keys
/// and `block_prefix` blocks as the library's ResolveEntities, then every
/// intra-block pair whose trigram Jaccard (a hash set of 3-byte substrings
/// per key, built per pair; EditSimilarity below 3 bytes) reaches the
/// threshold is unioned. No gram ids, no index, no filters: this is the
/// reference the library's prefix-filtered join is checked against,
/// cluster for cluster.
ResolutionResult ReferenceResolveEntities(const Relation& flat,
                                          const ResolverConfig& config);

}  // namespace relacc::oracle

#endif  // RELACC_TESTS_ORACLE_REFERENCE_RESOLVER_H_
