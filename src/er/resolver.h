#ifndef RELACC_ER_RESOLVER_H_
#define RELACC_ER_RESOLVER_H_

#include <string>
#include <vector>

#include "core/relation.h"

namespace relacc {

/// Configuration of the entity-resolution substrate. The paper (Sec. 2.1)
/// assumes entity instances Ie are "identified by entity resolution
/// techniques [9, 24]"; this module provides that substrate so the examples
/// can start from a flat, duplicated relation.
struct ResolverConfig {
  /// Attributes whose (concatenated, lower-cased) values identify an
  /// entity; pairwise similarity is computed over this key.
  std::vector<AttrId> key_attrs;
  /// Blocking: tuples sharing the first `block_prefix` bytes of the
  /// normalized key land in one block; only intra-block pairs can match.
  /// `block_prefix <= 0` puts every tuple in one block.
  int block_prefix = 3;
  /// Intra-block pairs at least this similar (TrigramJaccard over the
  /// key) match. At or below 0 every intra-block pair matches; above 1
  /// none does.
  double similarity_threshold = 0.75;
};

/// Result: one EntityInstance per discovered cluster, plus the cluster id
/// assigned to every input tuple (parallel to the input order).
struct ResolutionResult {
  std::vector<EntityInstance> entities;
  std::vector<int> cluster_of;
};

/// Union-find over tuple indices (exposed for tests and reuse).
class UnionFind {
 public:
  explicit UnionFind(int n);
  int Find(int x);
  /// Returns true if the two sets were distinct.
  bool Union(int a, int b);

 private:
  std::vector<int> parent_;
  std::vector<int> rank_;
};

/// Groups the tuples of `flat` into entity instances: normalize keys,
/// block, match pairs by similarity, cluster with union-find (the
/// transitive closure of the matching pairs). Each block is matched by a
/// prefix-filtered trigram join (AllPairs-style: rarest grams first, an
/// inverted index over each key's gram prefix, a size filter, then the
/// exact Jaccard test); the join is exact, so the clusters are those of
/// comparing every intra-block pair. Clusters are numbered in order of
/// their first tuple.
ResolutionResult ResolveEntities(const Relation& flat,
                                 const ResolverConfig& config);

}  // namespace relacc

#endif  // RELACC_ER_RESOLVER_H_
