#include "er/resolver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "util/strings.h"

namespace relacc {

UnionFind::UnionFind(int n) : parent_(n), rank_(n, 0) {
  for (int i = 0; i < n; ++i) parent_[i] = i;
}

int UnionFind::Find(int x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

bool UnionFind::Union(int a, int b) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  return true;
}

namespace {

// A lower bound on |x ∩ y| for every pair with |y| <= |x| = n that the
// exact test `inter / uni >= t` (in double) accepts: J >= t needs
// inter >= t * uni >= t * n, and one below the double ceiling absorbs the
// rounding of both t * n and the quotient. Never below 1, since t > 0
// rejects inter = 0. Returns n + 1 when no overlap can reach t (t > 1,
// or a NaN t, which matches nothing).
int MinOverlap(double t, int n) {
  const double bound = std::ceil(t * n) - 1;
  if (!(bound <= n)) return n + 1;
  return std::max(1, static_cast<int>(bound));
}

// Unions every pair of `members` (one block) whose keys are at least
// `t` similar under TrigramJaccard, exactly as comparing all pairs would.
// Keys of 3 bytes or more go through a prefix-filtered self-join in the
// style of AllPairs (Bayardo et al., WWW'07): grams are ordered rarest
// first, keys are visited by ascending gram count, and each key probes an
// inverted index of the keys before it with only its first
// |x| - MinOverlap + 1 grams, which any pair reaching the overlap bound
// must share. Candidates pass a size filter and are verified with the
// same double quotient TrigramJaccard computes.
void MatchBlock(const std::vector<int>& members,
                const std::vector<std::string>& keys, double t,
                UnionFind* uf) {
  if (t <= 0) {
    // Every similarity is >= 0: the whole block is one cluster.
    for (int i : members) uf->Union(members.front(), i);
    return;
  }

  // Keys shorter than 3 bytes have no trigrams; TrigramJaccard falls back
  // to EditSimilarity, so they are compared with every other key.
  std::vector<int> grammed;
  for (std::size_t x = 0; x < members.size(); ++x) {
    const int i = members[x];
    if (keys[i].size() >= 3) {
      grammed.push_back(i);
      continue;
    }
    for (std::size_t y = 0; y < members.size(); ++y) {
      const int j = members[y];
      if (y == x || (y < x && keys[j].size() < 3)) continue;
      if (uf->Find(i) == uf->Find(j)) continue;
      if (EditSimilarity(keys[i], keys[j]) >= t) uf->Union(i, j);
    }
  }

  // Gram sets, relabelled by block frequency (rarest first, ties by id).
  std::vector<std::vector<uint32_t>> sets(grammed.size());
  std::vector<uint32_t> all;
  for (std::size_t x = 0; x < grammed.size(); ++x) {
    sets[x] = TrigramIds(keys[grammed[x]]);
    all.insert(all.end(), sets[x].begin(), sets[x].end());
  }
  std::sort(all.begin(), all.end());
  std::vector<uint32_t> vocab;
  std::vector<int> freq;
  for (std::size_t a = 0; a < all.size(); ++a) {
    if (a == 0 || all[a] != all[a - 1]) {
      vocab.push_back(all[a]);
      freq.push_back(0);
    }
    ++freq.back();
  }
  std::vector<uint32_t> by_rarity(vocab.size());
  std::iota(by_rarity.begin(), by_rarity.end(), 0u);
  std::stable_sort(by_rarity.begin(), by_rarity.end(),
                   [&](uint32_t a, uint32_t b) { return freq[a] < freq[b]; });
  std::vector<uint32_t> rank(vocab.size());
  for (std::size_t r = 0; r < by_rarity.size(); ++r) {
    rank[by_rarity[r]] = static_cast<uint32_t>(r);
  }
  for (std::vector<uint32_t>& set : sets) {
    for (uint32_t& g : set) {
      g = rank[std::lower_bound(vocab.begin(), vocab.end(), g) -
               vocab.begin()];
    }
    std::sort(set.begin(), set.end());
  }

  // Visiting keys by ascending size means every indexed key y has
  // |y| <= |x|, so x's overlap bound covers y's, and y's indexed prefix
  // (taken at its own, smaller bound) is long enough.
  std::vector<int> order(grammed.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return sets[a].size() < sets[b].size();
  });
  std::vector<std::vector<int>> postings(vocab.size());
  std::vector<int> seen(grammed.size(), -1);
  for (int x : order) {
    const std::vector<uint32_t>& gx = sets[x];
    const int n = static_cast<int>(gx.size());
    const int alpha = MinOverlap(t, n);
    for (int p = 0; p < n - alpha + 1; ++p) {
      for (int y : postings[gx[p]]) {
        if (seen[y] == x) continue;
        seen[y] = x;
        if (static_cast<int>(sets[y].size()) < alpha) continue;
        const int i = grammed[x];
        const int j = grammed[y];
        if (uf->Find(i) == uf->Find(j)) continue;
        if (SortedSetJaccard(gx, sets[y]) >= t) uf->Union(i, j);
      }
      postings[gx[p]].push_back(x);
    }
  }
}

}  // namespace

ResolutionResult ResolveEntities(const Relation& flat,
                                 const ResolverConfig& config) {
  const int n = flat.size();
  // Normalized key per tuple: lower-cased concatenation of key attributes
  // (nulls render as empty).
  std::vector<std::string> keys(n);
  for (int i = 0; i < n; ++i) {
    std::string key;
    for (AttrId a : config.key_attrs) {
      key += ToLower(flat.tuple(i).at(a).ToString());
      key.push_back('|');
    }
    keys[i] = std::move(key);
  }

  // Blocking on the key prefix; block_prefix <= 0 is one block.
  const std::size_t prefix_len =
      config.block_prefix > 0 ? static_cast<std::size_t>(config.block_prefix)
                              : 0;
  std::unordered_map<std::string, std::vector<int>> blocks;
  for (int i = 0; i < n; ++i) {
    blocks[keys[i].substr(0, std::min(keys[i].size(), prefix_len))]
        .push_back(i);
  }

  UnionFind uf(n);
  for (const auto& [prefix, members] : blocks) {
    (void)prefix;
    MatchBlock(members, keys, config.similarity_threshold, &uf);
  }

  ResolutionResult result;
  result.cluster_of.assign(n, -1);
  std::unordered_map<int, int> root_to_cluster;
  for (int i = 0; i < n; ++i) {
    const int root = uf.Find(i);
    auto [it, inserted] =
        root_to_cluster.emplace(root, static_cast<int>(result.entities.size()));
    if (inserted) {
      result.entities.emplace_back(static_cast<int64_t>(it->second),
                                   flat.schema());
    }
    result.cluster_of[i] = it->second;
    result.entities[it->second].Add(flat.tuple(i));
  }
  return result;
}

}  // namespace relacc
