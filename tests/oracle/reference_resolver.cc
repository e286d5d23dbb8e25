#include "oracle/reference_resolver.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/strings.h"

namespace relacc::oracle {
namespace {

double ReferenceTrigramJaccard(std::string_view a, std::string_view b) {
  if (a.size() < 3 || b.size() < 3) return EditSimilarity(a, b);
  auto grams = [](std::string_view s) {
    std::unordered_set<std::string> g;
    for (std::size_t i = 0; i + 3 <= s.size(); ++i) g.emplace(s.substr(i, 3));
    return g;
  };
  const auto ga = grams(a);
  const auto gb = grams(b);
  std::size_t inter = 0;
  for (const auto& g : ga) inter += gb.count(g);
  const std::size_t uni = ga.size() + gb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

ResolutionResult ReferenceResolveEntities(const Relation& flat,
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
    for (std::size_t x = 0; x < members.size(); ++x) {
      for (std::size_t y = x + 1; y < members.size(); ++y) {
        const int i = members[x];
        const int j = members[y];
        if (uf.Find(i) == uf.Find(j)) continue;
        if (ReferenceTrigramJaccard(keys[i], keys[j]) >=
            config.similarity_threshold) {
          uf.Union(i, j);
        }
      }
    }
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

}  // namespace relacc::oracle
