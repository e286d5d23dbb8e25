#ifndef RELACC_UTIL_STRINGS_H_
#define RELACC_UTIL_STRINGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace relacc {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, char sep);

/// ASCII lower-casing copy.
std::string ToLower(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
std::size_t EditDistance(std::string_view a, std::string_view b);

/// 1 - EditDistance / max(len); 1.0 for two empty strings.
double EditSimilarity(std::string_view a, std::string_view b);

/// The distinct byte trigrams of `s`, each packed into a 24-bit id (first
/// byte in the high bits), sorted ascending. Empty when `s` is shorter
/// than 3 bytes.
std::vector<uint32_t> TrigramIds(std::string_view s);

/// |a ∩ b| / |a ∪ b| for two ascending, duplicate-free id sets; 1.0 when
/// both are empty.
double SortedSetJaccard(std::span<const uint32_t> a,
                        std::span<const uint32_t> b);

/// Jaccard similarity over the TrigramIds of `a` and `b`; falls back to
/// EditSimilarity for strings shorter than 3 bytes.
double TrigramJaccard(std::string_view a, std::string_view b);

}  // namespace relacc

#endif  // RELACC_UTIL_STRINGS_H_
