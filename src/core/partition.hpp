// Hierarchy-and-order-consistent partitions of S x T (paper §III-B).
//
// A partition is a set of macroscopic areas (S_k, T_(i,j)) — each the
// Cartesian product of a hierarchy node and a slice interval — that are
// pairwise disjoint and cover S x T.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/interval.hpp"
#include "hierarchy/hierarchy.hpp"

namespace stagg {

/// One macroscopic spatiotemporal area.
struct Area {
  NodeId node = kNoNode;
  TimeInterval time;

  friend constexpr bool operator==(const Area&, const Area&) = default;
};

/// An (unvalidated) set of areas with canonicalization, counting and
/// hashing utilities.  Validation against a hierarchy checks the
/// disjoint-and-covering property by painting the S x T grid.
class Partition {
 public:
  Partition() = default;
  explicit Partition(std::vector<Area> areas) : areas_(std::move(areas)) {}

  void add(NodeId node, SliceId i, SliceId j) {
    areas_.push_back({node, {i, j}});
  }

  [[nodiscard]] const std::vector<Area>& areas() const noexcept {
    return areas_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return areas_.size(); }
  [[nodiscard]] bool empty() const noexcept { return areas_.empty(); }

  /// Sorts areas by (first_leaf, i, node depth, j), a total order on the
  /// areas of one hierarchy: two canonical partitions are equal as area
  /// sets exactly when operator== holds.
  void canonicalize(const Hierarchy& h);

  /// True when the areas are pairwise disjoint and cover all |S| x |T|
  /// microscopic cells of the given dimensions.
  [[nodiscard]] bool is_valid(const Hierarchy& h, std::int32_t slices) const;

  /// Order-insensitive 64-bit hash (FNV over sorted area triples), a
  /// compact fingerprint for checks and logs.  Distinct partitions can
  /// collide; compare canonical partitions with operator== when the
  /// answer must be exact.
  [[nodiscard]] std::uint64_t signature() const;

  /// Number of distinct temporal cut positions used by any area (phase
  /// boundary candidates).
  [[nodiscard]] std::vector<SliceId> temporal_cut_slices() const;

  /// Areas covering a given leaf, in time order.
  [[nodiscard]] std::vector<Area> row_of_leaf(const Hierarchy& h,
                                              LeafId leaf) const;

  /// Human-readable dump ("node-path [i..j]" per line) for tests/debugging.
  [[nodiscard]] std::string to_string(const Hierarchy& h) const;

  friend bool operator==(const Partition& a, const Partition& b) {
    return a.areas_ == b.areas_;
  }

 private:
  std::vector<Area> areas_;
};

}  // namespace stagg
