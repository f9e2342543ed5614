#include "core/partition.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace stagg {

void Partition::canonicalize(const Hierarchy& h) {
  // Sort precomputed keys: one node lookup per area instead of two per
  // comparison.
  struct Keyed {
    LeafId first_leaf;
    SliceId i;
    std::int32_t depth;
    SliceId j;
    Area area;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(areas_.size());
  for (const Area& a : areas_) {
    const auto& n = h.node(a.node);
    keyed.push_back({n.first_leaf, a.time.i, n.depth, a.time.j, a});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.first_leaf, a.i, a.depth, a.j) <
           std::tie(b.first_leaf, b.i, b.depth, b.j);
  });
  for (std::size_t k = 0; k < keyed.size(); ++k) areas_[k] = keyed[k].area;
}

bool Partition::is_valid(const Hierarchy& h, std::int32_t slices) const {
  const std::size_t n_s = h.leaf_count();
  const std::size_t n_t = static_cast<std::size_t>(slices);
  std::vector<std::uint8_t> painted(n_s * n_t, 0);
  for (const auto& a : areas_) {
    if (a.node < 0 || a.node >= static_cast<NodeId>(h.node_count()))
      return false;
    if (a.time.i < 0 || a.time.j >= slices || a.time.i > a.time.j)
      return false;
    const auto& n = h.node(a.node);
    for (LeafId s = n.first_leaf; s < n.first_leaf + n.leaf_count; ++s) {
      for (SliceId t = a.time.i; t <= a.time.j; ++t) {
        auto& cell =
            painted[static_cast<std::size_t>(s) * n_t + static_cast<std::size_t>(t)];
        if (cell != 0) return false;  // overlap
        cell = 1;
      }
    }
  }
  return std::all_of(painted.begin(), painted.end(),
                     [](std::uint8_t c) { return c == 1; });
}

std::uint64_t Partition::signature() const {
  // FNV-1a over the sorted triples; sorting makes the hash order-invariant.
  std::vector<Area> sorted = areas_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Area& a, const Area& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.time < b.time;
            });
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      hash ^= (v >> (8 * k)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& a : sorted) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.node)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.time.i)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.time.j)));
  }
  mix(sorted.size());
  return hash;
}

std::vector<SliceId> Partition::temporal_cut_slices() const {
  std::vector<SliceId> cuts;
  for (const auto& a : areas_) {
    if (a.time.i > 0) cuts.push_back(a.time.i);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

std::vector<Area> Partition::row_of_leaf(const Hierarchy& h,
                                         LeafId leaf) const {
  std::vector<Area> row;
  for (const auto& a : areas_) {
    const auto& n = h.node(a.node);
    if (leaf >= n.first_leaf && leaf < n.first_leaf + n.leaf_count) {
      row.push_back(a);
    }
  }
  std::sort(row.begin(), row.end(), [](const Area& a, const Area& b) {
    return a.time.i < b.time.i;
  });
  return row;
}

std::string Partition::to_string(const Hierarchy& h) const {
  Partition copy = *this;
  copy.canonicalize(h);
  std::ostringstream os;
  for (const auto& a : copy.areas_) {
    os << h.path(a.node) << " [" << a.time.i << ".." << a.time.j << "]\n";
  }
  return os.str();
}

}  // namespace stagg
