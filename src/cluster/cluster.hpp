// Cluster description: a set of single-CPU computation nodes with SPEC
// ratings (the SDSC SP2 is 128 nodes rated 168). Runtimes are expressed at
// a reference rating; node speed = rating / reference_rating.
#pragma once

#include <string>
#include <vector>

#include "support/check.hpp"

namespace librisk::cluster {

using NodeId = int;

struct NodeSpec {
  NodeId id = 0;
  /// SPEC rating of this node's processor.
  double rating = 1.0;
};

class Cluster {
 public:
  /// Heterogeneous cluster from explicit specs; reference_rating is the
  /// rating runtimes are normalised to.
  Cluster(std::vector<NodeSpec> nodes, double reference_rating);

  /// Homogeneous cluster of `count` nodes at `rating`.
  static Cluster homogeneous(int count, double rating);

  /// The paper's testbed: 128 nodes, SPEC rating 168.
  static Cluster sdsc_sp2();

  [[nodiscard]] int size() const noexcept { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const NodeSpec& node(NodeId id) const;
  [[nodiscard]] const std::vector<NodeSpec>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] double reference_rating() const noexcept { return reference_rating_; }

  /// Wall-clock speed factor of a node: reference-seconds executed per
  /// second when a job holds the whole node. Precomputed per node; inline
  /// because every admission scan reads it for every node it assesses.
  [[nodiscard]] double speed_factor(NodeId id) const {
    LIBRISK_CHECK(id >= 0 && id < size(), "node id " << id << " out of range");
    return speed_[static_cast<std::size_t>(id)];
  }

  /// Minimum speed factor across the cluster (bounds a job's best-case
  /// runtime when node placement is unknown).
  [[nodiscard]] double min_speed_factor() const noexcept;
  [[nodiscard]] double max_speed_factor() const noexcept;

  /// Sum of speed factors across all nodes: the cluster's aggregate
  /// processing capacity in reference-node units (a homogeneous cluster's
  /// total equals its size). The admission gateway scales its fast-reject
  /// share budget by this.
  [[nodiscard]] double total_speed_factor() const noexcept;

 private:
  std::vector<NodeSpec> nodes_;
  double reference_rating_;
  std::vector<double> speed_;  ///< rating / reference_rating_, per node
};

}  // namespace librisk::cluster
