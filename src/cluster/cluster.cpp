#include "cluster/cluster.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace librisk::cluster {

Cluster::Cluster(std::vector<NodeSpec> nodes, double reference_rating)
    : nodes_(std::move(nodes)), reference_rating_(reference_rating) {
  LIBRISK_CHECK(!nodes_.empty(), "cluster needs at least one node");
  LIBRISK_CHECK(reference_rating_ > 0.0, "reference rating must be positive");
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    LIBRISK_CHECK(nodes_[i].id == i, "node ids must be dense 0..n-1");
    LIBRISK_CHECK(nodes_[i].rating > 0.0, "node rating must be positive");
  }
  speed_.reserve(nodes_.size());
  for (const NodeSpec& n : nodes_) speed_.push_back(n.rating / reference_rating_);
}

Cluster Cluster::homogeneous(int count, double rating) {
  LIBRISK_CHECK(count > 0, "node count must be positive");
  std::vector<NodeSpec> nodes;
  nodes.reserve(count);
  for (int i = 0; i < count; ++i) nodes.push_back(NodeSpec{i, rating});
  return Cluster(std::move(nodes), rating);
}

Cluster Cluster::sdsc_sp2() { return homogeneous(128, 168.0); }

const NodeSpec& Cluster::node(NodeId id) const {
  LIBRISK_CHECK(id >= 0 && id < size(), "node id " << id << " out of range");
  return nodes_[id];
}

double Cluster::min_speed_factor() const noexcept {
  double m = nodes_.front().rating;
  for (const auto& n : nodes_) m = std::min(m, n.rating);
  return m / reference_rating_;
}

double Cluster::max_speed_factor() const noexcept {
  double m = nodes_.front().rating;
  for (const auto& n : nodes_) m = std::max(m, n.rating);
  return m / reference_rating_;
}

double Cluster::total_speed_factor() const noexcept {
  double sum = 0.0;
  for (const auto& n : nodes_) sum += n.rating;
  return sum / reference_rating_;
}

}  // namespace librisk::cluster
