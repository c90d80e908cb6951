// The tenant's component-selection decision trees.
//
// §3(2) cites Azure's load-balancer guidance: "the documentation that
// guides tenants on which load balancer to leverage involves a decision
// tree that is five levels deep!" This module encodes selection decision
// trees as data so E2 can *count* the choices a tenant traverses before
// they have even created anything — the planning complexity that precedes
// the configuration complexity the ledger measures.

#ifndef TENANTNET_SRC_VNET_DECISION_TREE_H_
#define TENANTNET_SRC_VNET_DECISION_TREE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace tenantnet {

// The attributes of a workload that drive component selection.
struct WorkloadProfile {
  // Load-balancer selection inputs.
  bool http_traffic = false;          // L7 vs L4
  bool needs_path_routing = false;    // content-based rules
  bool internet_facing = false;
  bool needs_static_ip = false;
  bool very_high_pps = false;         // NLB-grade throughput
  bool chaining_appliances = false;   // GWLB use case
  bool multi_region = false;
  bool needs_tls_termination = false;
  // Connectivity selection inputs.
  bool peer_is_internal = false;      // your own estate vs the internet
  bool peer_same_provider = false;
  bool needs_guaranteed_bandwidth = false;
  bool inbound_needed = false;
  bool ipv6_only = false;
};

// A binary decision tree over a workload profile. Interior nodes ask a
// question (a predicate over the profile); leaves carry a recommendation.
class DecisionNode {
 public:
  using Predicate = std::function<bool(const WorkloadProfile&)>;

  // Leaf: a concrete component recommendation.
  explicit DecisionNode(std::string recommendation)
      : recommendation_(std::move(recommendation)) {}

  // Interior: a question splitting on a predicate.
  DecisionNode(std::string question, Predicate predicate,
               std::unique_ptr<DecisionNode> if_yes,
               std::unique_ptr<DecisionNode> if_no)
      : question_(std::move(question)), predicate_(std::move(predicate)),
        yes_(std::move(if_yes)), no_(std::move(if_no)) {}

  bool IsLeaf() const { return !predicate_; }
  const std::string& recommendation() const { return recommendation_; }
  const std::string& question() const { return question_; }

  struct WalkResult {
    std::string recommendation;
    std::vector<std::string> questions_asked;
    int depth = 0;
  };

  // Walks the tree for a profile, recording every question the tenant had
  // to answer on the way down.
  WalkResult Decide(const WorkloadProfile& profile) const {
    WalkResult result;
    const DecisionNode* node = this;
    while (!node->IsLeaf()) {
      result.questions_asked.push_back(node->question_);
      ++result.depth;
      node = node->predicate_(profile) ? node->yes_.get() : node->no_.get();
    }
    result.recommendation = node->recommendation_;
    return result;
  }

  // Longest root-to-leaf path (the paper's "five levels deep" metric).
  int MaxDepth() const {
    if (IsLeaf()) {
      return 0;
    }
    return 1 + std::max(yes_->MaxDepth(), no_->MaxDepth());
  }

  // Total distinct questions in the tree (what the tenant must be *able*
  // to answer to navigate it at all).
  int QuestionCount() const {
    if (IsLeaf()) {
      return 0;
    }
    return 1 + yes_->QuestionCount() + no_->QuestionCount();
  }

  int LeafCount() const {
    if (IsLeaf()) {
      return 1;
    }
    return yes_->LeafCount() + no_->LeafCount();
  }

 private:
  std::string recommendation_;
  std::string question_;
  Predicate predicate_;
  std::unique_ptr<DecisionNode> yes_;
  std::unique_ptr<DecisionNode> no_;
};

// The load-balancer selection tree, modeled after the cited Azure guidance
// (five levels of questions before a recommendation).
std::unique_ptr<DecisionNode> BuildLoadBalancerDecisionTree();

// The connectivity-gateway selection tree of §2 step (2)-(4): IGW vs
// egress-only vs NAT vs VPN vs peering vs TGW vs Direct Connect.
std::unique_ptr<DecisionNode> BuildConnectivityDecisionTree();

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_DECISION_TREE_H_
