// Baseline-world load balancers: the four families of the paper's Table 1.
//
//   Application LB  — L7: path / host / header rules route to target groups
//   Network LB      — L4: listener (proto, port) to target group
//   Classic LB      — L4 & L7: flat listener list, no rule engine
//   Gateway LB      — L3: steers flows through appliance target groups
//
// Each family drags in its own configuration surface (the ledger records
// it), and the tenant must pick the right family in the first place — the
// five-level decision tree the paper cites. Targets live in target groups
// with health checks; resolution is weighted round-robin over healthy
// targets.

#ifndef TENANTNET_SRC_VNET_LOAD_BALANCER_H_
#define TENANTNET_SRC_VNET_LOAD_BALANCER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/cloud/world.h"
#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/net/flow.h"

namespace tenantnet {

using TargetGroupId = TypedId<struct TargetGroupIdTag>;
using LoadBalancerId = TypedId<struct LoadBalancerIdTag>;
// Same alias as in vnet/vpc.h (TypedId makes the types identical).
using VpcId = TypedId<struct VpcIdTag>;

struct HealthCheckConfig {
  std::string path = "/healthz";
  SimDuration interval = SimDuration::Seconds(10);
  int healthy_threshold = 3;
  int unhealthy_threshold = 2;
  uint16_t port = 0;  // 0 = traffic port
};

struct TargetEntry {
  InstanceId instance;
  double weight = 1.0;
  bool healthy = true;
  int consecutive_ok = 0;
  int consecutive_fail = 0;
};

class TargetGroup {
 public:
  TargetGroup(TargetGroupId id, std::string name, Protocol proto,
              uint16_t port)
      : id_(id), name_(std::move(name)), proto_(proto), port_(port) {}

  TargetGroupId id() const { return id_; }
  const std::string& name() const { return name_; }
  Protocol proto() const { return proto_; }
  uint16_t port() const { return port_; }

  void AddTarget(InstanceId instance, double weight = 1.0);
  Status RemoveTarget(InstanceId instance);

  // Applies one health-probe outcome; flips state at the thresholds.
  void RecordProbe(InstanceId instance, bool ok);

  // Directly set health (used when an instance terminates).
  void SetHealth(InstanceId instance, bool healthy);

  const std::vector<TargetEntry>& targets() const { return targets_; }
  HealthCheckConfig& mutable_health_check() { return health_check_; }

  size_t HealthyCount() const;

  // Weighted round-robin over healthy targets: `seq` is the caller's pick
  // counter, giving deterministic smooth interleaving.
  Result<InstanceId> Pick(uint64_t seq) const;

 private:
  TargetGroupId id_;
  std::string name_;
  Protocol proto_;
  uint16_t port_;
  HealthCheckConfig health_check_;
  std::vector<TargetEntry> targets_;
};

enum class LbType : uint8_t { kApplication, kNetwork, kClassic, kGateway };

std::string_view LbTypeName(LbType type);

// L7 request attributes an ALB can rule on.
struct HttpRequestMeta {
  std::string path = "/";
  std::string host;
  std::map<std::string, std::string> headers;
};

// One ALB routing rule; all set conditions must match.
struct L7Rule {
  uint32_t priority = 100;  // evaluated ascending
  std::optional<std::string> path_prefix;
  std::optional<std::string> host_equals;
  std::optional<std::pair<std::string, std::string>> header_equals;
  TargetGroupId target;
};

struct LbListener {
  Protocol proto = Protocol::kTcp;
  uint16_t port = 0;
  TargetGroupId default_target;
  std::vector<L7Rule> rules;  // ALB only
};

class LoadBalancer {
 public:
  LoadBalancer(LoadBalancerId id, LbType type, std::string name)
      : id_(id), type_(type), name_(std::move(name)) {}

  LoadBalancerId id() const { return id_; }
  LbType type() const { return type_; }
  const std::string& name() const { return name_; }

  void AddListener(LbListener listener) {
    listeners_.push_back(std::move(listener));
  }
  // Adds a rule to the listener on `port`, keeping priority order.
  Status AddRule(uint16_t port, L7Rule rule);

  // Resolves which target group handles a flow. ALB additionally consults
  // request metadata; other families ignore it. No matching listener is an
  // error (connection refused).
  Result<TargetGroupId> Resolve(const FiveTuple& flow,
                                const HttpRequestMeta* meta) const;

 private:
  LoadBalancerId id_;
  LbType type_;
  std::string name_;
  std::vector<LbListener> listeners_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_LOAD_BALANCER_H_
