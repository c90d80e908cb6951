// Tests for target groups and the four load-balancer families.

#include <gtest/gtest.h>

#include <map>

#include "src/vnet/load_balancer.h"

namespace tenantnet {
namespace {

FiveTuple FlowTo(uint16_t dport, Protocol proto = Protocol::kTcp) {
  FiveTuple t;
  t.src = IpAddress::V4(1, 1, 1, 1);
  t.dst = IpAddress::V4(2, 2, 2, 2);
  t.src_port = 33333;
  t.dst_port = dport;
  t.proto = proto;
  return t;
}

TEST(TargetGroupTest, PickFailsWithNoHealthyTargets) {
  TargetGroup tg(TargetGroupId(1), "tg", Protocol::kTcp, 80);
  EXPECT_FALSE(tg.Pick(0).ok());
  tg.AddTarget(InstanceId(1));
  tg.SetHealth(InstanceId(1), false);
  EXPECT_EQ(tg.Pick(0).status().code(), StatusCode::kResourceExhausted);
}

TEST(TargetGroupTest, WeightedPickApproximatesWeights) {
  TargetGroup tg(TargetGroupId(1), "tg", Protocol::kTcp, 80);
  tg.AddTarget(InstanceId(1), 3.0);
  tg.AddTarget(InstanceId(2), 1.0);
  std::map<uint64_t, int> counts;
  for (uint64_t seq = 0; seq < 4000; ++seq) {
    counts[tg.Pick(seq)->value()]++;
  }
  EXPECT_NEAR(counts[1], 3000, 100);
  EXPECT_NEAR(counts[2], 1000, 100);
}

TEST(TargetGroupTest, UnhealthyTargetsAreSkipped) {
  TargetGroup tg(TargetGroupId(1), "tg", Protocol::kTcp, 80);
  tg.AddTarget(InstanceId(1));
  tg.AddTarget(InstanceId(2));
  tg.SetHealth(InstanceId(1), false);
  for (uint64_t seq = 0; seq < 50; ++seq) {
    EXPECT_EQ(*tg.Pick(seq), InstanceId(2));
  }
  EXPECT_EQ(tg.HealthyCount(), 1u);
}

TEST(TargetGroupTest, HealthProbeThresholds) {
  TargetGroup tg(TargetGroupId(1), "tg", Protocol::kTcp, 80);
  tg.mutable_health_check().healthy_threshold = 3;
  tg.mutable_health_check().unhealthy_threshold = 2;
  tg.AddTarget(InstanceId(1));

  // One failure is not enough; two flips to unhealthy.
  tg.RecordProbe(InstanceId(1), false);
  EXPECT_EQ(tg.HealthyCount(), 1u);
  tg.RecordProbe(InstanceId(1), false);
  EXPECT_EQ(tg.HealthyCount(), 0u);

  // Two successes are not enough to recover; three are.
  tg.RecordProbe(InstanceId(1), true);
  tg.RecordProbe(InstanceId(1), true);
  EXPECT_EQ(tg.HealthyCount(), 0u);
  tg.RecordProbe(InstanceId(1), true);
  EXPECT_EQ(tg.HealthyCount(), 1u);
}

TEST(TargetGroupTest, RemoveTarget) {
  TargetGroup tg(TargetGroupId(1), "tg", Protocol::kTcp, 80);
  tg.AddTarget(InstanceId(1));
  ASSERT_TRUE(tg.RemoveTarget(InstanceId(1)).ok());
  EXPECT_EQ(tg.RemoveTarget(InstanceId(1)).code(), StatusCode::kNotFound);
}

TEST(LoadBalancerTest, ListenerMatchesPortAndProtocol) {
  LoadBalancer lb(LoadBalancerId(1), LbType::kNetwork, "nlb");
  LbListener listener;
  listener.proto = Protocol::kTcp;
  listener.port = 443;
  listener.default_target = TargetGroupId(9);
  lb.AddListener(listener);

  auto hit = lb.Resolve(FlowTo(443), nullptr);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, TargetGroupId(9));
  EXPECT_FALSE(lb.Resolve(FlowTo(80), nullptr).ok());
  EXPECT_FALSE(lb.Resolve(FlowTo(443, Protocol::kUdp), nullptr).ok());
}

TEST(LoadBalancerTest, AlbRulesRouteByPathHostHeader) {
  LoadBalancer lb(LoadBalancerId(1), LbType::kApplication, "alb");
  LbListener listener;
  listener.proto = Protocol::kTcp;
  listener.port = 443;
  listener.default_target = TargetGroupId(1);
  lb.AddListener(listener);

  L7Rule api;
  api.priority = 10;
  api.path_prefix = "/api";
  api.target = TargetGroupId(2);
  ASSERT_TRUE(lb.AddRule(443, api).ok());
  L7Rule admin;
  admin.priority = 5;  // higher priority (lower number)
  admin.path_prefix = "/api/admin";
  admin.host_equals = "admin.example.com";
  admin.target = TargetGroupId(3);
  ASSERT_TRUE(lb.AddRule(443, admin).ok());
  L7Rule canary;
  canary.priority = 1;
  canary.header_equals = {{"x-canary"}, {"true"}};
  canary.target = TargetGroupId(4);
  ASSERT_TRUE(lb.AddRule(443, canary).ok());

  HttpRequestMeta meta;
  meta.path = "/api/users";
  meta.host = "www.example.com";
  EXPECT_EQ(*lb.Resolve(FlowTo(443), &meta), TargetGroupId(2));

  meta.path = "/api/admin/keys";
  meta.host = "admin.example.com";
  EXPECT_EQ(*lb.Resolve(FlowTo(443), &meta), TargetGroupId(3));

  meta.headers["x-canary"] = "true";
  EXPECT_EQ(*lb.Resolve(FlowTo(443), &meta), TargetGroupId(4));

  meta = HttpRequestMeta{};
  meta.path = "/static/logo.png";
  EXPECT_EQ(*lb.Resolve(FlowTo(443), &meta), TargetGroupId(1));  // default
}

TEST(LoadBalancerTest, RulesRejectedOnNonAlb) {
  LoadBalancer lb(LoadBalancerId(1), LbType::kNetwork, "nlb");
  LbListener listener;
  listener.port = 443;
  listener.default_target = TargetGroupId(1);
  lb.AddListener(listener);
  L7Rule rule;
  rule.target = TargetGroupId(2);
  EXPECT_EQ(lb.AddRule(443, rule).code(), StatusCode::kFailedPrecondition);
}

TEST(LoadBalancerTest, RuleOnMissingListenerFails) {
  LoadBalancer lb(LoadBalancerId(1), LbType::kApplication, "alb");
  L7Rule rule;
  rule.target = TargetGroupId(2);
  EXPECT_EQ(lb.AddRule(443, rule).code(), StatusCode::kNotFound);
}

TEST(LoadBalancerTest, NonAlbIgnoresRequestMeta) {
  LoadBalancer lb(LoadBalancerId(1), LbType::kClassic, "clb");
  LbListener listener;
  listener.port = 80;
  listener.default_target = TargetGroupId(5);
  lb.AddListener(listener);
  HttpRequestMeta meta;
  meta.path = "/whatever";
  EXPECT_EQ(*lb.Resolve(FlowTo(80), &meta), TargetGroupId(5));
}

TEST(LoadBalancerTest, TypeNames) {
  EXPECT_EQ(LbTypeName(LbType::kApplication), "application-lb");
  EXPECT_EQ(LbTypeName(LbType::kNetwork), "network-lb");
  EXPECT_EQ(LbTypeName(LbType::kClassic), "classic-lb");
  EXPECT_EQ(LbTypeName(LbType::kGateway), "gateway-lb");
}

}  // namespace
}  // namespace tenantnet
