// Tests for provider-managed SIP load balancing.

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "src/core/sip_lb.h"

namespace tenantnet {
namespace {

IpAddress Ip(const char* s) { return *IpAddress::Parse(s); }

TEST(SipLbTest, SipLifecycle) {
  SipLoadBalancer lb;
  ASSERT_TRUE(lb.AddSip(Ip("5.128.0.1")).ok());
  EXPECT_EQ(lb.AddSip(Ip("5.128.0.1")).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(lb.IsSip(Ip("5.128.0.1")));
  ASSERT_TRUE(lb.RemoveSip(Ip("5.128.0.1")).ok());
  EXPECT_FALSE(lb.IsSip(Ip("5.128.0.1")));
  EXPECT_EQ(lb.RemoveSip(Ip("5.128.0.1")).code(), StatusCode::kNotFound);
}

TEST(SipLbTest, ResolveRequiresHealthyBackends) {
  SipLoadBalancer lb;
  ASSERT_TRUE(lb.AddSip(Ip("5.128.0.1")).ok());
  EXPECT_EQ(lb.Resolve(Ip("5.128.0.1")).status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.1")).ok());
  EXPECT_EQ(*lb.Resolve(Ip("5.128.0.1")), Ip("5.0.0.1"));
  lb.SetHealth(Ip("5.0.0.1"), false);
  EXPECT_FALSE(lb.Resolve(Ip("5.128.0.1")).ok());
  lb.SetHealth(Ip("5.0.0.1"), true);
  EXPECT_TRUE(lb.Resolve(Ip("5.128.0.1")).ok());
}

TEST(SipLbTest, WeightedSpreading) {
  SipLoadBalancer lb;
  ASSERT_TRUE(lb.AddSip(Ip("5.128.0.1")).ok());
  ASSERT_TRUE(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.1"), 3.0).ok());
  ASSERT_TRUE(lb.Bind(Ip("5.0.0.2"), Ip("5.128.0.1"), 1.0).ok());
  std::map<std::string, int> counts;
  for (int i = 0; i < 4000; ++i) {
    counts[lb.Resolve(Ip("5.128.0.1"))->ToString()]++;
  }
  EXPECT_NEAR(counts["5.0.0.1"], 3000, 120);
  EXPECT_NEAR(counts["5.0.0.2"], 1000, 120);
}

TEST(SipLbTest, RebindAdjustsWeight) {
  SipLoadBalancer lb;
  ASSERT_TRUE(lb.AddSip(Ip("5.128.0.1")).ok());
  ASSERT_TRUE(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.1"), 1.0).ok());
  ASSERT_TRUE(lb.Bind(Ip("5.0.0.2"), Ip("5.128.0.1"), 1.0).ok());
  // Re-bind with a new weight rather than duplicating the binding.
  ASSERT_TRUE(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.1"), 9.0).ok());
  auto bindings = lb.Bindings(Ip("5.128.0.1"));
  ASSERT_TRUE(bindings.ok());
  ASSERT_EQ(bindings->size(), 2u);
  std::map<std::string, int> counts;
  for (int i = 0; i < 5000; ++i) {
    counts[lb.Resolve(Ip("5.128.0.1"))->ToString()]++;
  }
  EXPECT_NEAR(counts["5.0.0.1"], 4500, 150);
}

TEST(SipLbTest, InvalidBindings) {
  SipLoadBalancer lb;
  ASSERT_TRUE(lb.AddSip(Ip("5.128.0.1")).ok());
  EXPECT_EQ(lb.Bind(Ip("5.0.0.1"), Ip("9.9.9.9")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.1"), 0.0).code(),
            StatusCode::kInvalidArgument);
  // NaN slips past a `weight <= 0` check; neither it nor infinity is a
  // weight a pick can use.
  EXPECT_EQ(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.1"),
                    std::numeric_limits<double>::quiet_NaN())
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.1"),
                    std::numeric_limits<double>::infinity())
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(lb.Bindings(Ip("5.128.0.1"))->empty());
  EXPECT_EQ(lb.Unbind(Ip("5.0.0.1"), Ip("5.128.0.1")).code(),
            StatusCode::kNotFound);
}

TEST(SipLbTest, UnbindEverywhereClearsAllSips) {
  SipLoadBalancer lb;
  ASSERT_TRUE(lb.AddSip(Ip("5.128.0.1")).ok());
  ASSERT_TRUE(lb.AddSip(Ip("5.128.0.2")).ok());
  ASSERT_TRUE(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.1")).ok());
  ASSERT_TRUE(lb.Bind(Ip("5.0.0.1"), Ip("5.128.0.2")).ok());
  lb.UnbindEverywhere(Ip("5.0.0.1"));
  EXPECT_TRUE(lb.Bindings(Ip("5.128.0.1"))->empty());
  EXPECT_TRUE(lb.Bindings(Ip("5.128.0.2"))->empty());
}

TEST(SipLbTest, FailoverKeepsServing) {
  // The provider-managed failover story of E8a: kill one of three backends
  // and every subsequent resolution lands on a survivor.
  SipLoadBalancer lb;
  ASSERT_TRUE(lb.AddSip(Ip("5.128.0.1")).ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(lb.Bind(IpAddress::V4(5, 0, 0, static_cast<uint8_t>(i)),
                        Ip("5.128.0.1")).ok());
  }
  lb.SetHealth(Ip("5.0.0.2"), false);
  for (int i = 0; i < 200; ++i) {
    IpAddress backend = *lb.Resolve(Ip("5.128.0.1"));
    EXPECT_NE(backend, Ip("5.0.0.2"));
  }
}

}  // namespace
}  // namespace tenantnet
