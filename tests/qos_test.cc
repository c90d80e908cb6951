// Tests for TokenBucket and the distributed egress quota manager.

#include <gtest/gtest.h>

#include <limits>

#include "src/core/qos.h"

namespace tenantnet {
namespace {

TEST(TokenBucketTest, BurstThenThrottle) {
  TokenBucket bucket(1000.0, 500.0);  // 1kbps, 500-bit burst
  SimTime t0 = SimTime::Epoch();
  EXPECT_TRUE(bucket.TryConsume(500, t0));   // burst available immediately
  EXPECT_FALSE(bucket.TryConsume(100, t0));  // empty now
  // After 0.1s, 100 bits refill.
  SimTime t1 = t0 + SimDuration::Millis(100);
  EXPECT_TRUE(bucket.TryConsume(100, t1));
  EXPECT_FALSE(bucket.TryConsume(1, t1));
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket bucket(1000.0, 500.0);
  SimTime late = SimTime::Epoch() + SimDuration::Seconds(100);
  EXPECT_DOUBLE_EQ(bucket.AvailableBits(late), 500.0);
}

TEST(TokenBucketTest, LongRunRateIsBounded) {
  TokenBucket bucket(1e6, 1e4);
  double admitted = 0;
  SimTime now = SimTime::Epoch();
  for (int i = 0; i < 10000; ++i) {
    now += SimDuration::Micros(100);  // 1 second total
    if (bucket.TryConsume(200, now)) {
      admitted += 200;
    }
  }
  // Rate 1e6 bps over 1s plus the initial burst.
  EXPECT_LE(admitted, 1e6 + 1e4 + 200);
  EXPECT_GE(admitted, 0.95e6);
}

TEST(TokenBucketTest, SetRateKeepsTokens) {
  TokenBucket bucket(1000.0, 500.0);
  SimTime t0 = SimTime::Epoch();
  bucket.SetRate(2000.0, t0);
  EXPECT_DOUBLE_EQ(bucket.rate_bps(), 2000.0);
  EXPECT_TRUE(bucket.TryConsume(500, t0));  // burst preserved
}

class QuotaTest : public ::testing::Test {
 protected:
  QuotaTest() : qos_(MakeParams()) {
    // Region 1 with 4 enforcement points.
    for (int i = 0; i < 4; ++i) {
      qos_.RegisterPoint(RegionId(1), "zone" + std::to_string(i));
    }
  }
  static QuotaParams MakeParams() {
    QuotaParams p;
    p.ewma_alpha = 0.5;
    return p;
  }
  EgressQuotaManager qos_;
  TenantId tenant_{1};
  RegionId region_{1};
};

TEST_F(QuotaTest, SetQuotaRequiresPoints) {
  EgressQuotaManager empty;
  EXPECT_EQ(empty.SetQuota(tenant_, RegionId(9), 1e9, SimTime::Epoch()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(empty.Quota(tenant_, RegionId(9)).ok());
}

TEST_F(QuotaTest, SetQuotaRefusesNegativeAndNaN) {
  EXPECT_EQ(qos_.SetQuota(tenant_, region_, -1.0, SimTime::Epoch()).code(),
            StatusCode::kInvalidArgument);
  // NaN slips past a `bps < 0` check.
  EXPECT_EQ(qos_.SetQuota(tenant_, region_,
                          std::numeric_limits<double>::quiet_NaN(),
                          SimTime::Epoch())
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(qos_.Quota(tenant_, region_).ok());
}

TEST_F(QuotaTest, InitialSharesAreEqual) {
  ASSERT_TRUE(qos_.SetQuota(tenant_, region_, 8e9, SimTime::Epoch()).ok());
  EXPECT_DOUBLE_EQ(*qos_.Quota(tenant_, region_), 8e9);
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_DOUBLE_EQ(*qos_.ShareOf(tenant_, region_, p), 2e9);
  }
}

TEST_F(QuotaTest, NoQuotaMeansNoEnforcement) {
  EXPECT_TRUE(qos_.TryConsume(TenantId(77), region_, 0, 1e12,
                              SimTime::Epoch()));
}

TEST_F(QuotaTest, SharesFollowDemand) {
  ASSERT_TRUE(qos_.SetQuota(tenant_, region_, 8e9, SimTime::Epoch()).ok());
  SimTime now = SimTime::Epoch();
  // Offer demand only at point 0 for a while.
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int tick = 0; tick < 10; ++tick) {
      now += SimDuration::Millis(10);
      qos_.TryConsume(tenant_, region_, 0, 8e9 * 0.01, now);  // hot point
      qos_.TryConsume(tenant_, region_, 1, 8e9 * 0.0001, now);  // trickle
    }
    qos_.RunEpoch(now);
  }
  double hot = *qos_.ShareOf(tenant_, region_, 0);
  double idle = *qos_.ShareOf(tenant_, region_, 2);
  EXPECT_GT(hot, 0.8 * 8e9);     // demand-proportional division
  EXPECT_GT(idle, 0.0);          // idle floor keeps new traffic startable
  EXPECT_LT(idle, 0.05 * 8e9);
  EXPECT_DOUBLE_EQ(idle, 8e9 * 0.02 / 4);  // the 2% floor over 4 points
  // Shares never exceed the quota in total.
  double total = 0;
  for (size_t p = 0; p < 4; ++p) {
    total += *qos_.ShareOf(tenant_, region_, p);
  }
  EXPECT_NEAR(total, 8e9, 8e9 * 1e-9);
}

TEST_F(QuotaTest, AggregateAdmissionRespectsQuota) {
  ASSERT_TRUE(qos_.SetQuota(tenant_, region_, 1e9, SimTime::Epoch()).ok());
  SimTime now = SimTime::Epoch();
  // Offer 4x the quota spread over all points for one second.
  for (int tick = 0; tick < 1000; ++tick) {
    now += SimDuration::Millis(1);
    for (size_t p = 0; p < 4; ++p) {
      qos_.TryConsume(tenant_, region_, p, 1e6, now);  // 4 Gbps offered
    }
    if (tick % 100 == 0) {
      qos_.RunEpoch(now);
    }
  }
  double admitted = qos_.AdmittedBits(tenant_, region_);
  double offered = qos_.OfferedBits(tenant_, region_);
  EXPECT_NEAR(offered, 4e9, 1e7);
  // Enforcement accuracy: within burst slack of the 1e9 quota-second.
  EXPECT_LE(admitted, 1.1e9);
  EXPECT_GE(admitted, 0.9e9);
}

TEST_F(QuotaTest, DemandShiftConverges) {
  ASSERT_TRUE(qos_.SetQuota(tenant_, region_, 8e9, SimTime::Epoch()).ok());
  SimTime now = SimTime::Epoch();
  auto drive = [&](size_t hot_point, int epochs) {
    for (int e = 0; e < epochs; ++e) {
      for (int tick = 0; tick < 10; ++tick) {
        now += SimDuration::Millis(10);
        qos_.TryConsume(tenant_, region_, hot_point, 8e7, now);
      }
      qos_.RunEpoch(now);
    }
  };
  drive(0, 15);
  EXPECT_GT(*qos_.ShareOf(tenant_, region_, 0),
            *qos_.ShareOf(tenant_, region_, 3) * 5);
  // Shift all demand to point 3; within a handful of epochs the division
  // follows.
  drive(3, 15);
  EXPECT_GT(*qos_.ShareOf(tenant_, region_, 3),
            *qos_.ShareOf(tenant_, region_, 0) * 5);
}

TEST_F(QuotaTest, CoordinationMessagesScaleWithPointsAndEpochs) {
  ASSERT_TRUE(qos_.SetQuota(tenant_, region_, 1e9, SimTime::Epoch()).ok());
  uint64_t before = qos_.coordination_messages();
  SimTime now = SimTime::Epoch();
  for (int e = 0; e < 10; ++e) {
    now += SimDuration::Millis(100);
    qos_.RunEpoch(now);
  }
  // Each epoch: 4 demand reports + 4 share installs for the one quota.
  EXPECT_EQ(qos_.coordination_messages() - before, 10u * 8u);
}

TEST_F(QuotaTest, MultipleTenantsAreIndependent) {
  TenantId other(2);
  ASSERT_TRUE(qos_.SetQuota(tenant_, region_, 4e9, SimTime::Epoch()).ok());
  ASSERT_TRUE(qos_.SetQuota(other, region_, 1e9, SimTime::Epoch()).ok());
  EXPECT_DOUBLE_EQ(*qos_.Quota(tenant_, region_), 4e9);
  EXPECT_DOUBLE_EQ(*qos_.Quota(other, region_), 1e9);
  EXPECT_DOUBLE_EQ(*qos_.ShareOf(other, region_, 0), 0.25e9);
}

}  // namespace
}  // namespace tenantnet
