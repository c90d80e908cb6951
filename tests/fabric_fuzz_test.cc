// Fuzz-style robustness tests: random baseline configurations — including
// dangling references and half-built networks — must never crash the data
// plane; every evaluation terminates with a classified verdict.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/common/rng.h"
#include "src/reach/reach.h"
#include "src/vnet/fabric.h"
#include "tests/test_env.h"

namespace tenantnet {
namespace {

class FabricFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FabricFuzzTest, RandomConfigsNeverCrashEvaluation) {
  const int iters = static_cast<int>(test_env::ItersOverride(400));
  SCOPED_TRACE("reproduce with TN_SEED=" + std::to_string(GetParam()) +
               " TN_ITERS=" + std::to_string(iters));
  Rng rng(GetParam());
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  BaselineNetwork net(*tw.world, ledger);

  std::vector<VpcId> vpcs;
  std::vector<SubnetId> subnets;
  std::vector<SecurityGroupId> sgs;
  std::vector<InstanceId> instances;
  std::vector<VpcRouteTableId> tables;
  std::vector<PeeringId> peerings;
  std::vector<TransitGatewayId> tgws;

  // Random construction: many calls will fail (overlaps, bad zones) — that
  // is part of the point; we keep whatever succeeded.
  for (int step = 0; step < iters; ++step) {
    switch (rng.NextU64(10)) {
      case 0: {
        uint8_t octet = static_cast<uint8_t>(rng.NextU64(250));
        auto vpc = net.CreateVpc(
            tw.tenant, tw.provider,
            rng.NextBool(0.5) ? tw.east : tw.west,
            "v" + std::to_string(step),
            *IpPrefix::Create(IpAddress::V4(10, octet, 0, 0), 16));
        if (vpc.ok()) {
          vpcs.push_back(*vpc);
        }
        break;
      }
      case 1: {
        if (vpcs.empty()) {
          break;
        }
        auto subnet = net.CreateSubnet(
            vpcs[rng.NextU64(vpcs.size())], "s" + std::to_string(step),
            static_cast<int>(18 + rng.NextU64(8)),
            static_cast<int>(rng.NextU64(3)), rng.NextBool(0.3));
        if (subnet.ok()) {
          subnets.push_back(*subnet);
        }
        break;
      }
      case 2: {
        if (vpcs.empty()) {
          break;
        }
        auto sg = net.CreateSecurityGroup(vpcs[rng.NextU64(vpcs.size())],
                                          "sg" + std::to_string(step));
        if (sg.ok()) {
          sgs.push_back(*sg);
          if (rng.NextBool(0.8)) {
            SgRule rule;
            rule.direction = rng.NextBool(0.5) ? TrafficDirection::kIngress
                                               : TrafficDirection::kEgress;
            rule.proto = rng.NextBool(0.5) ? Protocol::kAny : Protocol::kTcp;
            rule.peer = rng.NextBool(0.5)
                            ? SgPeer(IpPrefix::Any(IpFamily::kIpv4))
                            : SgPeer(SecurityGroupId(rng.NextU64(20)));
            (void)net.AddSgRule(*sg, rule);
          }
        }
        break;
      }
      case 3: {
        if (subnets.empty() || sgs.empty()) {
          break;
        }
        auto inst = tw.world->LaunchInstance(
            tw.tenant, tw.provider, rng.NextBool(0.5) ? tw.east : tw.west,
            static_cast<int>(rng.NextU64(2)));
        if (!inst.ok()) {
          break;
        }
        auto eni = net.AttachInstance(
            *inst, subnets[rng.NextU64(subnets.size())],
            {sgs[rng.NextU64(sgs.size())]}, rng.NextBool(0.3));
        if (eni.ok()) {
          instances.push_back(*inst);
        }
        break;
      }
      case 4: {
        if (vpcs.empty()) {
          break;
        }
        auto table = net.CreateRouteTable(vpcs[rng.NextU64(vpcs.size())],
                                          "rt" + std::to_string(step));
        if (table.ok()) {
          tables.push_back(*table);
        }
        break;
      }
      case 5: {
        if (tables.empty()) {
          break;
        }
        // Routes with possibly dangling targets — the data plane must
        // classify these as drops, never crash.
        VpcRouteTarget target;
        target.kind = static_cast<VpcRouteTargetKind>(rng.NextU64(8));
        target.target_id = rng.NextU64(25);
        uint8_t octet = static_cast<uint8_t>(rng.NextU64(255));
        (void)net.AddRoute(
            tables[rng.NextU64(tables.size())],
            *IpPrefix::Create(IpAddress::V4(10, octet, 0, 0),
                              static_cast<int>(8 + rng.NextU64(17))),
            target);
        break;
      }
      case 6: {
        if (subnets.empty() || tables.empty()) {
          break;
        }
        (void)net.AssociateRouteTable(subnets[rng.NextU64(subnets.size())],
                                      tables[rng.NextU64(tables.size())]);
        break;
      }
      case 7: {
        if (vpcs.size() < 2) {
          break;
        }
        auto peering = net.CreatePeering(vpcs[rng.NextU64(vpcs.size())],
                                         vpcs[rng.NextU64(vpcs.size())],
                                         "p" + std::to_string(step));
        if (peering.ok()) {
          peerings.push_back(*peering);
          if (rng.NextBool(0.7)) {
            (void)net.AcceptPeering(*peering);
          }
        }
        break;
      }
      case 8: {
        auto tgw = net.CreateTransitGateway(
            tw.provider, rng.NextBool(0.5) ? tw.east : tw.west,
            static_cast<uint32_t>(64600 + step), "tgw" + std::to_string(step));
        if (tgw.ok()) {
          tgws.push_back(*tgw);
          if (!vpcs.empty()) {
            (void)net.AttachVpcToTgw(*tgw, vpcs[rng.NextU64(vpcs.size())]);
          }
        }
        break;
      }
      case 9: {
        if (vpcs.empty()) {
          break;
        }
        (void)net.CreateInternetGateway(vpcs[rng.NextU64(vpcs.size())],
                                        "igw" + std::to_string(step));
        break;
      }
    }
  }

  // Evaluate a pile of random pairs and external probes; assert the
  // structural contract, and that the reach engine summarizes every random
  // config identically to the evaluator — same verdict, same deny stage.
  BaselineReachEngine reach(net);
  for (int probe = 0; probe < iters + 100 && instances.size() >= 2; ++probe) {
    InstanceId src = instances[rng.NextU64(instances.size())];
    InstanceId dst = instances[rng.NextU64(instances.size())];
    if (src == dst) {
      continue;
    }
    uint16_t port = static_cast<uint16_t>(1 + rng.NextU64(65000));
    Protocol proto = rng.NextBool(0.8) ? Protocol::kTcp : Protocol::kUdp;
    auto result = net.Evaluate(src, dst, port, proto);
    ReachVerdict verdict = reach.CanReach(src, dst, port, proto);
    // An unknown, stopped or unattached end is a drop, never an error.
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(verdict.reachable, result->delivered) << verdict.ToString();
    if (result->delivered) {
      EXPECT_TRUE(result->dst_node.valid());
      EXPECT_TRUE(result->drop_stage.empty());
    } else {
      EXPECT_FALSE(result->drop_stage.empty());
      EXPECT_EQ(DenyStages().Name(verdict.deny_stage), result->drop_stage)
          << verdict.ToString();
    }
  }
  for (int probe = 0; probe < iters / 2; ++probe) {
    IpAddress target =
        IpAddress::V4(static_cast<uint32_t>(rng.NextU64()));
    auto result = net.EvaluateExternal(IpAddress::V4(198, 18, 0, 1), target,
                                       443, Protocol::kTcp);
    if (!result.delivered) {
      EXPECT_FALSE(result.drop_stage.empty());
    }
  }
}

// TN_SEED narrows the sweep to one seed; nightly lanes can raise TN_ITERS.
INSTANTIATE_TEST_SUITE_P(Seeds, FabricFuzzTest,
                         ::testing::ValuesIn(test_env::SeedList(
                             {1, 2, 3, 5, 8, 13, 21, 34})));

}  // namespace
}  // namespace tenantnet
