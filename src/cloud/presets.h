// World presets shared by tests, examples, and benchmarks.
//
// BuildFig1World reconstructs the deployment of the paper's Figure 1: an
// enterprise tenant ("acme") whose backend workloads span two public cloud
// providers (several regions each) and an on-premises datacenter, with an
// exchange-point colocation facility available for dedicated circuits.
// The baseline (vnet) and declarative (core) worlds are then built *on top*
// of this same physical substrate so that every comparison is like-for-like.

#ifndef TENANTNET_SRC_CLOUD_PRESETS_H_
#define TENANTNET_SRC_CLOUD_PRESETS_H_

#include <memory>
#include <vector>

#include "src/cloud/world.h"

namespace tenantnet {

// The Fig. 1 cast of characters.
struct Fig1World {
  std::unique_ptr<CloudWorld> world;

  TenantId tenant;

  ProviderId cloud_a;            // the "AWS-like" provider
  RegionId a_us_east;
  RegionId a_us_west;
  RegionId a_eu_west;

  ProviderId cloud_b;            // the "Azure-like" provider
  RegionId b_us_east;
  RegionId b_europe;

  ExchangeId exchange;           // Equinix-like colocation
  OnPremId on_prem;

  // Workloads (instances by role), mirroring the intro's example: a Spark
  // cluster on one cloud, a database on another, web tier, and an on-prem
  // alert manager.
  std::vector<InstanceId> spark;       // cloud A, us-east
  std::vector<InstanceId> database;    // cloud B, us-east
  std::vector<InstanceId> web_eu;      // cloud A, eu-west
  std::vector<InstanceId> web_us;      // cloud A, us-west
  std::vector<InstanceId> analytics;   // cloud B, europe
  std::vector<InstanceId> alerting;    // on-prem

  std::vector<InstanceId> AllInstances() const;
};

Fig1World BuildFig1World();

// A smaller two-region, one-provider world for unit tests.
struct TestWorld {
  std::unique_ptr<CloudWorld> world;
  TenantId tenant;
  ProviderId provider;
  RegionId east;
  RegionId west;
  ExchangeId exchange;
  OnPremId on_prem;
};

TestWorld BuildTestWorld();

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CLOUD_PRESETS_H_
