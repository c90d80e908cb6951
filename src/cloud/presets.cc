#include "src/cloud/presets.h"

namespace tenantnet {

namespace {

std::vector<InstanceId> Launch(CloudWorld& world, TenantId tenant,
                               ProviderId provider, RegionId region, int count) {
  std::vector<InstanceId> out;
  const RegionSite& r = world.region(region);
  for (int i = 0; i < count; ++i) {
    auto inst = world.LaunchInstance(tenant, provider, region,
                                     i % static_cast<int>(r.zones.size()));
    out.push_back(*inst);
  }
  return out;
}

}  // namespace

std::vector<InstanceId> Fig1World::AllInstances() const {
  std::vector<InstanceId> all;
  for (const auto* group :
       {&spark, &database, &web_eu, &web_us, &analytics, &alerting}) {
    all.insert(all.end(), group->begin(), group->end());
  }
  return all;
}

Fig1World BuildFig1World() {
  Fig1World fig;
  fig.world = std::make_unique<CloudWorld>();
  CloudWorld& w = *fig.world;

  // Public internet core: US east/west, central US, EU west/central.
  w.AddTransitRouter("transit:us-east", {2, 1});
  w.AddTransitRouter("transit:us-west", {-28, 4});
  w.AddTransitRouter("transit:us-central", {-13, 3});
  w.AddTransitRouter("transit:eu-west", {38, -4});
  w.AddTransitRouter("transit:eu-central", {46, -3});

  // Cloud A: AWS-like, three regions.
  fig.cloud_a = w.AddProvider("cloudA", 64500,
                              *IpPrefix::Parse("3.0.0.0/8"));
  fig.a_us_east = w.AddRegion(fig.cloud_a, "us-east", {0, 0}, /*zones=*/3);
  fig.a_us_west = w.AddRegion(fig.cloud_a, "us-west", {-30, 5}, 3);
  fig.a_eu_west = w.AddRegion(fig.cloud_a, "eu-west", {40, -5}, 3);

  // Cloud B: Azure-like, two regions.
  fig.cloud_b = w.AddProvider("cloudB", 64501,
                              *IpPrefix::Parse("20.0.0.0/8"));
  fig.b_us_east = w.AddRegion(fig.cloud_b, "b-us-east", {3, 2}, 2);
  fig.b_europe = w.AddRegion(fig.cloud_b, "b-europe", {43, -2}, 2);

  // Colocation/exchange near the US east coast (Equinix-like) and the
  // tenant's on-prem datacenter.
  fig.exchange = w.AddExchange("equinix:dc", {4, 4});
  fig.on_prem = w.AddOnPrem("acme-hq", {6, 9},
                            *IpPrefix::Parse("10.200.0.0/16"));

  fig.tenant = w.AddTenant("acme");

  fig.spark = Launch(w, fig.tenant, fig.cloud_a, fig.a_us_east, 8);
  fig.database = Launch(w, fig.tenant, fig.cloud_b, fig.b_us_east, 4);
  fig.web_eu = Launch(w, fig.tenant, fig.cloud_a, fig.a_eu_west, 4);
  fig.web_us = Launch(w, fig.tenant, fig.cloud_a, fig.a_us_west, 2);
  fig.analytics = Launch(w, fig.tenant, fig.cloud_b, fig.b_europe, 3);
  for (int i = 0; i < 2; ++i) {
    fig.alerting.push_back(*w.LaunchOnPremInstance(fig.tenant, fig.on_prem));
  }
  return fig;
}

TestWorld BuildTestWorld() {
  TestWorld tw;
  tw.world = std::make_unique<CloudWorld>();
  CloudWorld& w = *tw.world;
  w.AddTransitRouter("transit:east", {1, 1});
  w.AddTransitRouter("transit:west", {-19, 1});
  tw.provider = w.AddProvider("cloud", 64512, *IpPrefix::Parse("5.0.0.0/8"));
  tw.east = w.AddRegion(tw.provider, "east", {0, 0}, 2);
  tw.west = w.AddRegion(tw.provider, "west", {-20, 0}, 2);
  tw.exchange = w.AddExchange("ixp", {2, 2});
  tw.on_prem = w.AddOnPrem("dc", {3, 4}, *IpPrefix::Parse("10.0.0.0/16"));
  tw.tenant = w.AddTenant("tenant");
  return tw;
}

}  // namespace tenantnet
