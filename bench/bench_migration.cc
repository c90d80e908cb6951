// E7 — §5's migration claim: "any migration between clouds will become
// incredibly simple as the basic interface will be constant between
// clouds."
//
// Task: move the us-west web tier (cloud A) to cloud B's Europe region.
// Both worlds start from the fully built Fig. 1 deployment; we count every
// tenant action the move itself requires, then verify the migrated tier
// can still reach spark.
//
// Baseline: a new VPC with subnets/SG/ACL/route tables/IGW, a new transit
// gateway + peering, route updates, BGP re-convergence, re-attachment —
// effectively re-doing a slice of the §2 provisioning on a *different*
// provider's abstractions. Declarative: request_eip / set_permit_list /
// release_eip, identical verbs on either cloud.

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/vnet/builder.h"

namespace tenantnet {
namespace {

struct LedgerSnapshot {
  uint64_t components, parameters, decisions, cross_refs, api_calls, total;

  static LedgerSnapshot Of(const ConfigLedger& ledger) {
    return {ledger.components(), ledger.parameters(), ledger.decisions(),
            ledger.cross_references(), ledger.api_calls(), ledger.total()};
  }
  LedgerSnapshot Delta(const LedgerSnapshot& later) const {
    return {later.components - components, later.parameters - parameters,
            later.decisions - decisions, later.cross_refs - cross_refs,
            later.api_calls - api_calls, later.total - total};
  }
};

Status MigrateBaseline(BaselineNetwork& net, Fig1World& fig,
                       const Fig1Baseline& handles,
                       std::vector<InstanceId>& new_web) {
  CloudWorld& world = *fig.world;
  // New compute in cloud B Europe.
  for (int i = 0; i < 2; ++i) {
    TN_ASSIGN_OR_RETURN(InstanceId id,
                        world.LaunchInstance(fig.tenant, fig.cloud_b,
                                             fig.b_europe, i % 2));
    new_web.push_back(id);
  }

  // A brand-new VPC on the other provider, with all the trimmings.
  TN_ASSIGN_OR_RETURN(VpcId vpc,
                      net.CreateVpc(fig.tenant, fig.cloud_b, fig.b_europe,
                                    "web-b-eu", *IpPrefix::Parse(
                                        "10.6.0.0/16")));
  TN_ASSIGN_OR_RETURN(VpcRouteTableId rt,
                      net.CreateRouteTable(vpc, "web-b-eu:rt"));
  std::vector<SubnetId> subnets;
  for (int z = 0; z < 2; ++z) {
    TN_ASSIGN_OR_RETURN(SubnetId subnet,
                        net.CreateSubnet(vpc, "web-b-eu:" + std::to_string(z),
                                         20, z, false));
    TN_RETURN_IF_ERROR(net.AssociateRouteTable(subnet, rt));
    subnets.push_back(subnet);
  }
  // Duplicate the web ACL and SG on the new provider (no sharing across
  // clouds).
  TN_ASSIGN_OR_RETURN(NetworkAclId acl,
                      net.CreateNetworkAcl(vpc, "web-b-eu:acl"));
  AclEntry internal;
  internal.rule_number = 100;
  internal.allow = true;
  internal.direction = TrafficDirection::kIngress;
  internal.match = FlowMatch::FromSource(*IpPrefix::Parse("10.0.0.0/8"));
  TN_RETURN_IF_ERROR(net.AddAclEntry(acl, internal));
  AclEntry ephemeral = internal;
  ephemeral.rule_number = 110;
  ephemeral.match = FlowMatch::Any();
  ephemeral.match.dst_ports = PortRange{1024, 65535};
  TN_RETURN_IF_ERROR(net.AddAclEntry(acl, ephemeral));
  AclEntry https = internal;
  https.rule_number = 120;
  https.match = FlowMatch::Any();
  https.match.dst_ports = PortRange::Single(Fig1Baseline::kWebPort);
  TN_RETURN_IF_ERROR(net.AddAclEntry(acl, https));
  AclEntry egress;
  egress.rule_number = 100;
  egress.allow = true;
  egress.direction = TrafficDirection::kEgress;
  egress.match = FlowMatch::Any();
  TN_RETURN_IF_ERROR(net.AddAclEntry(acl, egress));
  for (SubnetId subnet : subnets) {
    TN_RETURN_IF_ERROR(net.AssociateAcl(subnet, acl));
  }
  TN_ASSIGN_OR_RETURN(SecurityGroupId sg,
                      net.CreateSecurityGroup(vpc, "sg-web-b-eu"));
  SgRule sg_egress;
  sg_egress.direction = TrafficDirection::kEgress;
  sg_egress.peer = IpPrefix::Any(IpFamily::kIpv4);
  sg_egress.description = "egress-all";
  TN_RETURN_IF_ERROR(net.AddSgRule(sg, sg_egress));
  SgRule sg_https;
  sg_https.direction = TrafficDirection::kIngress;
  sg_https.proto = Protocol::kTcp;
  sg_https.ports = PortRange::Single(Fig1Baseline::kWebPort);
  sg_https.peer = IpPrefix::Any(IpFamily::kIpv4);
  sg_https.description = "public-https";
  TN_RETURN_IF_ERROR(net.AddSgRule(sg, sg_https));

  // Internet access for the public tier.
  TN_ASSIGN_OR_RETURN(IgwId igw, net.CreateInternetGateway(vpc, "igw-b-eu"));

  // Private connectivity back to the rest: a new regional TGW, peered with
  // cloud B's us-east hub (which owns the circuit to cloud A).
  TN_ASSIGN_OR_RETURN(TransitGatewayId tgw,
                      net.CreateTransitGateway(fig.cloud_b, fig.b_europe,
                                               64612, "tgw-b-europe"));
  TN_RETURN_IF_ERROR(net.AttachVpcToTgw(tgw, vpc).status());
  TN_RETURN_IF_ERROR(net.PeerTransitGateways(tgw, handles.tgw_b));

  // Route tables: tenant network via TGW, internet via IGW.
  TN_RETURN_IF_ERROR(net.AddRoute(rt, *IpPrefix::Parse("10.0.0.0/8"),
                                  VpcRouteTarget{
                                      VpcRouteTargetKind::kTransitGateway,
                                      tgw.value()}));
  TN_RETURN_IF_ERROR(net.AddRoute(rt, IpPrefix::Any(IpFamily::kIpv4),
                                  VpcRouteTarget{
                                      VpcRouteTargetKind::kInternetGateway,
                                      igw.value()}));

  // Attach the new instances, detach the old.
  for (InstanceId id : new_web) {
    TN_RETURN_IF_ERROR(
        net.AttachInstance(id, subnets[0], {sg}, /*public=*/true).status());
  }
  for (InstanceId id : fig.web_us) {
    TN_RETURN_IF_ERROR(net.DetachInstance(id));
  }

  // And the tenant must remember to re-converge their routing.
  net.PropagateRoutes();
  return Status::Ok();
}

Status MigrateDeclarative(DeclarativeCloud& cloud, Fig1World& fig,
                          std::map<uint64_t, IpAddress>& eip,
                          std::vector<InstanceId>& new_web) {
  CloudWorld& world = *fig.world;
  for (int i = 0; i < 2; ++i) {
    TN_ASSIGN_OR_RETURN(InstanceId id,
                        world.LaunchInstance(fig.tenant, fig.cloud_b,
                                             fig.b_europe, i % 2));
    new_web.push_back(id);
  }
  // New EIPs + the web permit list (same API, different cloud).
  for (InstanceId id : new_web) {
    TN_ASSIGN_OR_RETURN(IpAddress addr, cloud.RequestEip(id));
    eip[id.value()] = addr;
    PermitEntry anyone;
    anyone.source = IpPrefix::Any(IpFamily::kIpv4);
    anyone.dst_ports = PortRange::Single(Fig1Baseline::kWebPort);
    anyone.proto = Protocol::kTcp;
    TN_RETURN_IF_ERROR(cloud.SetPermitList(addr, {anyone}).status());
  }
  // Spark listed the old web EIPs; swap them incrementally for the new
  // ones (update_permit_list extension: no full-list resend).
  std::vector<PermitEntry> add;
  for (InstanceId src : new_web) {
    PermitEntry e;
    e.source = IpPrefix::Host(eip.at(src.value()));
    add.push_back(e);
  }
  std::vector<PermitEntry> remove;
  for (InstanceId src : fig.web_us) {
    PermitEntry e;
    e.source = IpPrefix::Host(eip.at(src.value()));
    remove.push_back(e);
  }
  for (InstanceId sp : fig.spark) {
    TN_RETURN_IF_ERROR(
        cloud.UpdatePermitList(eip.at(sp.value()), add, remove).status());
  }
  // Release the old endpoints.
  for (InstanceId id : fig.web_us) {
    TN_RETURN_IF_ERROR(cloud.ReleaseEip(eip.at(id.value())));
    eip.erase(id.value());
  }
  return Status::Ok();
}

// One world's record: the tenant actions the move took, and whether the
// moved web tier still reaches spark.
void RecordWorld(BenchJsonWriter& json, const char* world,
                 const LedgerSnapshot& d, bool delivered) {
  json.Recordf(
      "{\"bench\": \"migration\", \"experiment\": \"E7\", "
      "\"world\": \"%s\", \"components\": %llu, \"parameters\": %llu, "
      "\"decisions\": %llu, \"cross_refs\": %llu, \"api_calls\": %llu, "
      "\"total_actions\": %llu, \"delivered\": %s}",
      world, static_cast<unsigned long long>(d.components),
      static_cast<unsigned long long>(d.parameters),
      static_cast<unsigned long long>(d.decisions),
      static_cast<unsigned long long>(d.cross_refs),
      static_cast<unsigned long long>(d.api_calls),
      static_cast<unsigned long long>(d.total), delivered ? "true" : "false");
}

void Run(BenchJsonWriter& json) {
  Banner("E7", "Cross-cloud migration: move the us-west web tier to cloud B");

  // --- Baseline world -------------------------------------------------------
  Fig1World base_fig = BuildFig1World();
  ConfigLedger base_ledger;
  BaselineNetwork baseline(*base_fig.world, base_ledger);
  auto handles = BuildFig1Baseline(baseline, base_fig);
  LedgerSnapshot base_before = LedgerSnapshot::Of(base_ledger);
  std::vector<InstanceId> base_new_web;
  Status base_status =
      MigrateBaseline(baseline, base_fig, *handles, base_new_web);
  LedgerSnapshot base_delta =
      base_before.Delta(LedgerSnapshot::Of(base_ledger));

  // --- Declarative world ----------------------------------------------------
  Fig1World decl_fig = BuildFig1World();
  ConfigLedger decl_ledger;
  DeclarativeCloud declarative(*decl_fig.world, decl_ledger);
  std::map<uint64_t, IpAddress> eip;
  for (InstanceId id : decl_fig.AllInstances()) {
    eip[id.value()] = *declarative.RequestEip(id);
  }
  // Spark permits the web tiers (the state the migration must update).
  for (InstanceId sp : decl_fig.spark) {
    std::vector<PermitEntry> permits;
    for (const auto* group : {&decl_fig.spark, &decl_fig.web_eu,
                              &decl_fig.web_us, &decl_fig.alerting}) {
      for (InstanceId src : *group) {
        if (src != sp) {
          PermitEntry e;
          e.source = IpPrefix::Host(eip.at(src.value()));
          permits.push_back(e);
        }
      }
    }
    (void)declarative.SetPermitList(eip.at(sp.value()), permits);
  }
  LedgerSnapshot decl_before = LedgerSnapshot::Of(decl_ledger);
  std::vector<InstanceId> decl_new_web;
  Status decl_status =
      MigrateDeclarative(declarative, decl_fig, eip, decl_new_web);
  LedgerSnapshot decl_delta =
      decl_before.Delta(LedgerSnapshot::Of(decl_ledger));

  std::printf("baseline migration: %s\ndeclarative migration: %s\n",
              base_status.ToString().c_str(),
              decl_status.ToString().c_str());

  std::printf("\nTenant actions required by the move:\n");
  TablePrinter table({24, 12, 12});
  table.Row({"action category", "baseline", "declarative"});
  table.Rule();
  table.Row({"components created", FmtInt(base_delta.components),
             FmtInt(decl_delta.components)});
  table.Row({"parameters set", FmtInt(base_delta.parameters),
             FmtInt(decl_delta.parameters)});
  table.Row({"decisions made", FmtInt(base_delta.decisions),
             FmtInt(decl_delta.decisions)});
  table.Row({"cross-references", FmtInt(base_delta.cross_refs),
             FmtInt(decl_delta.cross_refs)});
  table.Row({"API calls", FmtInt(base_delta.api_calls),
             FmtInt(decl_delta.api_calls)});
  table.Row({"TOTAL", FmtInt(base_delta.total), FmtInt(decl_delta.total)});

  // Verify the migrated tier still reaches spark in both worlds.
  auto base_check = baseline.Evaluate(base_new_web[0], base_fig.spark[0],
                                      Fig1Baseline::kSparkPort,
                                      Protocol::kTcp);
  auto decl_check = declarative.Evaluate(
      decl_new_web[0], eip.at(decl_fig.spark[0].value()),
      Fig1Baseline::kSparkPort, Protocol::kTcp);
  auto verdict = [](const auto& check) -> std::string {
    if (check->delivered) {
      return "DELIVERED";
    }
    return "DROPPED(" + std::string(check->drop_stage) + ")";
  };
  std::printf("\npost-migration web->spark: baseline %s, declarative %s\n",
              verdict(base_check).c_str(), verdict(decl_check).c_str());
  std::printf(
      "\nReading: the baseline move re-provisions a provider-specific\n"
      "network slice (new VPC, TGW, peering, routes, duplicated SG/ACL)\n"
      "and re-runs BGP; the declarative move is the same five verbs on a\n"
      "different cloud — the interface is constant, as §5 claims.\n");

  RecordWorld(json, "baseline", base_delta, base_check->delivered);
  RecordWorld(json, "declarative", decl_delta, decl_check->delivered);
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  tenantnet::BenchJsonWriter json("migration",
                                  tenantnet::ParseBenchArgs(argc, argv));
  tenantnet::Run(json);
  return 0;
}
