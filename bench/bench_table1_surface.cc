// E2 — Table 1: the per-component configuration surface of today's
// abstractions versus the five calls of Table 2.
//
// For each abstraction the paper's Table 1 samples (four load-balancer
// families, the VPC, the transit gateway) we provision one minimally
// configured instance through the baseline control plane and report the
// ledger records it generated. The right-hand column reproduces Table 2:
// the entire tenant API has five verbs.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/core/intent.h"
#include "src/reach/policy_learner.h"
#include "src/vnet/decision_tree.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

struct SurfaceRow {
  std::string option;
  std::string features;
  uint64_t components;
  uint64_t parameters;
  uint64_t decisions;
  uint64_t cross_refs;
};

// Runs `provision` against a fresh ledger and reports what it cost.
template <typename Fn>
SurfaceRow Measure(const std::string& option, const std::string& features,
                   Fn&& provision) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  BaselineNetwork net(*tw.world, ledger);
  // Baseline scaffolding every appliance needs (not charged to the row).
  auto vpc = *net.CreateVpc(tw.tenant, tw.provider, tw.east, "v",
                            *IpPrefix::Parse("10.0.0.0/16"));
  auto subnet = *net.CreateSubnet(vpc, "s", 20, 0, true);
  ledger.Clear();
  provision(net, tw, vpc, subnet);
  return SurfaceRow{option, features, ledger.components(),
                    ledger.parameters(), ledger.decisions(),
                    ledger.cross_references()};
}

void ProvisionLb(BaselineNetwork& net, LbType type, VpcId vpc,
                 SubnetId subnet, bool with_rules) {
  auto tg = *net.CreateTargetGroup("tg", Protocol::kTcp, 443);
  auto lb = *net.CreateLoadBalancer(type, "lb", vpc, {subnet});
  LbListener listener;
  listener.proto = Protocol::kTcp;
  listener.port = 443;
  listener.default_target = tg;
  (void)net.AddLbListener(lb, listener);
  if (with_rules) {
    L7Rule rule;
    rule.priority = 10;
    rule.path_prefix = "/api";
    rule.target = tg;
    (void)net.AddLbRule(lb, 443, rule);
  }
}

// E12 side of the surface story: how many permit entries does a real app
// need, depending on who writes them? Three figures for the same app and
// the same reachability: the deployer's group-form lists, the naive
// host-granular transcription of the flow matrix, and the PolicyLearner's
// minimal prefix cover synthesized from observed flows.
void RunPermitSurface(BenchJsonWriter& json) {
  Banner("E12", "Permit surface: handwritten vs observed-and-synthesized");

  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*tw.world, ledger);
  IntentDeployer deployer(cloud);

  AppSpec app;
  app.tenant = tw.tenant;
  ServiceSpec web;
  web.name = "web";
  web.port = 8080;
  ServiceSpec api;
  api.name = "api";
  api.port = 443;
  ServiceSpec db;
  db.name = "db";
  db.port = 5432;
  for (int i = 0; i < 4; ++i) {
    web.instances.push_back(
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0));
    api.instances.push_back(
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west, 0));
    if (i < 2) {
      db.instances.push_back(
          *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west, 0));
    }
  }
  app.services = {web, api, db};
  app.calls = {{"web", "api"}, {"api", "db"}};

  auto deployed = deployer.Deploy(app);
  if (!deployed.ok()) {
    std::printf("deploy failed\n");
    return;
  }
  std::vector<FiveTuple> expected = ExpectedFlows(app, *deployed);

  // Handwritten (deployer) surface: entries actually installed on master.
  EdgeFilterBank& bank = cloud.provider_filters(tw.provider);
  uint64_t handwritten = 0;
  for (const IpAddress& endpoint : bank.MasterEndpoints()) {
    const std::vector<PermitEntry>* entries = bank.MasterEntriesOf(endpoint);
    if (entries != nullptr) {
      handwritten += entries->size();
    }
  }

  // Learned surface: observe the app's expected flows, synthesize the
  // minimal cover, and sanity-check soundness before reporting it.
  PolicyLearner learner;
  learner.ObserveAll(expected);
  ReachabilityIntent intent = learner.Synthesize();
  uint64_t learned = 0;
  for (const auto& [dst, entries] : intent.permits) {
    learned += entries.size();
  }
  bool sound = true;
  for (const FiveTuple& f : expected) {
    sound = sound && intent.Admits(f.src, f.dst, f.dst_port, f.proto);
  }

  TablePrinter table({38, 10, 10});
  table.Row({"permit surface", "entries", "flows"});
  table.Rule();
  table.Row({"deployer group-form lists", FmtInt(handwritten),
             FmtInt(expected.size())});
  table.Row({"naive host-granular transcription", FmtInt(expected.size()),
             FmtInt(expected.size())});
  table.Row({"PolicyLearner minimal prefix cover", FmtInt(learned),
             FmtInt(expected.size())});
  std::printf(
      "\nReading: the learner compresses observed traffic into the smallest\n"
      "sound prefix cover (%s), so tenants who cannot write their own\n"
      "permit matrix can observe-then-pin it with no loss of precision.\n",
      sound ? "verified sound here" : "UNSOUND — bug");

  json.Recordf(
      "{\"bench\": \"table1_surface\", \"experiment\": \"E12\", "
      "\"surface\": \"handwritten\", \"entries\": %llu, \"flows\": %zu}",
      static_cast<unsigned long long>(handwritten), expected.size());
  json.Recordf(
      "{\"bench\": \"table1_surface\", \"experiment\": \"E12\", "
      "\"surface\": \"learned\", \"entries\": %llu, \"flows\": %zu, "
      "\"sound\": %d}",
      static_cast<unsigned long long>(learned), expected.size(),
      sound ? 1 : 0);
}

void Run(BenchJsonWriter& json) {
  Banner("E2", "Table 1: configuration surface per abstraction");

  std::vector<SurfaceRow> rows;
  rows.push_back(Measure(
      "Application Load Balancer", "L7 load balancing",
      [](BaselineNetwork& net, TestWorld&, VpcId vpc, SubnetId subnet) {
        ProvisionLb(net, LbType::kApplication, vpc, subnet, true);
      }));
  rows.push_back(Measure(
      "Network Load Balancer", "L4 load balancing",
      [](BaselineNetwork& net, TestWorld&, VpcId vpc, SubnetId subnet) {
        ProvisionLb(net, LbType::kNetwork, vpc, subnet, false);
      }));
  rows.push_back(Measure(
      "Classic Load Balancer", "L4 & L7 load balancing",
      [](BaselineNetwork& net, TestWorld&, VpcId vpc, SubnetId subnet) {
        ProvisionLb(net, LbType::kClassic, vpc, subnet, false);
      }));
  rows.push_back(Measure(
      "Gateway Load Balancer", "L3 load balancing",
      [](BaselineNetwork& net, TestWorld&, VpcId vpc, SubnetId subnet) {
        ProvisionLb(net, LbType::kGateway, vpc, subnet, false);
      }));
  rows.push_back(Measure(
      "VPC", "Isolated virtual network",
      [](BaselineNetwork& net, TestWorld& tw, VpcId, SubnetId) {
        auto vpc = *net.CreateVpc(tw.tenant, tw.provider, tw.east, "v2",
                                  *IpPrefix::Parse("10.1.0.0/16"));
        auto subnet = *net.CreateSubnet(vpc, "s2", 20, 0, false);
        auto sg = *net.CreateSecurityGroup(vpc, "sg");
        SgRule rule;
        rule.direction = TrafficDirection::kEgress;
        rule.peer = IpPrefix::Any(IpFamily::kIpv4);
        (void)net.AddSgRule(sg, rule);
        auto acl = *net.CreateNetworkAcl(vpc, "acl");
        AclEntry entry;
        entry.rule_number = 100;
        entry.allow = true;
        entry.match = FlowMatch::Any();
        (void)net.AddAclEntry(acl, entry);
        (void)net.AssociateAcl(subnet, acl);
      }));
  rows.push_back(Measure(
      "Transit Gateway", "VPC to on-prem connection",
      [](BaselineNetwork& net, TestWorld& tw, VpcId vpc, SubnetId) {
        auto tgw = *net.CreateTransitGateway(tw.provider, tw.east, 64601,
                                             "tgw");
        (void)net.AttachVpcToTgw(tgw, vpc);
        auto vpg = *net.CreateVpnGateway(vpc, tw.on_prem, 64602, "vpg");
        (void)net.AttachVpnToTgw(tgw, vpg);
        (void)net.AddTgwRoute(tgw, *IpPrefix::Parse("10.0.0.0/8"), 0);
        (void)net.PropagateRoutes();
      }));

  TablePrinter table({26, 26, 6, 8, 6, 8});
  table.Row({"Abstraction option", "Features", "boxes", "params", "decs",
             "xrefs"});
  table.Rule();
  for (const SurfaceRow& row : rows) {
    table.Row({row.option, row.features, FmtInt(row.components),
               FmtInt(row.parameters), FmtInt(row.decisions),
               FmtInt(row.cross_refs)});
  }

  // The planning burden that precedes any of the above: the selection
  // decision trees themselves (§3(2) cites Azure's five-level LB tree).
  auto lb_tree = BuildLoadBalancerDecisionTree();
  auto conn_tree = BuildConnectivityDecisionTree();
  std::printf(
      "\nSelection decision trees the tenant must navigate *before*\n"
      "creating anything:\n");
  TablePrinter trees({26, 10, 12, 10});
  trees.Row({"tree", "depth", "questions", "outcomes"});
  trees.Rule();
  trees.Row({"load balancer family", FmtInt(lb_tree->MaxDepth()),
             FmtInt(lb_tree->QuestionCount()), FmtInt(lb_tree->LeafCount())});
  trees.Row({"connectivity gateway", FmtInt(conn_tree->MaxDepth()),
             FmtInt(conn_tree->QuestionCount()),
             FmtInt(conn_tree->LeafCount())});

  std::printf(
      "\nTable 2 (the proposal) for comparison — the full tenant API:\n");
  TablePrinter api({34, 42});
  api.Row({"API", "Description"});
  api.Rule();
  api.Row({"request_eip(vm_id)", "Grants endpoint IP"});
  api.Row({"request_sip()", "Grants service IP"});
  api.Row({"bind(eip, sip)", "Binds EIP to SIP"});
  api.Row({"set_permit_list(eip, permit_list)", "Sets access list for EIP"});
  api.Row({"set_qos(region, bandwidth)", "Sets region BW allowance"});
  std::printf(
      "\nFive verbs, zero boxes, zero placement/topology decisions. Every\n"
      "row above exists *per appliance instance* in the baseline world.\n");

  for (const SurfaceRow& row : rows) {
    json.Recordf(
        "{\"bench\": \"table1_surface\", \"experiment\": \"E2\", "
        "\"abstraction\": \"%s\", \"components\": %llu, "
        "\"parameters\": %llu, \"decisions\": %llu, \"cross_refs\": %llu}",
        row.option.c_str(), static_cast<unsigned long long>(row.components),
        static_cast<unsigned long long>(row.parameters),
        static_cast<unsigned long long>(row.decisions),
        static_cast<unsigned long long>(row.cross_refs));
  }
  for (const auto& [name, tree] :
       {std::pair{"load balancer family", lb_tree.get()},
        std::pair{"connectivity gateway", conn_tree.get()}}) {
    json.Recordf(
        "{\"bench\": \"table1_surface\", \"experiment\": \"E2\", "
        "\"tree\": \"%s\", \"depth\": %d, \"questions\": %d, "
        "\"outcomes\": %d}",
        name, tree->MaxDepth(), tree->QuestionCount(), tree->LeafCount());
  }
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  tenantnet::BenchJsonWriter json("table1_surface",
                                  tenantnet::ParseBenchArgs(argc, argv));
  tenantnet::Run(json);
  tenantnet::RunPermitSurface(json);
  return 0;
}
