#include "src/vnet/fabric.h"

#include <algorithm>
#include <cassert>

namespace tenantnet {

namespace {

// Reverse of a tuple, for stateless return-path checks.
FiveTuple Reverse(const FiveTuple& flow) {
  FiveTuple r;
  r.src = flow.dst;
  r.dst = flow.src;
  r.src_port = flow.dst_port;
  r.dst_port = flow.src_port;
  r.proto = flow.proto;
  return r;
}

}  // namespace

BaselineNetwork::BaselineNetwork(CloudWorld& world, ConfigLedger& ledger)
    : world_(&world), ledger_(&ledger),
      igw_hop_(RouteLabels().Intern("igw")),
      egress_igw_hop_(RouteLabels().Intern("egress-only-igw")) {}

// --------------------------------------------------------------------------
// Step (1): VPCs, subnets, ACLs, SGs, NICs.
// --------------------------------------------------------------------------

Result<VpcId> BaselineNetwork::CreateVpc(TenantId tenant, ProviderId provider,
                                         RegionId region,
                                         const std::string& name,
                                         const IpPrefix& cidr) {
  // Non-overlap with the tenant's other VPCs is the tenant's problem — the
  // address-planning pain the paper calls out. Overlap is legal in real
  // clouds but breaks peering later; we reject it eagerly to surface the
  // planning burden as a hard constraint.
  for (const auto& [id, vpc] : vpcs_) {
    if (vpc->tenant == tenant && vpc->cidr.Overlaps(cidr)) {
      return AlreadyExistsError("VPC CIDR " + cidr.ToString() +
                                " overlaps existing VPC " + vpc->name);
    }
  }
  VpcId id = vpc_ids_.Next();
  auto vpc = std::make_unique<Vpc>(id, tenant, provider, region, name, cidr);

  ledger_->CreateComponent("vpc", name);
  ledger_->Decision("vpc", "ipv4-vs-ipv6");
  ledger_->Decision("vpc", "cidr-size-and-placement");
  ledger_->SetParameter("vpc", "cidr=" + cidr.ToString());
  ledger_->SetParameter("vpc", "region");
  ledger_->SetParameter("vpc", "tenancy");

  // A VPC arrives with a main route table and a default NACL; the tenant
  // still owns their contents.
  VpcRouteTableId table_id = table_ids_.Next();
  tables_.emplace(table_id, std::make_unique<VpcRouteTable>(
                                table_id, name + ":main-rt"));
  tables_[table_id]->AttachRevisionCounter(&config_epoch_);
  ledger_->CreateComponent("route-table", name + ":main-rt");
  tables_[table_id]->Install(cidr, VpcRouteTarget{VpcRouteTargetKind::kLocal, 0});
  ledger_->SetParameter("route-table", "local-route");
  vpc->main_route_table = table_id;

  NetworkAclId acl_id = acl_ids_.Next();
  acls_.emplace(acl_id,
                std::make_unique<NetworkAcl>(acl_id, name + ":default-acl"));
  acls_[acl_id]->AttachRevisionCounter(&config_epoch_);
  ledger_->CreateComponent("network-acl", name + ":default-acl");
  vpc->default_acl = acl_id;

  vpcs_.emplace(id, std::move(vpc));
  AddKnownPrefix(cidr);
  BumpConfigEpoch();
  return id;
}

Result<SubnetId> BaselineNetwork::CreateSubnet(VpcId vpc_id,
                                               const std::string& name,
                                               int prefix_len, int zone_index,
                                               bool is_public) {
  Vpc* vpc = MutableVpc(vpc_id);
  if (vpc == nullptr) {
    return NotFoundError("no such vpc");
  }
  const RegionSite& region = world_->region(vpc->region);
  if (zone_index < 0 ||
      static_cast<size_t>(zone_index) >= region.zones.size()) {
    return InvalidArgumentError("zone index out of range for region");
  }
  TN_ASSIGN_OR_RETURN(IpPrefix cidr, vpc->subnet_space.Allocate(prefix_len));

  SubnetId id = subnet_ids_.Next();
  auto subnet = std::make_unique<Subnet>(id, vpc_id, name, cidr, zone_index,
                                         is_public);
  subnet->route_table = vpc->main_route_table;
  subnet->acl = vpc->default_acl;
  vpc->subnets.push_back(id);

  ledger_->CreateComponent("subnet", name);
  ledger_->Decision("subnet", "public-vs-private");
  ledger_->SetParameter("subnet", "cidr=" + cidr.ToString());
  ledger_->SetParameter("subnet", "availability-zone");
  ledger_->CrossReference("subnet", "vpc");

  subnets_.emplace(id, std::move(subnet));
  BumpConfigEpoch();
  return id;
}

Result<VpcRouteTableId> BaselineNetwork::CreateRouteTable(
    VpcId vpc_id, const std::string& name) {
  Vpc* vpc = MutableVpc(vpc_id);
  if (vpc == nullptr) {
    return NotFoundError("no such vpc");
  }
  VpcRouteTableId id = table_ids_.Next();
  auto table = std::make_unique<VpcRouteTable>(id, name);
  table->AttachRevisionCounter(&config_epoch_);
  // Every route table implicitly carries the VPC-local route.
  table->Install(vpc->cidr, VpcRouteTarget{VpcRouteTargetKind::kLocal, 0});
  tables_.emplace(id, std::move(table));
  ledger_->CreateComponent("route-table", name);
  ledger_->CrossReference("route-table", "vpc");
  return id;
}

Status BaselineNetwork::AssociateRouteTable(SubnetId subnet_id,
                                            VpcRouteTableId table_id) {
  auto it = subnets_.find(subnet_id);
  if (it == subnets_.end()) {
    return NotFoundError("no such subnet");
  }
  if (tables_.find(table_id) == tables_.end()) {
    return NotFoundError("no such route table");
  }
  it->second->route_table = table_id;
  ledger_->CrossReference("route-table", "subnet-association");
  BumpConfigEpoch();
  return Status::Ok();
}

Status BaselineNetwork::AddRoute(VpcRouteTableId table_id,
                                 const IpPrefix& prefix,
                                 VpcRouteTarget target) {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return NotFoundError("no such route table");
  }
  it->second->Install(prefix, target);
  ledger_->SetParameter("route-table",
                        std::string("route ") + prefix.ToString() + " -> " +
                            std::string(VpcRouteTargetKindName(target.kind)));
  ledger_->CrossReference("route-table",
                          std::string(VpcRouteTargetKindName(target.kind)));
  return Status::Ok();
}

Status BaselineNetwork::RemoveRoute(VpcRouteTableId table_id,
                                    const IpPrefix& prefix) {
  auto it = tables_.find(table_id);
  if (it == tables_.end()) {
    return NotFoundError("no such route table");
  }
  if (!it->second->Withdraw(prefix)) {
    return NotFoundError("no route for " + prefix.ToString());
  }
  ledger_->SetParameter("route-table", "remove-route " + prefix.ToString());
  return Status::Ok();
}

Status BaselineNetwork::RemoveSgRule(SecurityGroupId group,
                                     size_t rule_index) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such security group");
  }
  if (!it->second->RemoveRule(rule_index)) {
    return NotFoundError("no such rule index");
  }
  ledger_->SetParameter("security-group", "remove-rule");
  return Status::Ok();
}

Result<SecurityGroupId> BaselineNetwork::CreateSecurityGroup(
    VpcId vpc_id, const std::string& name) {
  if (vpcs_.find(vpc_id) == vpcs_.end()) {
    return NotFoundError("no such vpc");
  }
  SecurityGroupId id = group_ids_.Next();
  groups_.emplace(id, std::make_unique<SecurityGroup>(id, name));
  groups_[id]->AttachRevisionCounter(&config_epoch_);
  ledger_->CreateComponent("security-group", name);
  ledger_->CrossReference("security-group", "vpc");
  return id;
}

Status BaselineNetwork::AddSgRule(SecurityGroupId group, SgRule rule) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such security group");
  }
  ledger_->SetParameter("security-group", "rule:" + rule.description);
  if (std::holds_alternative<SecurityGroupId>(rule.peer)) {
    ledger_->CrossReference("security-group", "referenced-group");
  }
  it->second->AddRule(std::move(rule));
  return Status::Ok();
}

Result<NetworkAclId> BaselineNetwork::CreateNetworkAcl(
    VpcId vpc_id, const std::string& name) {
  if (vpcs_.find(vpc_id) == vpcs_.end()) {
    return NotFoundError("no such vpc");
  }
  NetworkAclId id = acl_ids_.Next();
  acls_.emplace(id, std::make_unique<NetworkAcl>(id, name));
  acls_[id]->AttachRevisionCounter(&config_epoch_);
  ledger_->CreateComponent("network-acl", name);
  ledger_->CrossReference("network-acl", "vpc");
  return id;
}

Status BaselineNetwork::AddAclEntry(NetworkAclId acl, AclEntry entry) {
  auto it = acls_.find(acl);
  if (it == acls_.end()) {
    return NotFoundError("no such network acl");
  }
  ledger_->SetParameter("network-acl",
                        "entry#" + std::to_string(entry.rule_number));
  it->second->AddEntry(std::move(entry));
  return Status::Ok();
}

Status BaselineNetwork::AssociateAcl(SubnetId subnet_id, NetworkAclId acl) {
  auto it = subnets_.find(subnet_id);
  if (it == subnets_.end()) {
    return NotFoundError("no such subnet");
  }
  if (acls_.find(acl) == acls_.end()) {
    return NotFoundError("no such network acl");
  }
  it->second->acl = acl;
  ledger_->CrossReference("network-acl", "subnet-association");
  BumpConfigEpoch();
  return Status::Ok();
}

Result<EniId> BaselineNetwork::AttachInstance(
    InstanceId instance, SubnetId subnet_id,
    std::vector<SecurityGroupId> groups, bool assign_public_ip) {
  const Instance* inst = world_->FindInstance(instance);
  if (inst == nullptr || !inst->running) {
    return NotFoundError("no such running instance");
  }
  auto sit = subnets_.find(subnet_id);
  if (sit == subnets_.end()) {
    return NotFoundError("no such subnet");
  }
  Subnet& subnet = *sit->second;
  const Vpc* vpc = FindVpc(subnet.vpc);
  if (vpc->region != inst->region) {
    return InvalidArgumentError("subnet and instance are in different regions");
  }
  if (eni_by_instance_.count(instance) > 0) {
    return AlreadyExistsError("instance already attached");
  }
  for (SecurityGroupId g : groups) {
    if (groups_.find(g) == groups_.end()) {
      return NotFoundError("unknown security group in attachment");
    }
  }

  TN_ASSIGN_OR_RETURN(IpAddress private_ip, subnet.allocator.Allocate());
  EniId id = eni_ids_.Next();
  auto eni = std::make_unique<Eni>();
  eni->id = id;
  eni->instance = instance;
  eni->subnet = subnet_id;
  eni->private_ip = private_ip;
  eni->security_groups = std::move(groups);

  ledger_->CreateComponent("eni", "eni-" + std::to_string(id.value()));
  ledger_->SetParameter("eni", "private-ip");
  ledger_->CrossReference("eni", "subnet");
  for (size_t i = 0; i < eni->security_groups.size(); ++i) {
    ledger_->CrossReference("eni", "security-group");
  }

  if (assign_public_ip) {
    auto& pool = public_pools_[vpc->provider];
    if (!pool) {
      pool = std::make_unique<HostAllocator>(
          world_->provider(vpc->provider).address_space);
    }
    TN_ASSIGN_OR_RETURN(IpAddress public_ip, pool->Allocate());
    eni->public_ip = public_ip;
    eni_by_ip_[public_ip] = id;
    ledger_->SetParameter("eni", "public-ip");
    ledger_->Decision("eni", "assign-public-ip");
  }

  eni_by_ip_[private_ip] = id;
  eni_by_instance_[instance] = id;
  enis_.emplace(id, std::move(eni));
  BumpConfigEpoch();
  return id;
}

Status BaselineNetwork::DetachInstance(InstanceId instance) {
  auto it = eni_by_instance_.find(instance);
  if (it == eni_by_instance_.end()) {
    return NotFoundError("instance not attached");
  }
  EniId eni_id = it->second;
  Eni& eni = *enis_[eni_id];
  Subnet& subnet = *subnets_[eni.subnet];
  TN_RETURN_IF_ERROR(subnet.allocator.Release(eni.private_ip));
  eni_by_ip_.erase(eni.private_ip);
  if (eni.public_ip.has_value()) {
    const Vpc* vpc = FindVpc(subnet.vpc);
    TN_RETURN_IF_ERROR(public_pools_[vpc->provider]->Release(*eni.public_ip));
    eni_by_ip_.erase(*eni.public_ip);
  }
  enis_.erase(eni_id);
  eni_by_instance_.erase(it);
  BumpConfigEpoch();
  return Status::Ok();
}

Result<IpAddress> BaselineNetwork::AttachOnPremInstance(InstanceId instance) {
  const Instance* inst = world_->FindInstance(instance);
  if (inst == nullptr || !inst->on_prem.valid()) {
    return InvalidArgumentError("instance is not on-prem");
  }
  if (on_prem_addrs_.count(instance) > 0) {
    return AlreadyExistsError("instance already addressed");
  }
  auto& pool = on_prem_pools_[inst->on_prem];
  if (!pool) {
    pool = std::make_unique<HostAllocator>(
        world_->on_prem(inst->on_prem).address_space);
  }
  TN_ASSIGN_OR_RETURN(IpAddress ip, pool->Allocate());
  on_prem_addrs_[instance] = ip;
  LabelSite(inst->on_prem);
  BumpConfigEpoch();
  return ip;
}

// --------------------------------------------------------------------------
// Step (2): connectivity in/out of a VPC.
// --------------------------------------------------------------------------

Result<IgwId> BaselineNetwork::CreateInternetGateway(VpcId vpc,
                                                     const std::string& name) {
  if (vpcs_.find(vpc) == vpcs_.end()) {
    return NotFoundError("no such vpc");
  }
  if (igw_by_vpc_.count(vpc) > 0) {
    return AlreadyExistsError("vpc already has an internet gateway");
  }
  IgwId id = igw_ids_.Next();
  igws_.emplace(id, InternetGateway{id, vpc, name});
  igw_by_vpc_[vpc] = id;
  ledger_->CreateComponent("internet-gateway", name);
  ledger_->Decision("internet-gateway", "igw-vs-egress-only-vs-vpg");
  ledger_->CrossReference("internet-gateway", "vpc-attachment");
  BumpConfigEpoch();
  return id;
}

Result<EgressOnlyIgwId> BaselineNetwork::CreateEgressOnlyIgw(
    VpcId vpc, const std::string& name) {
  if (vpcs_.find(vpc) == vpcs_.end()) {
    return NotFoundError("no such vpc");
  }
  EgressOnlyIgwId id = egress_igw_ids_.Next();
  egress_igws_.emplace(id, EgressOnlyInternetGateway{id, vpc, name});
  egress_igw_by_vpc_[vpc] = id;
  ledger_->CreateComponent("egress-only-igw", name);
  ledger_->CrossReference("egress-only-igw", "vpc-attachment");
  BumpConfigEpoch();
  return id;
}

Result<NatGatewayId> BaselineNetwork::CreateNatGateway(
    SubnetId public_subnet, const std::string& name) {
  auto it = subnets_.find(public_subnet);
  if (it == subnets_.end()) {
    return NotFoundError("no such subnet");
  }
  if (!it->second->is_public) {
    return FailedPreconditionError(
        "NAT gateway must live in a public subnet");
  }
  const Vpc* vpc = FindVpc(it->second->vpc);
  auto& pool = public_pools_[vpc->provider];
  if (!pool) {
    pool = std::make_unique<HostAllocator>(
        world_->provider(vpc->provider).address_space);
  }
  TN_ASSIGN_OR_RETURN(IpAddress public_ip, pool->Allocate());
  NatGatewayId id = nat_ids_.Next();
  nats_.emplace(id, NatGateway{id, public_subnet, public_ip, name,
                                HopLabel::Of("nat:", name)});
  ledger_->CreateComponent("nat-gateway", name);
  ledger_->SetParameter("nat-gateway", "elastic-ip");
  ledger_->CrossReference("nat-gateway", "subnet");
  BumpConfigEpoch();
  return id;
}

Result<VpnGatewayId> BaselineNetwork::CreateVpnGateway(
    VpcId vpc, OnPremId site, uint32_t bgp_asn, const std::string& name) {
  auto vit = vpcs_.find(vpc);
  if (vit == vpcs_.end()) {
    return NotFoundError("no such vpc");
  }
  // Ensure the on-prem side has a speaker that originates its space (the
  // tenant's customer-gateway configuration).
  SpeakerId site_speaker;
  auto sit = on_prem_speakers_.find(site);
  if (sit == on_prem_speakers_.end()) {
    const OnPremSite& onp = world_->on_prem(site);
    site_speaker =
        bgp_.AddSpeaker(65000 + static_cast<uint32_t>(site.value()),
                        onp.name + ":router");
    TN_RETURN_IF_ERROR(bgp_.Originate(site_speaker, onp.address_space));
    on_prem_speakers_[site] = site_speaker;
    AddKnownPrefix(onp.address_space);
    LabelSite(site);
    ledger_->CreateComponent("customer-gateway", onp.name);
    ledger_->SetParameter("customer-gateway", "bgp-asn");
    ledger_->SetParameter("customer-gateway", "advertised-prefixes");
  } else {
    site_speaker = sit->second;
  }

  VpnGatewayId id = vpn_ids_.Next();
  SpeakerId speaker = bgp_.AddSpeaker(bgp_asn, name);
  // The VPG advertises its VPC's block toward on-prem.
  TN_RETURN_IF_ERROR(bgp_.Originate(speaker, vit->second->cidr));
  TN_RETURN_IF_ERROR(bgp_.AddSession(speaker, site_speaker));
  vpns_.emplace(id, VpnGateway{id, vpc, site, bgp_asn, speaker, name,
                               HopLabel::Of("vpn:", name)});
  ledger_->CreateComponent("vpn-gateway", name);
  ledger_->SetParameter("vpn-gateway", "bgp-asn");
  ledger_->SetParameter("vpn-gateway", "tunnel-options");
  ledger_->SetParameter("vpn-gateway", "pre-shared-keys");
  ledger_->CrossReference("vpn-gateway", "vpc-attachment");
  ledger_->CrossReference("vpn-gateway", "customer-gateway");
  BumpConfigEpoch();
  return id;
}

// --------------------------------------------------------------------------
// Step (3): networking multiple VPCs.
// --------------------------------------------------------------------------

Result<PeeringId> BaselineNetwork::CreatePeering(VpcId requester,
                                                 VpcId accepter,
                                                 const std::string& name) {
  const Vpc* a = FindVpc(requester);
  const Vpc* b = FindVpc(accepter);
  if (a == nullptr || b == nullptr) {
    return NotFoundError("no such vpc");
  }
  if (a->provider != b->provider) {
    return FailedPreconditionError(
        "VPC peering does not span providers (use TGW + circuits)");
  }
  if (a->cidr.Overlaps(b->cidr)) {
    return FailedPreconditionError("cannot peer VPCs with overlapping CIDRs");
  }
  PeeringId id = peering_ids_.Next();
  peerings_.emplace(id, VpcPeering{id, requester, accepter, false, name,
                                   HopLabel::Of("peering:", name)});
  ledger_->CreateComponent("vpc-peering", name);
  ledger_->CrossReference("vpc-peering", "requester-vpc");
  ledger_->CrossReference("vpc-peering", "accepter-vpc");
  BumpConfigEpoch();
  return id;
}

Status BaselineNetwork::AcceptPeering(PeeringId peering) {
  auto it = peerings_.find(peering);
  if (it == peerings_.end()) {
    return NotFoundError("no such peering");
  }
  it->second.accepted = true;
  ledger_->SetParameter("vpc-peering", "accept");
  BumpConfigEpoch();
  return Status::Ok();
}

Result<TransitGatewayId> BaselineNetwork::CreateTransitGateway(
    ProviderId provider, RegionId region, uint32_t asn,
    const std::string& name) {
  TransitGatewayId id = tgw_ids_.Next();
  auto tgw = std::make_unique<TransitGateway>(id, provider, region, asn, name);
  tgw->AttachRevisionCounter(&config_epoch_);
  tgw->set_speaker(bgp_.AddSpeaker(asn, name));
  tgws_.emplace(id, std::move(tgw));
  ledger_->CreateComponent("transit-gateway", name);
  ledger_->SetParameter("transit-gateway", "bgp-asn");
  ledger_->SetParameter("transit-gateway", "default-route-table-association");
  ledger_->SetParameter("transit-gateway", "default-route-propagation");
  ledger_->SetParameter("transit-gateway", "mtu");
  return id;
}

Result<size_t> BaselineNetwork::AttachVpcToTgw(TransitGatewayId tgw_id,
                                               VpcId vpc_id) {
  TransitGateway* tgw = FindTgw(tgw_id);
  const Vpc* vpc = FindVpc(vpc_id);
  if (tgw == nullptr || vpc == nullptr) {
    return NotFoundError("no such tgw or vpc");
  }
  if (vpc->region != tgw->region()) {
    return FailedPreconditionError(
        "TGW attachments are regional; VPC is in another region");
  }
  size_t idx = tgw->Attach(
      TgwAttachment{TgwAttachmentKind::kVpc, vpc_id.value(), vpc->name});
  // The VPC's block becomes reachable through this TGW and is advertised to
  // the tenant's wider BGP mesh.
  tgw->InstallRoute(vpc->cidr, idx);
  Status origin = bgp_.Originate(tgw->speaker(), vpc->cidr);
  if (!origin.ok() && origin.code() != StatusCode::kAlreadyExists) {
    return origin;
  }
  ledger_->CreateComponent("tgw-attachment", vpc->name);
  ledger_->CrossReference("tgw-attachment", "vpc");
  ledger_->SetParameter("tgw-attachment", "route-propagation");
  return idx;
}

Result<size_t> BaselineNetwork::AttachVpnToTgw(TransitGatewayId tgw_id,
                                               VpnGatewayId vpn_id) {
  TransitGateway* tgw = FindTgw(tgw_id);
  auto vit = vpns_.find(vpn_id);
  if (tgw == nullptr || vit == vpns_.end()) {
    return NotFoundError("no such tgw or vpn gateway");
  }
  size_t idx = tgw->Attach(TgwAttachment{TgwAttachmentKind::kVpn,
                                         vpn_id.value(), vit->second.name});
  TN_RETURN_IF_ERROR(bgp_.AddSession(tgw->speaker(), vit->second.speaker));
  ledger_->CreateComponent("tgw-attachment", vit->second.name);
  ledger_->CrossReference("tgw-attachment", "vpn-gateway");
  return idx;
}

Result<size_t> BaselineNetwork::AttachDirectConnectToTgw(
    TransitGatewayId tgw_id, DirectConnectId dx_id) {
  TransitGateway* tgw = FindTgw(tgw_id);
  auto dit = dxs_.find(dx_id);
  if (tgw == nullptr || dit == dxs_.end()) {
    return NotFoundError("no such tgw or direct connect");
  }
  size_t idx = tgw->Attach(TgwAttachment{TgwAttachmentKind::kDirectConnect,
                                         dx_id.value(), dit->second.name});
  TN_RETURN_IF_ERROR(bgp_.AddSession(tgw->speaker(), dit->second.speaker));
  tgw_by_dx_[dx_id] = tgw_id;
  ledger_->CreateComponent("tgw-attachment", dit->second.name);
  ledger_->CrossReference("tgw-attachment", "direct-connect");
  ledger_->SetParameter("tgw-attachment", "allowed-prefixes");
  return idx;
}

Status BaselineNetwork::PeerTransitGateways(TransitGatewayId a_id,
                                            TransitGatewayId b_id) {
  TransitGateway* a = FindTgw(a_id);
  TransitGateway* b = FindTgw(b_id);
  if (a == nullptr || b == nullptr) {
    return NotFoundError("no such tgw");
  }
  if (a->provider() != b->provider()) {
    return FailedPreconditionError(
        "TGW peering does not span providers (use circuits)");
  }
  a->Attach(TgwAttachment{TgwAttachmentKind::kPeering, b_id.value(),
                          b->name()});
  b->Attach(TgwAttachment{TgwAttachmentKind::kPeering, a_id.value(),
                          a->name()});
  TN_RETURN_IF_ERROR(bgp_.AddSession(a->speaker(), b->speaker()));
  ledger_->CreateComponent("tgw-peering", a->name() + "<->" + b->name());
  ledger_->CrossReference("tgw-peering", "tgw-a");
  ledger_->CrossReference("tgw-peering", "tgw-b");
  return Status::Ok();
}

Status BaselineNetwork::AddTgwRoute(TransitGatewayId tgw_id,
                                    const IpPrefix& prefix,
                                    size_t attachment_index) {
  TransitGateway* tgw = FindTgw(tgw_id);
  if (tgw == nullptr) {
    return NotFoundError("no such tgw");
  }
  if (attachment_index >= tgw->attachments().size()) {
    return InvalidArgumentError("bad attachment index");
  }
  tgw->InstallRoute(prefix, attachment_index);
  ledger_->SetParameter("transit-gateway",
                        "static-route " + prefix.ToString());
  return Status::Ok();
}

// --------------------------------------------------------------------------
// Step (4): specialized connections.
// --------------------------------------------------------------------------

Result<DirectConnectId> BaselineNetwork::CreateDirectConnect(
    RegionId region, ExchangeId exchange, double capacity_bps, uint16_t vlan,
    uint32_t bgp_asn, const std::string& name) {
  TN_ASSIGN_OR_RETURN(LinkId circuit,
                      world_->AddDedicatedCircuit(region, exchange,
                                                  capacity_bps));
  DirectConnectId id = dx_ids_.Next();
  SpeakerId speaker = bgp_.AddSpeaker(bgp_asn, name);
  dxs_.emplace(id, DirectConnectConnection{
                       id, region, exchange, circuit, capacity_bps, vlan,
                       bgp_asn, speaker, name,
                       HopLabel::Of("direct-connect:", name),
                       RouteLabels().Intern("exchange:" +
                                            world_->exchange(exchange).name)});
  ledger_->CreateComponent("direct-connect", name);
  ledger_->SetParameter("direct-connect", "port-speed");
  ledger_->SetParameter("direct-connect", "vlan");
  ledger_->SetParameter("direct-connect", "bgp-asn");
  ledger_->SetParameter("direct-connect", "virtual-interface");
  ledger_->Decision("direct-connect", "location-selection");
  ledger_->CrossReference("direct-connect", "exchange-port");
  BumpConfigEpoch();
  return id;
}

Status BaselineNetwork::CrossConnect(DirectConnectId a_id,
                                     DirectConnectId b_id) {
  auto a = dxs_.find(a_id);
  auto b = dxs_.find(b_id);
  if (a == dxs_.end() || b == dxs_.end()) {
    return NotFoundError("no such direct connect");
  }
  if (a->second.exchange != b->second.exchange) {
    return FailedPreconditionError(
        "cross-connect requires circuits at the same exchange");
  }
  TN_RETURN_IF_ERROR(bgp_.AddSession(a->second.speaker, b->second.speaker));
  ledger_->CreateComponent("exchange-cross-connect",
                           a->second.name + "<->" + b->second.name);
  ledger_->SetParameter("exchange-cross-connect", "router-config");
  ledger_->CrossReference("exchange-cross-connect", "circuit-a");
  ledger_->CrossReference("exchange-cross-connect", "circuit-b");
  return Status::Ok();
}

Status BaselineNetwork::CrossConnectToOnPrem(DirectConnectId dx_id,
                                             OnPremId site,
                                             double capacity_bps) {
  auto dit = dxs_.find(dx_id);
  if (dit == dxs_.end()) {
    return NotFoundError("no such direct connect");
  }
  // MPLS circuit from the site to the exchange, if not already present.
  if (on_prem_mpls_.count(site) == 0) {
    TN_ASSIGN_OR_RETURN(LinkId link, world_->AddDedicatedCircuitFromOnPrem(
                                         site, dit->second.exchange,
                                         capacity_bps));
    on_prem_mpls_[site] = link;
    ledger_->CreateComponent("mpls-circuit",
                             world_->on_prem(site).name + "->exchange");
    ledger_->SetParameter("mpls-circuit", "bandwidth");
  }
  SpeakerId site_speaker;
  auto sit = on_prem_speakers_.find(site);
  if (sit == on_prem_speakers_.end()) {
    const OnPremSite& onp = world_->on_prem(site);
    site_speaker = bgp_.AddSpeaker(
        65000 + static_cast<uint32_t>(site.value()), onp.name + ":router");
    TN_RETURN_IF_ERROR(bgp_.Originate(site_speaker, onp.address_space));
    on_prem_speakers_[site] = site_speaker;
    AddKnownPrefix(onp.address_space);
    LabelSite(site);
    ledger_->CreateComponent("customer-gateway", onp.name);
    ledger_->SetParameter("customer-gateway", "bgp-asn");
  } else {
    site_speaker = sit->second;
  }
  TN_RETURN_IF_ERROR(bgp_.AddSession(dit->second.speaker, site_speaker));
  ledger_->CreateComponent("exchange-cross-connect",
                           dit->second.name + "<->on-prem");
  ledger_->CrossReference("exchange-cross-connect", "mpls-circuit");
  return Status::Ok();
}

// --------------------------------------------------------------------------
// Step (5): appliances.
// --------------------------------------------------------------------------

Result<TargetGroupId> BaselineNetwork::CreateTargetGroup(
    const std::string& name, Protocol proto, uint16_t port) {
  TargetGroupId id = tg_ids_.Next();
  target_groups_.emplace(id,
                         std::make_unique<TargetGroup>(id, name, proto, port));
  ledger_->CreateComponent("target-group", name);
  ledger_->SetParameter("target-group", "protocol");
  ledger_->SetParameter("target-group", "port");
  ledger_->SetParameter("target-group", "health-check");
  return id;
}

Status BaselineNetwork::RegisterTarget(TargetGroupId group,
                                       InstanceId instance, double weight) {
  auto it = target_groups_.find(group);
  if (it == target_groups_.end()) {
    return NotFoundError("no such target group");
  }
  if (world_->FindInstance(instance) == nullptr) {
    return NotFoundError("no such instance");
  }
  it->second->AddTarget(instance, weight);
  ledger_->CrossReference("target-group", "registered-target");
  return Status::Ok();
}

Result<LoadBalancerId> BaselineNetwork::CreateLoadBalancer(
    LbType type, const std::string& name, VpcId vpc,
    std::vector<SubnetId> subnets) {
  if (vpcs_.find(vpc) == vpcs_.end()) {
    return NotFoundError("no such vpc");
  }
  LoadBalancerId id = lb_ids_.Next();
  lbs_.emplace(id, std::make_unique<LoadBalancer>(id, type, name, vpc));
  ledger_->CreateComponent(std::string(LbTypeName(type)), name);
  ledger_->Decision("load-balancer", "family-selection(alb/nlb/clb/gwlb)");
  ledger_->CrossReference("load-balancer", "vpc");
  for (size_t i = 0; i < subnets.size(); ++i) {
    ledger_->CrossReference("load-balancer", "subnet/availability-zone");
  }
  ledger_->SetParameter(std::string(LbTypeName(type)), "scheme");
  ledger_->SetParameter(std::string(LbTypeName(type)), "ip-address-type");
  return id;
}

Status BaselineNetwork::AddLbListener(LoadBalancerId lb_id,
                                      LbListener listener) {
  LoadBalancer* lb = FindLoadBalancer(lb_id);
  if (lb == nullptr) {
    return NotFoundError("no such load balancer");
  }
  ledger_->SetParameter(std::string(LbTypeName(lb->type())),
                        "listener:" + std::to_string(listener.port));
  if (listener.default_target.valid()) {
    ledger_->CrossReference("load-balancer", "target-group");
  }
  lb->AddListener(std::move(listener));
  return Status::Ok();
}

Status BaselineNetwork::AddLbRule(LoadBalancerId lb_id, uint16_t port,
                                  L7Rule rule) {
  LoadBalancer* lb = FindLoadBalancer(lb_id);
  if (lb == nullptr) {
    return NotFoundError("no such load balancer");
  }
  ledger_->SetParameter("application-lb", "rule");
  ledger_->CrossReference("load-balancer", "target-group");
  return lb->AddRule(port, std::move(rule));
}

Result<FirewallId> BaselineNetwork::CreateFirewall(const std::string& name,
                                                   double capacity_pps) {
  FirewallId id = firewall_ids_.Next();
  firewalls_.emplace(id,
                     std::make_unique<DpiFirewall>(id, name, capacity_pps));
  firewalls_[id]->AttachRevisionCounter(&config_epoch_);
  ledger_->CreateComponent("dpi-firewall", name);
  ledger_->Decision("dpi-firewall", "vendor-vs-native");
  ledger_->SetParameter("dpi-firewall", "capacity");
  return id;
}

Status BaselineNetwork::AddFirewallRule(FirewallId firewall,
                                        FirewallRule rule) {
  DpiFirewall* fw = FindFirewall(firewall);
  if (fw == nullptr) {
    return NotFoundError("no such firewall");
  }
  ledger_->SetParameter("dpi-firewall", "rule:" + rule.description);
  fw->AddRule(std::move(rule));
  return Status::Ok();
}

Status BaselineNetwork::SetIngressFirewall(VpcId vpc, FirewallId firewall) {
  if (vpcs_.find(vpc) == vpcs_.end()) {
    return NotFoundError("no such vpc");
  }
  if (firewalls_.find(firewall) == firewalls_.end()) {
    return NotFoundError("no such firewall");
  }
  vpc_ingress_firewall_[vpc] = firewall;
  BumpConfigEpoch();
  ledger_->CrossReference("dpi-firewall", "vpc-ingress-steering");
  ledger_->SetParameter("route-table", "firewall-steering-route");
  return Status::Ok();
}

// --------------------------------------------------------------------------
// BGP propagation.
// --------------------------------------------------------------------------

std::unordered_map<uint64_t, size_t> BaselineNetwork::SpeakerAttachments(
    const TransitGateway& tgw) const {
  // Speaker -> attachment index for this TGW: a prefix learned from a
  // session speaker maps to the attachment registered for it.
  std::unordered_map<uint64_t, size_t> by_speaker;
  for (size_t i = 0; i < tgw.attachments().size(); ++i) {
    const TgwAttachment& att = tgw.attachments()[i];
    switch (att.kind) {
      case TgwAttachmentKind::kVpn: {
        auto it = vpns_.find(VpnGatewayId(att.target_id));
        if (it != vpns_.end()) {
          by_speaker[it->second.speaker.value()] = i;
        }
        break;
      }
      case TgwAttachmentKind::kDirectConnect: {
        auto it = dxs_.find(DirectConnectId(att.target_id));
        if (it != dxs_.end()) {
          by_speaker[it->second.speaker.value()] = i;
        }
        break;
      }
      case TgwAttachmentKind::kPeering: {
        auto it = tgws_.find(TransitGatewayId(att.target_id));
        if (it != tgws_.end()) {
          by_speaker[it->second->speaker().value()] = i;
        }
        break;
      }
      case TgwAttachmentKind::kVpc:
        break;  // static routes installed at attach time
    }
  }
  return by_speaker;
}

void BaselineNetwork::ApplyRibDeltas(
    const std::vector<std::vector<RibDelta>>& deltas) {
  for (auto& [tgw_id, tgw] : tgws_) {
    size_t speaker_index = tgw->speaker().value() - 1;
    if (speaker_index >= deltas.size() || deltas[speaker_index].empty()) {
      continue;  // this TGW's RIB did not change: FIB untouched
    }
    std::unordered_map<uint64_t, size_t> by_speaker =
        SpeakerAttachments(*tgw);
    for (const RibDelta& delta : deltas[speaker_index]) {
      if (delta.kind == RibDeltaKind::kWithdrawn) {
        tgw->WithdrawPropagatedRoute(delta.prefix);
        continue;
      }
      const BgpRoute* best = bgp_.BestRoute(tgw->speaker(), delta.prefix);
      if (best == nullptr) {
        continue;
      }
      auto it = best->OriginatedLocally()
                    ? by_speaker.end()
                    : by_speaker.find(best->learned_from.value());
      if (it != by_speaker.end()) {
        tgw->InstallPropagatedRoute(delta.prefix, it->second);
      } else {
        // Best route is now local or via a speaker with no attachment here:
        // a full rebuild would not install it, so neither do we.
        tgw->WithdrawPropagatedRoute(delta.prefix);
      }
    }
  }
}

BgpMesh::ConvergenceStats BaselineNetwork::PropagateRoutes() {
  if (bgp_.in_restart()) {
    return {};  // dead control plane: FIBs keep forwarding their frozen state
  }
  BgpMesh::ConvergenceStats stats = bgp_.Converge();
  // Apply only the prefixes whose best route actually changed. TGWs whose
  // speaker saw no delta keep their FIB (and revision) untouched, so a
  // no-op convergence invalidates nothing downstream.
  ApplyRibDeltas(bgp_.TakeDeltas());
  return stats;
}

BgpMesh::ConvergenceStats BaselineNetwork::PropagateRoutesFull() {
  if (bgp_.in_restart()) {
    return {};  // must not flush FIBs while the control plane is down
  }
  // From-scratch reference: rebuild every RIB, drop every propagated FIB
  // entry, and re-derive each TGW table from its speaker's full Loc-RIB.
  // This is what PropagateRoutes() used to cost on every call; the
  // differential tests assert the incremental path lands on the same bytes.
  BgpMesh::ConvergenceStats stats = bgp_.ConvergeFull();
  (void)bgp_.TakeDeltas();  // superseded by the full re-derivation below
  for (auto& [tgw_id, tgw] : tgws_) {
    tgw->ClearPropagatedRoutes();
    std::unordered_map<uint64_t, size_t> by_speaker =
        SpeakerAttachments(*tgw);
    const std::map<IpPrefix, BgpRoute>* rib = bgp_.LocRib(tgw->speaker());
    for (const auto& [prefix, best] : *rib) {
      if (best.OriginatedLocally()) {
        continue;
      }
      auto it = by_speaker.find(best.learned_from.value());
      if (it != by_speaker.end()) {
        tgw->InstallPropagatedRoute(prefix, it->second);
      }
    }
  }
  return stats;
}

RoutingSnapshot BaselineNetwork::CheckpointRouting() const {
  RoutingSnapshot snap;
  snap.mesh = bgp_.Checkpoint();
  snap.fibs.reserve(tgws_.size());
  for (const auto& [id, tgw] : tgws_) {
    snap.fibs.emplace_back(id, tgw->Routes());
  }
  std::sort(snap.fibs.begin(), snap.fibs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

void BaselineNetwork::RestoreRoutingFromSnapshot(const RoutingSnapshot& snap) {
  bgp_.RestoreFromSnapshot(snap.mesh);
  for (const auto& [id, fib] : snap.fibs) {
    auto it = tgws_.find(id);
    if (it != tgws_.end()) {
      it->second->RestoreRoutes(fib);  // bumps the revision iff changed
    }
  }
}

void BaselineNetwork::BeginRoutingRestart() { bgp_.BeginRestart(); }

uint64_t BaselineNetwork::ReconcileTgwFibs(uint64_t* checked) {
  uint64_t applied = 0;
  for (auto& [tgw_id, tgw] : tgws_) {
    std::unordered_map<uint64_t, size_t> by_speaker = SpeakerAttachments(*tgw);
    const std::map<IpPrefix, BgpRoute>* rib = bgp_.LocRib(tgw->speaker());
    // Derived intent: the propagated entries a full rebuild would install.
    std::unordered_map<IpPrefix, size_t> intended;
    if (rib != nullptr) {
      for (const auto& [prefix, best] : *rib) {
        if (best.OriginatedLocally()) {
          continue;
        }
        auto it = by_speaker.find(best.learned_from.value());
        if (it != by_speaker.end()) {
          intended.emplace(prefix, it->second);
        }
      }
    }
    // Withdraw propagated entries the intent no longer contains.
    for (const auto& [prefix, route] : tgw->Routes()) {
      if (checked != nullptr) {
        ++*checked;
      }
      if (route.origin == TgwRouteOrigin::kPropagated &&
          intended.count(prefix) == 0) {
        applied += tgw->WithdrawPropagatedRoute(prefix) ? 1 : 0;
      }
    }
    // Install/refresh intended entries. Change-only: a FIB entry that
    // already matches bumps no revision, so the verdict generation holds.
    for (const auto& [prefix, attachment] : intended) {
      if (checked != nullptr) {
        ++*checked;
      }
      applied += tgw->InstallPropagatedRoute(prefix, attachment) ? 1 : 0;
    }
  }
  return applied;
}

ReconcileStats BaselineNetwork::CompleteRoutingRestart(
    RestartMode mode, const RoutingSnapshot& snap) {
  if (mode == RestartMode::kCold) {
    ReconcileStats stats = bgp_.EndRestartAndReplay();
    PropagateRoutesFull();
    // Wholesale work: every RIB re-derived, every FIB rewritten.
    stats.deltas_applied = bgp_.TotalRibEntries();
    for (const auto& [id, tgw] : tgws_) {
      stats.deltas_applied += tgw->route_count();
    }
    return stats;
  }
  // Warm: verify retained RIBs against the checkpoint (divergent prefixes
  // queue for re-selection), replay the logged mutations, converge
  // incrementally, and fix only the FIB entries that differ.
  (void)bgp_.ReconcileFromSnapshot(snap.mesh);
  ReconcileStats stats = bgp_.EndRestartAndReplay();
  stats.checked = bgp_.TotalRibEntries() + bgp_.TotalAdjRibInEntries();
  bgp_.Converge();
  std::vector<std::vector<RibDelta>> deltas = bgp_.TakeDeltas();
  for (const std::vector<RibDelta>& d : deltas) {
    stats.deltas_applied += d.size();
  }
  ApplyRibDeltas(deltas);
  stats.deltas_applied += ReconcileTgwFibs(&stats.checked);
  return stats;
}

void BaselineNetwork::AddKnownPrefix(const IpPrefix& prefix) {
  auto pos = std::lower_bound(known_prefixes_.begin(), known_prefixes_.end(),
                              prefix);
  if (pos == known_prefixes_.end() || *pos != prefix) {
    known_prefixes_.insert(pos, prefix);
  }
}

void BaselineNetwork::LabelSite(OnPremId site) {
  if (!site_labels_.contains(site)) {
    site_labels_.emplace(site,
                         RouteLabels().Intern(world_->on_prem(site).name));
  }
}

// --------------------------------------------------------------------------
// Data plane.
// --------------------------------------------------------------------------

std::string Explain(const BaselineDelivery& delivery) {
  return RenderReason(delivery.reason, delivery.effective_src);
}

void BaselineNetwork::Drop(EvalContext& ctx, std::string_view stage,
                           DropReason reason) {
  ctx.delivery.delivered = false;
  ctx.delivery.drop_stage = stage;
  ctx.delivery.reason = reason;
}

bool BaselineNetwork::SgMember(SecurityGroupId group, IpAddress ip) const {
  auto it = eni_by_ip_.find(ip);
  if (it == eni_by_ip_.end()) {
    return false;
  }
  const Eni& eni = *enis_.at(it->second);
  return std::find(eni.security_groups.begin(), eni.security_groups.end(),
                   group) != eni.security_groups.end();
}

const Subnet* BaselineNetwork::SubnetOf(const Eni& eni) const {
  auto it = subnets_.find(eni.subnet);
  return it == subnets_.end() ? nullptr : it->second.get();
}

Vpc* BaselineNetwork::MutableVpc(VpcId id) {
  auto it = vpcs_.find(id);
  return it == vpcs_.end() ? nullptr : it->second.get();
}

void BaselineNetwork::DeliverIntoVpc(EvalContext& ctx, const FiveTuple& flow,
                                     const Eni& dst_eni, bool from_outside_vpc,
                                     std::string_view payload,
                                     VpcId origin_vpc) {
  const Subnet* subnet = SubnetOf(dst_eni);
  const Vpc* vpc = FindVpc(subnet->vpc);

  if (from_outside_vpc) {
    auto fw_it = vpc_ingress_firewall_.find(vpc->id);
    if (fw_it != vpc_ingress_firewall_.end()) {
      DpiFirewall* fw = firewalls_.at(fw_it->second).get();
      ctx.delivery.logical_hops.push_back(fw->label().hop);
      ++ctx.delivery.gateway_hops;
      if (fw->Inspect(flow, payload) == FirewallVerdict::kDeny) {
        Drop(ctx, "firewall", {"denied by {name}", {}, fw->label().name});
        return;
      }
    }
  }

  const NetworkAcl& acl = *acls_.at(subnet->acl);
  if (!acl.Allows(TrafficDirection::kIngress, flow)) {
    Drop(ctx, "acl-ingress", {"denied by {name}", {}, acl.label()});
    return;
  }

  auto membership = [this](SecurityGroupId g, IpAddress ip) {
    return SgMember(g, ip);
  };
  bool sg_ok = false;
  for (SecurityGroupId g : dst_eni.security_groups) {
    if (groups_.at(g)->Allows(TrafficDirection::kIngress, flow, membership)) {
      sg_ok = true;
      break;
    }
  }
  if (!sg_ok) {
    Drop(ctx, "sg-ingress", {"no security group admits the flow"});
    return;
  }

  // Security groups are stateful, network ACLs are not: the response (from
  // the destination's ephemeral side back to the source) must separately
  // clear the subnet ACL in the egress direction — the classic stateless
  // return-path trap.
  if (!acl.Allows(TrafficDirection::kEgress, Reverse(flow))) {
    Drop(ctx, "acl-return",
         {"response blocked by stateless {name} (egress direction)", {},
          acl.label()});
    return;
  }

  (void)origin_vpc;
  const Instance* inst = world_->FindInstance(dst_eni.instance);
  ctx.delivery.delivered = true;
  ctx.delivery.dst_node = inst->host_node;
  ctx.delivery.effective_dst = flow.dst;
}

void BaselineNetwork::RouteAndDeliver(EvalContext& ctx, const FiveTuple& flow,
                                      VpcId src_vpc, SubnetId src_subnet,
                                      std::string_view payload) {
  if (--ctx.budget < 0) {
    Drop(ctx, "loop", {"gateway traversal budget exhausted"});
    return;
  }
  const Subnet& subnet = *subnets_.at(src_subnet);
  const VpcRouteTable& table = *tables_.at(subnet.route_table);
  const VpcRouteTarget* target = table.Lookup(flow.dst);
  if (target == nullptr ||
      target->kind == VpcRouteTargetKind::kBlackhole) {
    Drop(ctx, "route", {"no route to {ip} in {name}", flow.dst, table.label()});
    return;
  }

  switch (target->kind) {
    case VpcRouteTargetKind::kLocal: {
      auto it = eni_by_ip_.find(flow.dst);
      if (it == eni_by_ip_.end()) {
        Drop(ctx, "local", {"no NIC holds {ip}", flow.dst});
        return;
      }
      const Eni& dst_eni = *enis_.at(it->second);
      if (SubnetOf(dst_eni)->vpc != src_vpc) {
        Drop(ctx, "local", {"local route but destination in another VPC"});
        return;
      }
      ctx.delivery.egress_policy = EgressPolicy::kColdPotato;
      DeliverIntoVpc(ctx, flow, dst_eni, /*from_outside_vpc=*/false, payload,
                     src_vpc);
      return;
    }

    case VpcRouteTargetKind::kPeering: {
      auto pit = peerings_.find(PeeringId(target->target_id));
      if (pit == peerings_.end() || !pit->second.accepted) {
        Drop(ctx, "peering", {"peering missing or not accepted"});
        return;
      }
      const VpcPeering& peering = pit->second;
      VpcId far_vpc = peering.requester == src_vpc ? peering.accepter
                                                   : peering.requester;
      ctx.delivery.logical_hops.push_back(peering.label.hop);
      ++ctx.delivery.gateway_hops;
      auto it = eni_by_ip_.find(flow.dst);
      if (it == eni_by_ip_.end()) {
        Drop(ctx, "peering", {"no NIC holds {ip}", flow.dst});
        return;
      }
      const Eni& dst_eni = *enis_.at(it->second);
      const Subnet* dst_subnet = SubnetOf(dst_eni);
      if (dst_subnet->vpc != far_vpc) {
        Drop(ctx, "peering", {"destination not in the peered VPC"});
        return;
      }
      // Peering is only useful if the far side also routes back.
      const VpcRouteTable& far_table = *tables_.at(dst_subnet->route_table);
      const VpcRouteTarget* back = far_table.Lookup(flow.src);
      if (back == nullptr || back->kind != VpcRouteTargetKind::kPeering ||
          back->target_id != peering.id.value()) {
        Drop(ctx, "return-route",
             {"far VPC has no return route over {name}", {},
              peering.label.name});
        return;
      }
      ctx.delivery.egress_policy = EgressPolicy::kColdPotato;
      DeliverIntoVpc(ctx, flow, dst_eni, /*from_outside_vpc=*/true, payload,
                     src_vpc);
      return;
    }

    case VpcRouteTargetKind::kTransitGateway: {
      TransitGatewayId tgw_id(target->target_id);
      // Walk TGW hops (regional TGWs may peer across regions).
      while (ctx.budget-- > 0) {
        TransitGateway* tgw = FindTgw(tgw_id);
        if (tgw == nullptr) {
          Drop(ctx, "tgw", {"dangling transit gateway reference"});
          return;
        }
        ctx.delivery.logical_hops.push_back(tgw->label().hop);
        ++ctx.delivery.gateway_hops;
        const TgwRoute* tgw_route = tgw->Lookup(flow.dst);
        if (tgw_route == nullptr) {
          Drop(ctx, "tgw-route",
               {"{name} has no route to {ip}", flow.dst, tgw->label().name});
          return;
        }
        const TgwAttachment& att = tgw->attachments()[tgw_route->attachment];
        switch (att.kind) {
          case TgwAttachmentKind::kVpc: {
            auto it = eni_by_ip_.find(flow.dst);
            if (it == eni_by_ip_.end()) {
              Drop(ctx, "tgw", {"no NIC holds {ip}", flow.dst});
              return;
            }
            const Eni& dst_eni = *enis_.at(it->second);
            const Subnet* dst_subnet = SubnetOf(dst_eni);
            if (dst_subnet->vpc != VpcId(att.target_id)) {
              Drop(ctx, "tgw", {"attachment VPC does not hold destination"});
              return;
            }
            const VpcRouteTable& far_table =
                *tables_.at(dst_subnet->route_table);
            const VpcRouteTarget* back = far_table.Lookup(flow.src);
            if (back == nullptr ||
                back->kind == VpcRouteTargetKind::kBlackhole) {
              Drop(ctx, "return-route",
                   {"destination VPC has no return route to {ip}", flow.src});
              return;
            }
            ctx.delivery.egress_policy = EgressPolicy::kColdPotato;
            DeliverIntoVpc(ctx, flow, dst_eni, /*from_outside_vpc=*/true,
                           payload, src_vpc);
            return;
          }
          case TgwAttachmentKind::kPeering: {
            tgw_id = TransitGatewayId(att.target_id);
            continue;  // hop to the peer TGW
          }
          case TgwAttachmentKind::kVpn: {
            auto vit = vpns_.find(VpnGatewayId(att.target_id));
            if (vit == vpns_.end()) {
              Drop(ctx, "tgw", {"dangling VPN attachment"});
              return;
            }
            ctx.delivery.logical_hops.push_back(vit->second.label.hop);
            ++ctx.delivery.gateway_hops;
            DeliverToOnPrem(ctx, flow, vit->second.remote_site,
                            EgressPolicy::kHotPotato);
            return;
          }
          case TgwAttachmentKind::kDirectConnect: {
            DeliverViaDirectConnect(ctx, flow,
                                    DirectConnectId(att.target_id), payload);
            return;
          }
        }
      }
      Drop(ctx, "loop", {"TGW hop budget exhausted"});
      return;
    }

    case VpcRouteTargetKind::kVpnGateway: {
      auto vit = vpns_.find(VpnGatewayId(target->target_id));
      if (vit == vpns_.end()) {
        Drop(ctx, "vpn", {"dangling VPN gateway reference"});
        return;
      }
      const VpnGateway& vpn = vit->second;
      ctx.delivery.logical_hops.push_back(vpn.label.hop);
      ++ctx.delivery.gateway_hops;
      // BGP must have taught the VPG a route (tenant ran PropagateRoutes and
      // the customer gateway advertises the site space).
      const BgpRoute* learned = bgp_.BestRoute(vpn.speaker, RouteForDst(flow.dst));
      if (learned == nullptr || learned->OriginatedLocally()) {
        Drop(ctx, "bgp", {"{name} has not learned a route to {ip}", flow.dst,
                          vpn.label.name});
        return;
      }
      DeliverToOnPrem(ctx, flow, vpn.remote_site, EgressPolicy::kHotPotato);
      return;
    }

    case VpcRouteTargetKind::kNatGateway: {
      auto nit = nats_.find(NatGatewayId(target->target_id));
      if (nit == nats_.end()) {
        Drop(ctx, "nat", {"dangling NAT gateway reference"});
        return;
      }
      const NatGateway& nat = nit->second;
      ctx.delivery.logical_hops.push_back(nat.label.hop);
      ++ctx.delivery.gateway_hops;
      FiveTuple translated = flow;
      translated.src = nat.public_ip;
      ctx.delivery.effective_src = nat.public_ip;
      // Continue from the NAT's own (public) subnet.
      const Subnet& nat_subnet = *subnets_.at(nat.subnet);
      RouteAndDeliver(ctx, translated, nat_subnet.vpc, nat.subnet, payload);
      return;
    }

    case VpcRouteTargetKind::kInternetGateway:
    case VpcRouteTargetKind::kEgressOnlyIgw: {
      ctx.delivery.used_public_path = true;
      ctx.delivery.egress_policy = EgressPolicy::kHotPotato;
      ctx.delivery.logical_hops.push_back(
          target->kind == VpcRouteTargetKind::kInternetGateway
              ? igw_hop_
              : egress_igw_hop_);
      ++ctx.delivery.gateway_hops;
      // Crossing an IGW requires a public source address.
      const Eni* src_eni_for_ip = nullptr;
      auto sit = eni_by_ip_.find(flow.src);
      if (sit != eni_by_ip_.end()) {
        src_eni_for_ip = enis_.at(sit->second).get();
      }
      bool src_is_public =
          (src_eni_for_ip == nullptr) ||  // already NAT-translated
          (src_eni_for_ip->public_ip.has_value() &&
           *src_eni_for_ip->public_ip == flow.src);
      if (!src_is_public) {
        Drop(ctx, "igw",
             {"private source cannot cross an internet gateway (needs NAT or "
              "a public IP)"});
        return;
      }
      DeliverFromInternet(ctx, flow, payload);
      return;
    }

    case VpcRouteTargetKind::kBlackhole:
      Drop(ctx, "route", {"blackhole route"});
      return;
  }
}

// Delivery of a public-internet flow toward whatever the destination address
// names: a tenant NIC's public IP, an on-prem site, or nothing.
void BaselineNetwork::DeliverFromInternet(EvalContext& ctx,
                                          const FiveTuple& flow,
                                          std::string_view payload) {
  auto it = eni_by_ip_.find(flow.dst);
  if (it != eni_by_ip_.end()) {
    const Eni& dst_eni = *enis_.at(it->second);
    if (!dst_eni.public_ip.has_value() || *dst_eni.public_ip != flow.dst) {
      Drop(ctx, "internet", {"destination address is not publicly routable"});
      return;
    }
    const Subnet* dst_subnet = SubnetOf(dst_eni);
    const Vpc* dst_vpc = FindVpc(dst_subnet->vpc);
    // The destination VPC needs an IGW and the subnet a route through it.
    if (igw_by_vpc_.count(dst_vpc->id) == 0) {
      Drop(ctx, "internet", {"destination VPC has no internet gateway"});
      return;
    }
    const VpcRouteTable& far_table = *tables_.at(dst_subnet->route_table);
    const VpcRouteTarget* back = far_table.Lookup(flow.src);
    if (back == nullptr ||
        (back->kind != VpcRouteTargetKind::kInternetGateway &&
         back->kind != VpcRouteTargetKind::kNatGateway)) {
      Drop(ctx, "return-route",
           {"destination subnet is not public (no IGW return route)"});
      return;
    }
    ctx.delivery.used_public_path = true;
    DeliverIntoVpc(ctx, flow, dst_eni, /*from_outside_vpc=*/true, payload,
                   VpcId());
    return;
  }
  // On-prem public exposure is not modeled (sites are private).
  for (const auto& [site, pool] : on_prem_pools_) {
    if (world_->on_prem(site).address_space.Contains(flow.dst)) {
      Drop(ctx, "internet",
           {"on-prem addresses are private; internet path cannot reach them"});
      return;
    }
  }
  Drop(ctx, "internet", {"no tenant endpoint holds {ip}", flow.dst});
}

void BaselineNetwork::DeliverToOnPrem(EvalContext& ctx, const FiveTuple& flow,
                                      OnPremId site, EgressPolicy policy) {
  const OnPremSite& onp = world_->on_prem(site);
  if (!onp.address_space.Contains(flow.dst)) {
    Drop(ctx, "on-prem",
         {"{ip} is outside {name}'s space", flow.dst, site_labels_.at(site)});
    return;
  }
  // Find the instance holding the address.
  for (const auto& [instance, addr] : on_prem_addrs_) {
    if (addr == flow.dst) {
      const Instance* inst = world_->FindInstance(instance);
      if (inst == nullptr || !inst->running) {
        break;
      }
      ctx.delivery.delivered = true;
      ctx.delivery.dst_node = inst->host_node;
      ctx.delivery.effective_dst = flow.dst;
      ctx.delivery.egress_policy = policy;
      return;
    }
  }
  Drop(ctx, "on-prem", {"no on-prem host holds {ip}", flow.dst});
}

void BaselineNetwork::DeliverViaDirectConnect(EvalContext& ctx,
                                              const FiveTuple& flow,
                                              DirectConnectId dx_id,
                                              std::string_view payload) {
  if (--ctx.budget < 0) {
    Drop(ctx, "loop", {"gateway traversal budget exhausted"});
    return;
  }
  auto dit = dxs_.find(dx_id);
  if (dit == dxs_.end()) {
    Drop(ctx, "dx", {"dangling direct connect reference"});
    return;
  }
  const DirectConnectConnection& dx = dit->second;
  ctx.delivery.logical_hops.push_back(dx.label.hop);
  ++ctx.delivery.gateway_hops;
  ctx.delivery.egress_policy = EgressPolicy::kDedicated;

  const BgpRoute* best = bgp_.BestRoute(dx.speaker, RouteForDst(flow.dst));
  if (best == nullptr || best->OriginatedLocally()) {
    Drop(ctx, "bgp",
         {"{name} has not learned a route to {ip}", flow.dst, dx.label.name});
    return;
  }
  SpeakerId next = best->learned_from;
  // On-prem router on the far side of the exchange?
  for (const auto& [site, speaker] : on_prem_speakers_) {
    if (speaker == next) {
      ctx.delivery.logical_hops.push_back(dx.exchange_hop);
      DeliverToOnPrem(ctx, flow, site, EgressPolicy::kDedicated);
      return;
    }
  }
  // The circuit's own transit gateway (traffic entering the cloud from the
  // exchange side, e.g. on-prem -> cloud)?
  for (const auto& [tgw_id, tgw] : tgws_) {
    if (tgw->speaker() != next) {
      continue;
    }
    ctx.delivery.logical_hops.push_back(tgw->label().hop);
    ++ctx.delivery.gateway_hops;
    const TgwRoute* tgw_route = tgw->Lookup(flow.dst);
    if (tgw_route == nullptr) {
      Drop(ctx, "tgw-route",
           {"{name} has no route to {ip}", flow.dst, tgw->label().name});
      return;
    }
    const TgwAttachment& att = tgw->attachments()[tgw_route->attachment];
    if (att.kind != TgwAttachmentKind::kVpc) {
      Drop(ctx, "dx", {"circuit chain deeper than one hop is not modeled"});
      return;
    }
    auto it = eni_by_ip_.find(flow.dst);
    if (it == eni_by_ip_.end()) {
      Drop(ctx, "dx", {"no NIC holds {ip}", flow.dst});
      return;
    }
    const Eni& dst_eni = *enis_.at(it->second);
    const Subnet* dst_subnet = SubnetOf(dst_eni);
    const VpcRouteTable& far_table = *tables_.at(dst_subnet->route_table);
    const VpcRouteTarget* back = far_table.Lookup(flow.src);
    if (back == nullptr || back->kind == VpcRouteTargetKind::kBlackhole) {
      Drop(ctx, "return-route",
           {"destination VPC has no return route to {ip}", flow.src});
      return;
    }
    DeliverIntoVpc(ctx, flow, dst_eni, /*from_outside_vpc=*/true, payload,
                   VpcId());
    return;
  }
  // Another circuit (the other cloud's side)?
  for (const auto& [other_id, other] : dxs_) {
    if (other.speaker == next) {
      ctx.delivery.logical_hops.push_back(dx.exchange_hop);
      auto tit = tgw_by_dx_.find(other_id);
      if (tit == tgw_by_dx_.end()) {
        Drop(ctx, "dx",
             {"{name} is not attached to a transit gateway", {},
              other.label.name});
        return;
      }
      // Continue from the far TGW.
      TransitGateway* tgw = FindTgw(tit->second);
      ctx.delivery.logical_hops.push_back(other.label.hop);
      ctx.delivery.logical_hops.push_back(tgw->label().hop);
      ctx.delivery.gateway_hops += 3;
      const TgwRoute* tgw_route = tgw->Lookup(flow.dst);
      if (tgw_route == nullptr) {
        Drop(ctx, "tgw-route",
             {"{name} has no route to {ip}", flow.dst, tgw->label().name});
        return;
      }
      const TgwAttachment& att = tgw->attachments()[tgw_route->attachment];
      if (att.kind != TgwAttachmentKind::kVpc) {
        Drop(ctx, "dx", {"circuit chain deeper than one hop is not modeled"});
        return;
      }
      auto it = eni_by_ip_.find(flow.dst);
      if (it == eni_by_ip_.end()) {
        Drop(ctx, "dx", {"no NIC holds {ip}", flow.dst});
        return;
      }
      const Eni& dst_eni = *enis_.at(it->second);
      DeliverIntoVpc(ctx, flow, dst_eni, /*from_outside_vpc=*/true, payload,
                     VpcId());
      return;
    }
  }
  Drop(ctx, "dx", {"no exchange party owns the learned route"});
}

// For VPG/DX RIB lookups we need the covering prefix of a destination among
// the prefixes the mesh knows.
IpPrefix BaselineNetwork::RouteForDst(IpAddress dst) const {
  IpPrefix best = IpPrefix::Any(dst.family());
  int best_len = -1;
  for (const IpPrefix& p : known_prefixes_) {
    if (p.Contains(dst) && p.length() > best_len) {
      best = p;
      best_len = p.length();
    }
  }
  return best;
}

Result<BaselineDelivery> BaselineNetwork::Evaluate(InstanceId src,
                                                   InstanceId dst,
                                                   uint16_t dst_port,
                                                   Protocol proto,
                                                   std::string_view payload) {
  const Instance* src_inst = world_->FindInstance(src);
  const Instance* dst_inst = world_->FindInstance(dst);
  if (src_inst == nullptr || dst_inst == nullptr) {
    return NotFoundError("unknown instance");
  }
  if (!src_inst->running || !dst_inst->running) {
    return FailedPreconditionError("instance is not running");
  }

  EvalContext ctx;
  ctx.delivery.src_node = src_inst->host_node;

  // --- Resolve the source side and the address the app would dial. ---------
  const bool src_on_prem = src_inst->on_prem.valid();
  const bool dst_on_prem = dst_inst->on_prem.valid();

  // Destination addressing.
  IpAddress dst_private;
  const Eni* dst_eni = nullptr;
  if (dst_on_prem) {
    auto it = on_prem_addrs_.find(dst);
    if (it == on_prem_addrs_.end()) {
      return FailedPreconditionError(
          "on-prem destination has no address (AttachOnPremInstance)");
    }
    dst_private = it->second;
  } else {
    dst_eni = FindEniByInstance(dst);
    if (dst_eni == nullptr) {
      return FailedPreconditionError(
          "destination instance has no ENI (AttachInstance)");
    }
    dst_private = dst_eni->private_ip;
  }

  FiveTuple flow;
  flow.proto = proto;
  flow.dst_port = dst_port;
  flow.src_port = 40000 + static_cast<uint16_t>(src.value() % 20000);

  if (src_on_prem) {
    auto ait = on_prem_addrs_.find(src);
    if (ait == on_prem_addrs_.end()) {
      return FailedPreconditionError(
          "on-prem source has no address (AttachOnPremInstance)");
    }
    flow.src = ait->second;
    ctx.delivery.effective_src = flow.src;

    if (dst_on_prem) {
      if (src_inst->on_prem == dst_inst->on_prem) {
        flow.dst = dst_private;
        DeliverToOnPrem(ctx, flow, dst_inst->on_prem,
                        EgressPolicy::kColdPotato);
        return ctx.delivery;
      }
      Drop(ctx, "route", {"no connectivity between distinct on-prem sites"});
      return ctx.delivery;
    }

    // On-prem -> cloud: use the site's BGP view; private entry if a VPG/DX
    // advertised the destination VPC, otherwise the public internet.
    auto spk_it = on_prem_speakers_.find(src_inst->on_prem);
    const BgpRoute* learned =
        spk_it == on_prem_speakers_.end()
            ? nullptr
            : bgp_.BestRoute(spk_it->second, RouteForDst(dst_private));
    if (learned != nullptr && !learned->OriginatedLocally()) {
      flow.dst = dst_private;
      ctx.delivery.effective_dst = dst_private;
      SpeakerId next = learned->learned_from;
      // Through a VPN gateway into its VPC?
      for (const auto& [vid, vpn] : vpns_) {
        if (vpn.speaker == next) {
          ctx.delivery.logical_hops.push_back(vpn.label.hop);
          ++ctx.delivery.gateway_hops;
          ctx.delivery.egress_policy = EgressPolicy::kHotPotato;
          const Subnet* dsn = SubnetOf(*dst_eni);
          if (dsn->vpc != vpn.vpc) {
            Drop(ctx, "vpn",
                 {"VPN lands in a different VPC than destination"});
            return ctx.delivery;
          }
          const VpcRouteTable& far_table = *tables_.at(dsn->route_table);
          const VpcRouteTarget* back = far_table.Lookup(flow.src);
          if (back == nullptr ||
              back->kind == VpcRouteTargetKind::kBlackhole) {
            Drop(ctx, "return-route",
                 {"destination VPC has no return route to on-prem"});
            return ctx.delivery;
          }
          DeliverIntoVpc(ctx, flow, *dst_eni, /*from_outside_vpc=*/true,
                         payload, VpcId());
          return ctx.delivery;
        }
      }
      // Through a circuit?
      for (const auto& [did, dx] : dxs_) {
        if (dx.speaker == next) {
          DeliverViaDirectConnect(ctx, flow, did, payload);
          return ctx.delivery;
        }
      }
      Drop(ctx, "bgp", {"learned route maps to no gateway"});
      return ctx.delivery;
    }
    // Public fallback.
    if (dst_eni != nullptr && dst_eni->public_ip.has_value()) {
      flow.dst = *dst_eni->public_ip;
      ctx.delivery.used_public_path = true;
      ctx.delivery.egress_policy = EgressPolicy::kHotPotato;
      DeliverFromInternet(ctx, flow, payload);
      return ctx.delivery;
    }
    Drop(ctx, "route", {"on-prem source has no route to destination"});
    return ctx.delivery;
  }

  // Cloud source.
  const Eni* src_eni = FindEniByInstance(src);
  if (src_eni == nullptr) {
    return FailedPreconditionError(
        "source instance has no ENI (AttachInstance)");
  }
  const Subnet* src_subnet = SubnetOf(*src_eni);
  flow.src = src_eni->private_ip;
  ctx.delivery.effective_src = flow.src;

  // Which destination address would the app dial? Private if the source
  // route table knows a private path; otherwise the public address.
  const VpcRouteTable& src_table = *tables_.at(src_subnet->route_table);
  const VpcRouteTarget* private_route = src_table.Lookup(dst_private);
  bool private_viable =
      private_route != nullptr &&
      private_route->kind != VpcRouteTargetKind::kBlackhole &&
      private_route->kind != VpcRouteTargetKind::kInternetGateway &&
      private_route->kind != VpcRouteTargetKind::kEgressOnlyIgw &&
      private_route->kind != VpcRouteTargetKind::kNatGateway;
  // A "local" route only helps if the destination really is local.
  if (private_viable &&
      private_route->kind == VpcRouteTargetKind::kLocal &&
      (dst_on_prem || SubnetOf(*dst_eni)->vpc != src_subnet->vpc)) {
    private_viable = false;
  }

  if (private_viable) {
    flow.dst = dst_private;
  } else if (!dst_on_prem && dst_eni->public_ip.has_value()) {
    flow.dst = *dst_eni->public_ip;
  } else if (dst_on_prem) {
    // On-prem can only be reached privately.
    flow.dst = dst_private;
  } else {
    Drop(ctx, "route",
         {"no private route and destination has no public address"});
    return ctx.delivery;
  }
  ctx.delivery.effective_dst = flow.dst;

  // Source-side checks.
  auto membership = [this](SecurityGroupId g, IpAddress ip) {
    return SgMember(g, ip);
  };
  bool sg_ok = false;
  for (SecurityGroupId g : src_eni->security_groups) {
    if (groups_.at(g)->Allows(TrafficDirection::kEgress, flow, membership)) {
      sg_ok = true;
      break;
    }
  }
  if (!sg_ok) {
    Drop(ctx, "sg-egress", {"no security group allows the egress flow"});
    return ctx.delivery;
  }
  const NetworkAcl& src_acl = *acls_.at(src_subnet->acl);
  if (!src_acl.Allows(TrafficDirection::kEgress, flow)) {
    Drop(ctx, "acl-egress", {"denied by {name}", {}, src_acl.label()});
    return ctx.delivery;
  }

  RouteAndDeliver(ctx, flow, src_subnet->vpc, src_subnet->id, payload);
  return ctx.delivery;
}

BaselineDelivery BaselineNetwork::EvaluateExternal(IpAddress src,
                                                   IpAddress dst,
                                                   uint16_t dst_port,
                                                   Protocol proto,
                                                   std::string_view payload) {
  EvalContext ctx;
  FiveTuple flow;
  flow.src = src;
  flow.dst = dst;
  flow.src_port = 55555;
  flow.dst_port = dst_port;
  flow.proto = proto;
  ctx.delivery.effective_src = src;
  ctx.delivery.effective_dst = dst;
  ctx.delivery.used_public_path = true;
  ctx.delivery.egress_policy = EgressPolicy::kHotPotato;
  DeliverFromInternet(ctx, flow, payload);
  return ctx.delivery;
}

Result<InstanceId> BaselineNetwork::ResolveThroughLoadBalancer(
    LoadBalancerId lb_id, const FiveTuple& flow, const HttpRequestMeta* meta) {
  LoadBalancer* lb = FindLoadBalancer(lb_id);
  if (lb == nullptr) {
    return NotFoundError("no such load balancer");
  }
  TN_ASSIGN_OR_RETURN(TargetGroupId tg_id, lb->Resolve(flow, meta));
  TargetGroup* tg = FindTargetGroup(tg_id);
  if (tg == nullptr) {
    return NotFoundError("listener references a missing target group");
  }
  return tg->Pick(lb_pick_seq_++);
}

// --------------------------------------------------------------------------
// Lookups and counts.
// --------------------------------------------------------------------------

const Vpc* BaselineNetwork::FindVpc(VpcId id) const {
  auto it = vpcs_.find(id);
  return it == vpcs_.end() ? nullptr : it->second.get();
}
const Subnet* BaselineNetwork::FindSubnet(SubnetId id) const {
  auto it = subnets_.find(id);
  return it == subnets_.end() ? nullptr : it->second.get();
}
const Eni* BaselineNetwork::FindEniByInstance(InstanceId id) const {
  auto it = eni_by_instance_.find(id);
  if (it == eni_by_instance_.end()) {
    return nullptr;
  }
  return enis_.at(it->second).get();
}
const Eni* BaselineNetwork::FindEniByIp(IpAddress ip) const {
  auto it = eni_by_ip_.find(ip);
  if (it == eni_by_ip_.end()) {
    return nullptr;
  }
  return enis_.at(it->second).get();
}
SecurityGroup* BaselineNetwork::FindSecurityGroup(SecurityGroupId id) {
  auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : it->second.get();
}
VpcRouteTable* BaselineNetwork::FindRouteTable(VpcRouteTableId id) {
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}
std::vector<VpcRouteTableId> BaselineNetwork::AllRouteTables() const {
  std::vector<VpcRouteTableId> out;
  out.reserve(tables_.size());
  for (const auto& [id, table] : tables_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}
std::vector<SecurityGroupId> BaselineNetwork::AllSecurityGroups() const {
  std::vector<SecurityGroupId> out;
  out.reserve(groups_.size());
  for (const auto& [id, group] : groups_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TargetGroup* BaselineNetwork::FindTargetGroup(TargetGroupId id) {
  auto it = target_groups_.find(id);
  return it == target_groups_.end() ? nullptr : it->second.get();
}
LoadBalancer* BaselineNetwork::FindLoadBalancer(LoadBalancerId id) {
  auto it = lbs_.find(id);
  return it == lbs_.end() ? nullptr : it->second.get();
}
DpiFirewall* BaselineNetwork::FindFirewall(FirewallId id) {
  auto it = firewalls_.find(id);
  return it == firewalls_.end() ? nullptr : it->second.get();
}
TransitGateway* BaselineNetwork::FindTgw(TransitGatewayId id) {
  auto it = tgws_.find(id);
  return it == tgws_.end() ? nullptr : it->second.get();
}

size_t BaselineNetwork::gateway_count() const {
  return igws_.size() + egress_igws_.size() + nats_.size() + vpns_.size() +
         tgws_.size() + dxs_.size();
}

size_t BaselineNetwork::appliance_count() const {
  return lbs_.size() + firewalls_.size();
}

size_t BaselineNetwork::tgw_attachment_count() const {
  size_t total = 0;
  for (const auto& [id, tgw] : tgws_) {
    total += tgw->attachments().size();
  }
  return total;
}

}  // namespace tenantnet
