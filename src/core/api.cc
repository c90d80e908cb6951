#include "src/core/api.h"

#include <algorithm>
#include <cassert>

namespace tenantnet {

namespace {

// The next version of a sorted member set, built with one copy: with `eip`
// inserted, or null if it already is a member ...
MemberSnapshot WithMember(const MemberSnapshot& members, IpAddress eip) {
  auto pos = std::lower_bound(members->begin(), members->end(), eip);
  if (pos != members->end() && *pos == eip) {
    return nullptr;
  }
  std::vector<IpAddress> next;
  next.reserve(members->size() + 1);
  next.insert(next.end(), members->begin(), pos);
  next.push_back(eip);
  next.insert(next.end(), pos, members->end());
  return std::make_shared<const std::vector<IpAddress>>(std::move(next));
}

// ... or with `eip` erased, or null if it is not a member.
MemberSnapshot WithoutMember(const MemberSnapshot& members, IpAddress eip) {
  auto pos = std::lower_bound(members->begin(), members->end(), eip);
  if (pos == members->end() || *pos != eip) {
    return nullptr;
  }
  std::vector<IpAddress> next;
  next.reserve(members->size() - 1);
  next.insert(next.end(), members->begin(), pos);
  next.insert(next.end(), pos + 1, members->end());
  return std::make_shared<const std::vector<IpAddress>>(std::move(next));
}

}  // namespace

DeclarativeCloud::DeclarativeCloud(CloudWorld& world, ConfigLedger& ledger,
                                   EventQueue* queue,
                                   DeclarativeParams params)
    : world_(&world), ledger_(&ledger), queue_(queue), params_(params),
      qos_(params.quota) {}

DeclarativeCloud::ProviderState& DeclarativeCloud::Provider(ProviderId id) {
  auto it = providers_.find(id);
  if (it != providers_.end()) {
    return it->second;
  }
  const ProviderSite& site = world_->provider(id);
  ProviderState state;
  // The provider's public space is split: front half for EIPs, back half
  // for SIPs (a provider implementation detail tenants never see).
  auto halves = site.address_space.Split();
  assert(halves.ok());
  // Lowest-first reuse keeps the live EIP range dense, which is what lets
  // the provider aggregate its table under churn (E4a's ablation).
  state.eip_pool = std::make_unique<HostAllocator>(
      halves->first, HostAllocator::ReusePolicy::kLowestFirst);
  state.sip_pool = std::make_unique<HostAllocator>(halves->second);
  state.filters = std::make_unique<EdgeFilterBank>(
      site.name, queue_, params_.rng_seed ^ id.value(), params_.filter);
  for (RegionId region_id : site.regions) {
    const RegionSite& region = world_->region(region_id);
    size_t edge = state.filters->AddEdge(site.name + ":" + region.name);
    state.edge_index[region_id] = edge;
    // Quota enforcement points: one per zone of each region.
    for (const ZoneSite& zone : region.zones) {
      qos_.RegisterPoint(region_id, zone.name);
    }
  }
  // Late-created domains replay existing group state.
  for (const auto& [group, record] : groups_) {
    state.filters->SetGroupSnapshot(group, record.members);
  }
  return providers_.emplace(id, std::move(state)).first->second;
}

DeclarativeCloud::OnPremState& DeclarativeCloud::OnPrem(OnPremId id) {
  auto it = on_prems_.find(id);
  if (it != on_prems_.end()) {
    return it->second;
  }
  const OnPremSite& site = world_->on_prem(id);
  OnPremState state;
  // Public default-off space for the site's endpoints (its ISP block).
  IpPrefix pool = *IpPrefix::Create(
      IpAddress::V4(198, 51, static_cast<uint8_t>(id.value() % 256), 0), 24);
  state.eip_pool = std::make_unique<HostAllocator>(
      pool, HostAllocator::ReusePolicy::kLowestFirst);
  state.filters = std::make_unique<EdgeFilterBank>(
      site.name, queue_, params_.rng_seed ^ (id.value() << 32),
      params_.filter);
  state.filters->AddEdge(site.name + ":router");
  for (const auto& [group, record] : groups_) {
    state.filters->SetGroupSnapshot(group, record.members);
  }
  return on_prems_.emplace(id, std::move(state)).first->second;
}

// --------------------------------------------------------------------------
// Table 2.
// --------------------------------------------------------------------------

Result<IpAddress> DeclarativeCloud::RequestEip(InstanceId vm) {
  const Instance* inst = world_->FindInstance(vm);
  if (inst == nullptr || !inst->running) {
    return NotFoundError("no such running instance");
  }
  if (eip_by_instance_.count(vm) > 0) {
    return AlreadyExistsError("instance already has an EIP");
  }

  EipRecord record;
  record.instance = vm;
  record.tenant = inst->tenant;
  record.host_node = inst->host_node;
  record.zone_index = inst->zone_index;

  if (inst->on_prem.valid()) {
    record.on_prem = inst->on_prem;
    OnPremState& site = OnPrem(inst->on_prem);
    TN_ASSIGN_OR_RETURN(record.addr, site.eip_pool->Allocate());
  } else {
    record.provider = inst->provider;
    record.region = inst->region;
    ProviderState& provider = Provider(inst->provider);
    TN_ASSIGN_OR_RETURN(record.addr, provider.eip_pool->Allocate());
    // The provider carries a host route; how it aggregates is its business.
    if (provider.rib.Install(
            IpPrefix::Host(record.addr),
            RouteEntry{world_->region(inst->region).edge_node,
                       RouteOrigin::kLocal, 0, RouteLabels().Intern("eip")})) {
      ++provider.rib_revision;
    }
  }

  ledger_->ApiCall("request_eip", "vm=" + std::to_string(vm.value()));
  IpAddress addr = record.addr;
  eips_.emplace(addr, record);
  eip_by_instance_[vm] = addr;
  ++endpoint_revision_;
  return addr;
}

Status DeclarativeCloud::ReleaseEip(IpAddress eip) {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  const EipRecord& record = it->second;
  if (record.on_prem.valid()) {
    OnPremState& site = OnPrem(record.on_prem);
    site.filters->RemovePermitList(eip);
    TN_RETURN_IF_ERROR(site.eip_pool->Release(eip));
  } else {
    ProviderState& provider = Provider(record.provider);
    provider.filters->RemovePermitList(eip);
    TN_RETURN_IF_ERROR(provider.rib.Withdraw(IpPrefix::Host(eip)));
    ++provider.rib_revision;
    TN_RETURN_IF_ERROR(provider.eip_pool->Release(eip));
  }
  sip_lb_.UnbindEverywhere(eip);
  // Drop the address from any groups it belonged to (provider-side
  // hygiene: a recycled address must not inherit old permissions).
  for (auto& [group, record] : groups_) {
    if (MemberSnapshot next = WithoutMember(record.members, eip)) {
      PropagateGroup(group, record, std::move(next));
    }
  }
  eip_by_instance_.erase(record.instance);
  eips_.erase(it);
  ledger_->ApiCall("release_eip", eip.ToString());
  ++endpoint_revision_;
  return Status::Ok();
}

Result<IpAddress> DeclarativeCloud::RequestSip(TenantId tenant,
                                               ProviderId provider_id) {
  ProviderState& provider = Provider(provider_id);
  TN_ASSIGN_OR_RETURN(IpAddress sip, provider.sip_pool->Allocate());
  sips_.emplace(sip, SipRecord{sip, tenant, provider_id});
  TN_RETURN_IF_ERROR(sip_lb_.AddSip(sip));
  ledger_->ApiCall("request_sip", sip.ToString());
  ++endpoint_revision_;
  return sip;
}

Status DeclarativeCloud::ReleaseSip(IpAddress sip) {
  auto it = sips_.find(sip);
  if (it == sips_.end()) {
    return NotFoundError("no such SIP");
  }
  TN_RETURN_IF_ERROR(sip_lb_.RemoveSip(sip));
  TN_RETURN_IF_ERROR(Provider(it->second.provider).sip_pool->Release(sip));
  sips_.erase(it);
  ledger_->ApiCall("release_sip", sip.ToString());
  ++endpoint_revision_;
  return Status::Ok();
}

Status DeclarativeCloud::Bind(IpAddress eip, IpAddress sip, double weight) {
  auto eit = eips_.find(eip);
  if (eit == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  auto sit = sips_.find(sip);
  if (sit == sips_.end()) {
    return NotFoundError("no such SIP");
  }
  if (eit->second.tenant != sit->second.tenant) {
    return PermissionDeniedError("EIP and SIP belong to different tenants");
  }
  TN_RETURN_IF_ERROR(sip_lb_.Bind(eip, sip, weight));
  ledger_->ApiCall("bind", eip.ToString() + "->" + sip.ToString());
  if (weight != 1.0) {
    ledger_->SetParameter("bind", "weight");
  }
  return Status::Ok();
}

Status DeclarativeCloud::Unbind(IpAddress eip, IpAddress sip) {
  TN_RETURN_IF_ERROR(sip_lb_.Unbind(eip, sip));
  ledger_->ApiCall("unbind", eip.ToString() + "-x->" + sip.ToString());
  return Status::Ok();
}

Result<SimTime> DeclarativeCloud::SetPermitList(
    IpAddress eip, std::vector<PermitEntry> entries) {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  for (const PermitEntry& entry : entries) {
    if (entry.source_group.valid() &&
        groups_.count(entry.source_group) == 0) {
      return NotFoundError("permit entry references an unknown group");
    }
  }
  ledger_->ApiCall("set_permit_list",
                   eip.ToString() + " (" + std::to_string(entries.size()) +
                       " entries)");
  for (size_t i = 0; i < entries.size(); ++i) {
    ledger_->SetParameter("set_permit_list", "entry");
  }
  const EipRecord& record = it->second;
  if (record.on_prem.valid()) {
    return OnPrem(record.on_prem)
        .filters->SetPermitList(eip, std::move(entries));
  }
  return Provider(record.provider)
      .filters->SetPermitList(eip, std::move(entries));
}

Result<SimTime> DeclarativeCloud::UpdatePermitList(
    IpAddress eip, std::vector<PermitEntry> add,
    std::vector<PermitEntry> remove) {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  ledger_->ApiCall("update_permit_list",
                   eip.ToString() + " (+" + std::to_string(add.size()) +
                       "/-" + std::to_string(remove.size()) + ")");
  for (size_t i = 0; i < add.size() + remove.size(); ++i) {
    ledger_->SetParameter("update_permit_list", "entry");
  }
  const EipRecord& record = it->second;
  if (record.on_prem.valid()) {
    return OnPrem(record.on_prem)
        .filters->UpdatePermitList(eip, std::move(add), remove);
  }
  return Provider(record.provider)
      .filters->UpdatePermitList(eip, std::move(add), remove);
}

// --------------------------------------------------------------------------
// Endpoint groups.
// --------------------------------------------------------------------------

void DeclarativeCloud::PropagateGroup(EndpointGroupId group,
                                      GroupRecord& record,
                                      MemberSnapshot next) {
  record.members = std::move(next);
  for (auto& [id, provider] : providers_) {
    provider.filters->SetGroupSnapshot(group, record.members);
  }
  for (auto& [id, site] : on_prems_) {
    site.filters->SetGroupSnapshot(group, record.members);
  }
}

Result<EndpointGroupId> DeclarativeCloud::CreateEndpointGroup(
    TenantId tenant, const std::string& name) {
  EndpointGroupId id = group_ids_.Next();
  groups_.emplace(id, GroupRecord{tenant, name, MakeMemberSnapshot({})});
  ledger_->ApiCall("create_group", name);
  return id;
}

Status DeclarativeCloud::DeleteEndpointGroup(EndpointGroupId group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such group");
  }
  groups_.erase(it);
  for (auto& [id, provider] : providers_) {
    provider.filters->RemoveGroup(group);
  }
  for (auto& [id, site] : on_prems_) {
    site.filters->RemoveGroup(group);
  }
  ledger_->ApiCall("delete_group", std::to_string(group.value()));
  return Status::Ok();
}

Status DeclarativeCloud::AddToEndpointGroup(EndpointGroupId group,
                                            IpAddress eip) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such group");
  }
  auto eit = eips_.find(eip);
  if (eit == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  if (eit->second.tenant != it->second.tenant) {
    return PermissionDeniedError("EIP belongs to a different tenant");
  }
  // An address already in the group changes nothing, so nothing fans out
  // and no edge discards its cached verdicts.
  if (MemberSnapshot next = WithMember(it->second.members, eip)) {
    PropagateGroup(group, it->second, std::move(next));
  }
  ledger_->ApiCall("group_add", eip.ToString());
  return Status::Ok();
}

Status DeclarativeCloud::RemoveFromEndpointGroup(EndpointGroupId group,
                                                 IpAddress eip) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such group");
  }
  MemberSnapshot next = WithoutMember(it->second.members, eip);
  if (next == nullptr) {
    return NotFoundError("EIP not in group");
  }
  PropagateGroup(group, it->second, std::move(next));
  ledger_->ApiCall("group_remove", eip.ToString());
  return Status::Ok();
}

Result<std::vector<IpAddress>> DeclarativeCloud::GroupMembers(
    EndpointGroupId group) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such group");
  }
  return *it->second.members;
}

Status DeclarativeCloud::SetQos(TenantId tenant, RegionId region,
                                double bandwidth_bps) {
  const RegionSite& site = world_->region(region);
  Provider(site.provider);  // ensures enforcement points exist
  SimTime now = queue_ != nullptr ? queue_->now() : SimTime::Epoch();
  TN_RETURN_IF_ERROR(qos_.SetQuota(tenant, region, bandwidth_bps, now));
  ledger_->ApiCall("set_qos", site.name + " bw=" +
                                  std::to_string(bandwidth_bps));
  return Status::Ok();
}

Status DeclarativeCloud::SetQos(TenantId tenant, RegionId region,
                                double bandwidth_bps, QosSelector selector) {
  const RegionSite& site = world_->region(region);
  Provider(site.provider);
  SimTime now = queue_ != nullptr ? queue_->now() : SimTime::Epoch();
  TN_RETURN_IF_ERROR(
      qos_.SetQuota(tenant, region, bandwidth_bps, now, std::move(selector)));
  ledger_->ApiCall("set_qos", site.name + " bw=" +
                                  std::to_string(bandwidth_bps) +
                                  " (scoped)");
  ledger_->SetParameter("set_qos", "traffic-selector");
  return Status::Ok();
}

Status DeclarativeCloud::SetEgressProfile(TenantId tenant,
                                          EgressPolicy profile) {
  if (profile == EgressPolicy::kDedicated) {
    return InvalidArgumentError(
        "dedicated links are not part of the declarative model (§4)");
  }
  profiles_[tenant] = profile;
  ledger_->ApiCall("set_egress_profile",
                   std::string(EgressPolicyName(profile)));
  return Status::Ok();
}

EgressPolicy DeclarativeCloud::EgressProfileOf(TenantId tenant) const {
  auto it = profiles_.find(tenant);
  return it == profiles_.end() ? EgressPolicy::kHotPotato : it->second;
}

// --------------------------------------------------------------------------
// Provider-side signals.
// --------------------------------------------------------------------------

void DeclarativeCloud::NotifyInstanceDown(InstanceId instance) {
  auto it = eip_by_instance_.find(instance);
  if (it == eip_by_instance_.end()) {
    return;
  }
  IpAddress eip = it->second;
  sip_lb_.SetHealth(eip, false);
  // The provider stops announcing reachability for a dead endpoint: the EIP
  // host route leaves the RIB (the BGP analogue of WithdrawOrigin), so
  // routed delivery fails fast instead of blackholing into the host.
  auto eit = eips_.find(eip);
  if (eit != eips_.end() && eit->second.provider.valid()) {
    ProviderState& provider = Provider(eit->second.provider);
    // Idempotent: a second Down for the same instance finds no route (and
    // does not bump the revision).
    if (provider.rib.Withdraw(IpPrefix::Host(eip)).ok()) {
      ++provider.rib_revision;
    }
  }
}

void DeclarativeCloud::NotifyInstanceUp(InstanceId instance) {
  auto it = eip_by_instance_.find(instance);
  if (it == eip_by_instance_.end()) {
    return;
  }
  IpAddress eip = it->second;
  sip_lb_.SetHealth(eip, true);
  auto eit = eips_.find(eip);
  if (eit != eips_.end() && eit->second.provider.valid()) {
    ProviderState& provider = Provider(eit->second.provider);
    if (provider.rib.Install(
            IpPrefix::Host(eip),
            RouteEntry{world_->region(eit->second.region).edge_node,
                       RouteOrigin::kLocal, 0, RouteLabels().Intern("eip")})) {
      ++provider.rib_revision;
    }
  }
}

// --------------------------------------------------------------------------
// Data plane.
// --------------------------------------------------------------------------

bool DeclarativeCloud::AdmittedAtDestination(const EipRecord& dst,
                                             const FiveTuple& flow,
                                             std::string* where) const {
  if (dst.on_prem.valid()) {
    auto it = on_prems_.find(dst.on_prem);
    assert(it != on_prems_.end());
    *where = world_->on_prem(dst.on_prem).name + ":router";
    return it->second.filters->Admits(0, flow);
  }
  auto it = providers_.find(dst.provider);
  assert(it != providers_.end());
  size_t edge = it->second.edge_index.at(dst.region);
  *where = world_->provider(dst.provider).name + ":" +
           world_->region(dst.region).name;
  return it->second.filters->Admits(edge, flow);
}

Result<DeclarativeCloud::DestinationEdge> DeclarativeCloud::DestinationEdgeOf(
    IpAddress eip) {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no endpoint holds " + eip.ToString());
  }
  const EipRecord& record = it->second;
  DestinationEdge edge;
  if (record.on_prem.valid()) {
    edge.bank = OnPrem(record.on_prem).filters.get();
    edge.edge_index = 0;
    edge.where = world_->on_prem(record.on_prem).name + ":router";
    return edge;
  }
  ProviderState& provider = Provider(record.provider);
  edge.bank = provider.filters.get();
  edge.edge_index = provider.edge_index.at(record.region);
  edge.where = world_->provider(record.provider).name + ":" +
               world_->region(record.region).name;
  return edge;
}

Result<DeclarativeDelivery> DeclarativeCloud::Evaluate(InstanceId src,
                                                       IpAddress dst,
                                                       uint16_t dst_port,
                                                       Protocol proto) {
  const Instance* src_inst = world_->FindInstance(src);
  if (src_inst == nullptr || !src_inst->running) {
    return NotFoundError("no such running instance");
  }
  auto sit = eip_by_instance_.find(src);
  if (sit == eip_by_instance_.end()) {
    return FailedPreconditionError("source instance has no EIP (request_eip)");
  }

  DeclarativeDelivery d;
  d.src_node = src_inst->host_node;
  d.effective_src = sit->second;
  d.effective_dst = dst;
  d.vm_egress_cap_bps = src_inst->vm_egress_cap_bps;

  FiveTuple flow;
  flow.src = sit->second;
  flow.dst = dst;
  flow.src_port = 40000 + static_cast<uint16_t>(src.value() % 20000);
  flow.dst_port = dst_port;
  flow.proto = proto;

  // SIP resolution (provider anycast load balancer).
  if (IsSip(dst)) {
    d.provider_hops.push_back("sip-lb");
    Result<IpAddress> backend = sip_lb_.Resolve(dst);
    if (!backend.ok()) {
      d.drop_stage = "sip";
      d.drop_reason = backend.status().message();
      return d;
    }
    flow.dst = *backend;
    d.effective_dst = *backend;
  }

  auto dit = eips_.find(flow.dst);
  if (dit == eips_.end()) {
    d.drop_stage = "no-such-endpoint";
    d.drop_reason = "no endpoint holds " + flow.dst.ToString();
    return d;
  }
  const EipRecord& dst_record = dit->second;

  const Instance* dst_inst = world_->FindInstance(dst_record.instance);
  if (dst_inst == nullptr || !dst_inst->running) {
    d.drop_stage = "instance-down";
    d.drop_reason = "endpoint " + flow.dst.ToString() + " is not running";
    return d;
  }

  std::string where;
  bool admitted = AdmittedAtDestination(dst_record, flow, &where);
  d.provider_hops.push_back("edge-filter@" + where);
  if (!admitted) {
    d.drop_stage = "edge-filter";
    d.drop_reason = "default-off: " + flow.src.ToString() +
                    " is not on the permit list of " + flow.dst.ToString();
    return d;
  }

  d.delivered = true;
  d.dst_node = dst_record.host_node;
  // Intra-provider traffic rides the backbone; external traffic follows the
  // tenant's potato profile.
  if (dst_record.provider.valid() && src_inst->provider.valid() &&
      dst_record.provider == src_inst->provider) {
    d.egress_policy = EgressPolicy::kColdPotato;
  } else {
    d.egress_policy = EgressProfileOf(src_inst->tenant);
  }
  return d;
}

DeclarativeDelivery DeclarativeCloud::EvaluateExternal(IpAddress src,
                                                       IpAddress dst,
                                                       uint16_t dst_port,
                                                       Protocol proto) {
  DeclarativeDelivery d;
  d.effective_src = src;
  d.effective_dst = dst;
  d.egress_policy = EgressPolicy::kHotPotato;

  FiveTuple flow;
  flow.src = src;
  flow.dst = dst;
  flow.src_port = 55555;
  flow.dst_port = dst_port;
  flow.proto = proto;

  if (IsSip(dst)) {
    d.provider_hops.push_back("sip-lb");
    Result<IpAddress> backend = sip_lb_.Resolve(dst);
    if (!backend.ok()) {
      d.drop_stage = "sip";
      d.drop_reason = backend.status().message();
      return d;
    }
    flow.dst = *backend;
    d.effective_dst = *backend;
  }

  auto dit = eips_.find(flow.dst);
  if (dit == eips_.end()) {
    d.drop_stage = "no-such-endpoint";
    d.drop_reason = "no endpoint holds " + flow.dst.ToString();
    return d;
  }
  std::string where;
  if (!AdmittedAtDestination(dit->second, flow, &where)) {
    d.drop_stage = "edge-filter";
    d.drop_reason = "default-off at " + where;
    d.provider_hops.push_back("edge-filter@" + where);
    return d;
  }
  d.provider_hops.push_back("edge-filter@" + where);
  d.delivered = true;
  d.dst_node = dit->second.host_node;
  return d;
}

// --------------------------------------------------------------------------
// Lookup / metrics.
// --------------------------------------------------------------------------

const EipRecord* DeclarativeCloud::FindEip(IpAddress addr) const {
  auto it = eips_.find(addr);
  return it == eips_.end() ? nullptr : &it->second;
}

std::optional<IpAddress> DeclarativeCloud::EipOf(InstanceId instance) const {
  auto it = eip_by_instance_.find(instance);
  if (it == eip_by_instance_.end()) {
    return std::nullopt;
  }
  return it->second;
}

EdgeFilterBank& DeclarativeCloud::provider_filters(ProviderId provider) {
  return *Provider(provider).filters;
}

EdgeFilterBank& DeclarativeCloud::on_prem_filters(OnPremId site) {
  return *OnPrem(site).filters;
}

size_t DeclarativeCloud::ProviderRibEntries(ProviderId provider) {
  return Provider(provider).rib.entry_count();
}

size_t DeclarativeCloud::ProviderRibNodes(ProviderId provider) {
  return Provider(provider).rib.node_count();
}

size_t DeclarativeCloud::ProviderAggregatedRibEntries(ProviderId provider) {
  ProviderState& state = Provider(provider);
  if (!state.aggregated_valid || state.aggregated_at != state.rib_revision) {
    state.aggregated_entries =
        AggregatePrefixes(state.rib.Prefixes()).size();
    state.aggregated_at = state.rib_revision;
    state.aggregated_valid = true;
  }
  return state.aggregated_entries;
}

uint64_t DeclarativeCloud::ProviderRibRevision(ProviderId provider) {
  return Provider(provider).rib_revision;
}

}  // namespace tenantnet
