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

// `stage` must name a string literal (the verdict keeps a view of it).
void Drop(DeclarativeDelivery& d, std::string_view stage, DropReason reason) {
  d.drop_stage = stage;
  d.reason = reason;
}

}  // namespace

std::string Explain(const DeclarativeDelivery& delivery) {
  return RenderReason(delivery.reason, delivery.effective_src);
}

DeclarativeCloud::DeclarativeCloud(CloudWorld& world, ConfigLedger& ledger,
                                   EventQueue* queue,
                                   DeclarativeParams params)
    : world_(&world), ledger_(&ledger), queue_(queue), params_(params),
      sip_lb_hop_(RouteLabels().Intern("sip-lb")) {}

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
  state.sip_pool = std::make_unique<HostAllocator>(halves->second);
  std::vector<std::string> edges;
  for (RegionId region_id : site.regions) {
    const RegionSite& region = world_->region(region_id);
    state.edge_index[region_id] = edges.size();
    edges.push_back(site.name + ":" + region.name);
    // Quota enforcement points: one per zone of each region.
    for (const ZoneSite& zone : region.zones) {
      qos_.RegisterPoint(region_id, zone.name);
    }
  }
  state.domain =
      NewDomain(site.name, halves->first, params_.rng_seed ^ id.value(), edges);
  return providers_.emplace(id, std::move(state)).first->second;
}

DeclarativeCloud::Domain& DeclarativeCloud::OnPrem(OnPremId id) {
  auto it = on_prems_.find(id);
  if (it != on_prems_.end()) {
    return it->second;
  }
  const OnPremSite& site = world_->on_prem(id);
  // Public default-off space for the site's endpoints (its ISP block).
  IpPrefix pool = *IpPrefix::Create(
      IpAddress::V4(198, 51, static_cast<uint8_t>(id.value() % 256), 0), 24);
  return on_prems_
      .emplace(id, NewDomain(site.name, pool,
                             params_.rng_seed ^ (id.value() << 32),
                             {site.name + ":router"}))
      .first->second;
}

DeclarativeCloud::Domain DeclarativeCloud::NewDomain(
    const std::string& name, const IpPrefix& eip_space, uint64_t rng_seed,
    const std::vector<std::string>& edges) {
  Domain domain;
  // Lowest-first reuse keeps the live EIP range dense, which is what lets
  // the provider aggregate its table under churn (E4a's ablation).
  domain.eip_pool = std::make_unique<HostAllocator>(
      eip_space, HostAllocator::ReusePolicy::kLowestFirst);
  domain.filters = std::make_unique<EdgeFilterBank>(name, queue_, rng_seed,
                                                    params_.filter);
  for (const std::string& edge : edges) {
    domain.filters->AddEdge(edge);
    domain.edge_labels.push_back(HopLabel::Of("edge-filter@", edge));
  }
  for (const auto& [group, record] : groups_) {
    domain.filters->SetGroupSnapshot(group, record.members);
  }
  return domain;
}

template <typename Fn>
void DeclarativeCloud::ForEachDomain(Fn fn) {
  for (auto& [id, provider] : providers_) {
    fn(provider.domain);
  }
  for (auto& [id, site] : on_prems_) {
    fn(site);
  }
}

void DeclarativeCloud::InstallHostRoute(const EipRecord& record) {
  Provider(record.provider)
      .rib.Install(IpPrefix::Host(record.addr),
                   RouteEntry{world_->region(record.region).edge_node,
                              RouteOrigin::kLocal, 0,
                              RouteLabels().Intern("eip")});
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

  Endpoint endpoint;
  EipRecord& record = endpoint.record;
  record.instance = vm;
  record.tenant = inst->tenant;
  record.provider = inst->provider;
  record.region = inst->region;
  record.on_prem = inst->on_prem;
  record.host_node = inst->host_node;
  record.zone_index = inst->zone_index;

  // The one place an endpoint's enforcement point is decided: the on-prem
  // site router, or its region's edge in the provider's domain.
  if (inst->on_prem.valid()) {
    endpoint.domain = &OnPrem(inst->on_prem);
  } else {
    ProviderState& provider = Provider(inst->provider);
    auto edge = provider.edge_index.find(inst->region);
    if (edge == provider.edge_index.end()) {
      return FailedPreconditionError(
          "region was added after its provider's enforcement domain");
    }
    endpoint.domain = &provider.domain;
    endpoint.edge = edge->second;
  }
  TN_ASSIGN_OR_RETURN(record.addr, endpoint.domain->eip_pool->Allocate());
  if (record.provider.valid()) {
    // The provider carries a host route; how it aggregates is its business.
    InstallHostRoute(record);
  }

  ledger_->ApiCall("request_eip", "vm=" + std::to_string(vm.value()));
  IpAddress addr = record.addr;
  eips_.emplace(addr, std::move(endpoint));
  eip_by_instance_[vm] = addr;
  ++endpoint_revision_;
  return addr;
}

Status DeclarativeCloud::ReleaseEip(IpAddress eip) {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  const Endpoint& endpoint = it->second;
  // The pool release is the only step that can fail, so it goes first: a
  // refused release changes nothing.
  TN_RETURN_IF_ERROR(endpoint.domain->eip_pool->Release(eip));
  endpoint.domain->filters->RemovePermitList(eip);
  if (endpoint.record.provider.valid()) {
    // NotFound means NotifyInstanceDown already withdrew the host route.
    (void)Provider(endpoint.record.provider).rib.Withdraw(IpPrefix::Host(eip));
  }
  sip_lb_.UnbindEverywhere(eip);
  // Drop the address from any groups it belonged to (provider-side
  // hygiene: a recycled address must not inherit old permissions).
  for (auto& [group, record] : groups_) {
    if (MemberSnapshot next = WithoutMember(record.members, eip)) {
      PropagateGroup(group, record, std::move(next));
    }
  }
  eip_by_instance_.erase(endpoint.record.instance);
  eips_.erase(it);
  ledger_->ApiCall("release_eip", eip.ToString());
  ++endpoint_revision_;
  return Status::Ok();
}

Result<IpAddress> DeclarativeCloud::RequestSip(TenantId tenant,
                                               ProviderId provider_id) {
  if (!provider_id.valid() || provider_id.value() > world_->provider_count()) {
    return InvalidArgumentError("unknown provider");
  }
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
  if (eit->second.record.tenant != sit->second.tenant) {
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
  return it->second.domain->filters->SetPermitList(eip, std::move(entries));
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
  return it->second.domain->filters->UpdatePermitList(eip, std::move(add),
                                                      remove);
}

// --------------------------------------------------------------------------
// Endpoint groups.
// --------------------------------------------------------------------------

void DeclarativeCloud::PropagateGroup(EndpointGroupId group,
                                      GroupRecord& record,
                                      MemberSnapshot next) {
  record.members = std::move(next);
  ForEachDomain([&](Domain& domain) {
    domain.filters->SetGroupSnapshot(group, record.members);
  });
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
  ForEachDomain([&](Domain& domain) { domain.filters->RemoveGroup(group); });
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
  if (eit->second.record.tenant != it->second.tenant) {
    return PermissionDeniedError("EIP belongs to a different tenant");
  }
  // An address already in the group changes nothing, so nothing fans out
  // and no verdict epoch moves.
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
                                double bandwidth_bps,
                                std::optional<QosSelector> selector) {
  if (!region.valid() || region.value() > world_->region_count()) {
    return InvalidArgumentError("unknown region");
  }
  const RegionSite& site = world_->region(region);
  Provider(site.provider);  // ensures enforcement points exist
  SimTime now = queue_ != nullptr ? queue_->now() : SimTime::Epoch();
  const bool scoped = selector.has_value();
  TN_RETURN_IF_ERROR(
      qos_.SetQuota(tenant, region, bandwidth_bps, now, std::move(selector)));
  ledger_->ApiCall("set_qos", site.name + " bw=" +
                                  std::to_string(bandwidth_bps) +
                                  (scoped ? " (scoped)" : ""));
  if (scoped) {
    ledger_->SetParameter("set_qos", "traffic-selector");
  }
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
  if (eit != eips_.end() && eit->second.record.provider.valid()) {
    // Idempotent: a second Down for the same instance finds no route.
    (void)Provider(eit->second.record.provider)
        .rib.Withdraw(IpPrefix::Host(eip));
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
  if (eit != eips_.end() && eit->second.record.provider.valid()) {
    InstallHostRoute(eit->second.record);
  }
}

// --------------------------------------------------------------------------
// Data plane.
// --------------------------------------------------------------------------

Result<DeclarativeCloud::DestinationEdge> DeclarativeCloud::DestinationEdgeOf(
    IpAddress eip) const {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no endpoint holds " + eip.ToString());
  }
  const Endpoint& endpoint = it->second;
  return DestinationEdge{endpoint.domain->filters.get(), endpoint.edge};
}

DeclarativeCloud::Verdict DeclarativeCloud::Toward(IpAddress dst,
                                                   uint16_t dst_port,
                                                   Protocol proto) {
  Verdict v;
  v.flow.dst = dst;
  v.flow.dst_port = dst_port;
  v.flow.proto = proto;
  v.d.effective_dst = dst;
  return v;
}

bool DeclarativeCloud::FromTenant(InstanceId src, Verdict& v) const {
  const Instance* src_inst = world_->FindInstance(src);
  if (src_inst == nullptr || !src_inst->running) {
    Drop(v.d, "src-down", {"the source is not a running instance"});
    return false;
  }
  auto sit = eip_by_instance_.find(src);
  if (sit == eip_by_instance_.end()) {
    Drop(v.d, "no-eip", {"source instance has no EIP (request_eip)"});
    return false;
  }

  v.src = src_inst;
  v.flow.src = sit->second;
  v.flow.src_port = 40000 + static_cast<uint16_t>(src.value() % 20000);
  v.d.src_node = src_inst->host_node;
  v.d.effective_src = sit->second;
  v.d.vm_egress_cap_bps = src_inst->vm_egress_cap_bps;
  return true;
}

bool DeclarativeCloud::PickBackend(Verdict& v) {
  if (!IsSip(v.flow.dst)) {
    return true;
  }
  v.d.provider_hops.push_back(sip_lb_hop_);
  SipLoadBalancer::Pick pick = sip_lb_.PickBackend(v.flow.dst);
  if (pick.refusal != nullptr) {
    Drop(v.d, "sip", {pick.refusal, v.flow.dst});
    return false;
  }
  v.flow.dst = pick.backend;
  v.d.effective_dst = pick.backend;
  return true;
}

void DeclarativeCloud::Walk(Verdict& v) const {
  DeclarativeDelivery& d = v.d;
  auto it = eips_.find(v.flow.dst);
  if (it == eips_.end()) {
    Drop(d, "no-such-endpoint", {"no endpoint holds {ip}", v.flow.dst});
    return;
  }
  const Endpoint& dst = it->second;

  // Only tenant traffic is refused toward a stopped endpoint; the baseline
  // world's external path does not check liveness either.
  if (v.src != nullptr) {
    const Instance* dst_inst = world_->FindInstance(dst.record.instance);
    if (dst_inst == nullptr || !dst_inst->running) {
      Drop(d, "instance-down", {"endpoint {ip} is not running", v.flow.dst});
      return;
    }
  }

  const HopLabel& edge = dst.domain->edge_labels[dst.edge];
  d.provider_hops.push_back(edge.hop);
  if (!dst.domain->filters->Admits(dst.edge, v.flow)) {
    // `flow.src` is the verdict's effective source, which "{src}" renders.
    Drop(d, "edge-filter",
         v.src != nullptr
             ? DropReason{"default-off: {src} is not on the permit list of "
                          "{ip}",
                          v.flow.dst}
             : DropReason{"default-off at {name}", {}, edge.name});
    return;
  }
  d.delivered = true;
  d.dst_node = dst.record.host_node;
  // Intra-provider traffic rides the backbone; other tenant traffic follows
  // the tenant's potato profile (an internet source keeps hot potato).
  if (v.src != nullptr) {
    d.egress_policy = dst.record.provider.valid() && v.src->provider.valid() &&
                              dst.record.provider == v.src->provider
                          ? EgressPolicy::kColdPotato
                          : EgressProfileOf(v.src->tenant);
  }
}

Result<DeclarativeDelivery> DeclarativeCloud::Evaluate(InstanceId src,
                                                       IpAddress dst,
                                                       uint16_t dst_port,
                                                       Protocol proto) {
  Verdict v = Toward(dst, dst_port, proto);
  if (FromTenant(src, v) && PickBackend(v)) {
    Walk(v);
  }
  return v.d;
}

Result<DeclarativeDelivery> DeclarativeCloud::Query(InstanceId src,
                                                    IpAddress endpoint,
                                                    uint16_t dst_port,
                                                    Protocol proto) const {
  if (IsSip(endpoint)) {
    return InvalidArgumentError(
        "a reach query names an endpoint, not a SIP (expand its bindings)");
  }
  Verdict v = Toward(endpoint, dst_port, proto);
  if (FromTenant(src, v)) {
    Walk(v);
  }
  return v.d;
}

DeclarativeDelivery DeclarativeCloud::QuerySource(InstanceId src) const {
  Verdict v;
  FromTenant(src, v);
  return v.d;
}

DeclarativeDelivery DeclarativeCloud::EvaluateExternal(IpAddress src,
                                                       IpAddress dst,
                                                       uint16_t dst_port,
                                                       Protocol proto) {
  Verdict v = Toward(dst, dst_port, proto);
  v.flow.src = src;
  v.flow.src_port = 55555;
  v.d.effective_src = src;
  v.d.egress_policy = EgressPolicy::kHotPotato;
  if (PickBackend(v)) {
    Walk(v);
  }
  return v.d;
}

// --------------------------------------------------------------------------
// Lookup / metrics.
// --------------------------------------------------------------------------

const EipRecord* DeclarativeCloud::FindEip(IpAddress addr) const {
  auto it = eips_.find(addr);
  return it == eips_.end() ? nullptr : &it->second.record;
}

std::optional<IpAddress> DeclarativeCloud::EipOf(InstanceId instance) const {
  auto it = eip_by_instance_.find(instance);
  if (it == eip_by_instance_.end()) {
    return std::nullopt;
  }
  return it->second;
}

EdgeFilterBank& DeclarativeCloud::provider_filters(ProviderId provider) {
  return *Provider(provider).domain.filters;
}

EdgeFilterBank& DeclarativeCloud::on_prem_filters(OnPremId site) {
  return *OnPrem(site).filters;
}

size_t DeclarativeCloud::ProviderRibEntries(ProviderId provider) {
  return Provider(provider).rib.entry_count();
}

size_t DeclarativeCloud::ProviderAggregatedRibEntries(ProviderId provider) {
  return AggregatePrefixes(Provider(provider).rib.Prefixes()).size();
}

}  // namespace tenantnet
