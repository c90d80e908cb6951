#include "perfbench/e2e/episode.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "perfbench/e2e/surface.h"
#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/faults/fault_injector.h"
#include "src/reach/reach.h"
#include "src/restart/warm_restart.h"
#include "src/sim/flow_sim.h"
#include "src/vnet/builder.h"
#include "src/vnet/fabric.h"

namespace e2e {

using namespace tenantnet;

namespace {

// ---------------------------------------------------------------------------
// Workload parameters. Every episode of one (workload, seed) simulates the
// same transactions; the sizes below fix the input size that tx_per_s is
// measured at.
// ---------------------------------------------------------------------------

// Extra instances launched into each Fig-1 tier (on top of the preset's
// handful), per workload.
struct Tiers {
  int spark = 0;      // cloud A us-east
  int database = 0;   // cloud B us-east
  int web_eu = 0;     // cloud A eu-west
  int web_us = 0;     // cloud A us-west
  int analytics = 0;  // cloud B europe
};

// decl_steady: ~1.2k endpoints. The spark tier is the permit group (its
// one-at-a-time AddToEndpointGroup calls are the quadratic part of setup),
// the database tier sits behind a SIP with a group entry plus 16 host
// entries per endpoint, and the web tier has no permit anywhere, so its
// traffic is denied at the edge filter. Small responses keep every link far
// from saturation: this workload measures per-transaction overhead.
constexpr Tiers kDeclTiers{760, 60, 190, 30, 125};
constexpr int kHostEntriesPerDb = 16;
constexpr double kDeclSparkRps = 9000;      // spark -> SIP, diurnal +-30%
constexpr double kDeclAnalyticsRps = 2500;  // analytics -> db EIPs, flash x1
constexpr double kDeclWebRps = 1500;        // web -> db EIPs (no permit)
constexpr double kDeclSpanS = 20;
constexpr double kDeclResponseBytes = 16 * 1024;
// One control-plane write per interval, alternating a permit-list entry
// swap (UpdatePermitList) and a group flap (remove, re-add 200 ms later).
constexpr SimDuration kDeclWriteInterval = SimDuration::Millis(100);
constexpr SimDuration kDeclFlapHold = SimDuration::Millis(200);

// baseline_storm: the VPC/TGW fabric with scaled tiers under a seeded storm
// of link faults and instance crashes, plus one warm restart of the routing
// plane. Storm sizing: E8b's Fig1Storm also restarts both us-east edge
// gateways, and every spark->db path crosses one of them, so at 200 rps that
// storm denies 92% of transactions as no-physical-path; with no gateway
// restarts the share is 0%. The storm here therefore draws no
// gateway restarts, only link faults and instance crashes, which keeps
// no-physical-path denials a small minority (0% measured; instance-down
// ~3%). The link faults hit public-internet links only: cloud B's two
// regions share a single backbone link pair, and a fault on it reroutes
// every analytics->db transaction over the internet, so whether the
// pooled p99 latency lands in that reroute mode (107 vs 82 ms) depended on
// the storm seed.
constexpr Tiers kBaselineTiers{188, 44, 44, 0, 45};
constexpr double kBaselineSparkRps = 3200;      // spark -> db, diurnal +-30%
constexpr double kBaselineAnalyticsRps = 1200;   // analytics -> db
constexpr double kBaselineWebRps = 600;         // web -> db (no SG rule)
constexpr double kBaselineSpanS = 30;
constexpr double kBaselineResponseBytes = 256 * 1024;
constexpr size_t kStormEvents = 200;
constexpr double kStormWindowS = 26;
constexpr double kRestartAtS = 15;
constexpr SimDuration kRestartOutage = SimDuration::Millis(400);
// Retries outlast the longest fault (2 s): 12 capped doublings of 10 ms sum
// to over 6 s of backoff, so no transaction gives up.
constexpr int kBaselineRetries = 12;

// quota_trunk: MiB-scale heavy-tailed responses in two patterns. spark
// clients fetch from us-west servers whose region carries a binding 30 Gbps
// set_qos quota; web clients fetch from analytics servers across the
// unquoted 40 Gbps inter-provider transit trunk. Offered load is ~87% of the
// quota and ~83% of the trunk (mean response ~0.95 MiB after the 50x size
// cap): high enough that re-leveling and quota re-caps carry the run, and
// below capacity so the backlog does not grow with run length. Run time is
// sharp near capacity: closer to it, a few heavy-tailed responses build a
// backlog whose size, and so the wall time, swings from seed to seed.
constexpr Tiers kQuotaTiers{60, 0, 60, 44, 45};
constexpr double kQuotaBps = 30e9;
constexpr double kQuotaRps = 3300;   // spark -> us-west (quota region)
constexpr double kTrunkRps = 4200;   // web-eu -> analytics (trunk)
constexpr double kQuotaSpanS = 30;
constexpr double kQuotaResponseBytes = 1024 * 1024;

constexpr SimDuration kQuotaEpoch = SimDuration::Millis(100);
constexpr uint16_t kServicePort = 5432;
// One connector call in this many is checked against the reach engine.
constexpr uint64_t kOracleEvery = 64;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Exact q-quantile (nearest rank) of `samples`; reorders them.
double ExactQuantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) {
    rank = samples.size() - 1;
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

void Launch(CloudWorld& world, TenantId tenant, ProviderId provider,
            RegionId region, int count, std::vector<InstanceId>& tier) {
  const int zones = static_cast<int>(world.region(region).zones.size());
  for (int i = 0; i < count; ++i) {
    tier.push_back(*world.LaunchInstance(tenant, provider, region, i % zones));
  }
}

class Episode {
 public:
  Episode(Workload workload, uint64_t seed, bool traced)
      : kind_(workload),
        seed_(seed),
        ledger_(traced ? &result_.ledger : nullptr),
        rng_(Mix(seed ^ 0x5eed)) {}

  EpisodeResult Run() {
    const int64_t t0 = NowNs();
    Setup();
    const int64_t t1 = NowNs();
    Measure();
    const int64_t t2 = NowNs();
    result_.setup_s = static_cast<double>(t1 - t0) / 1e9;
    result_.measured_s = static_cast<double>(t2 - t1) / 1e9;
    Check();
    return std::move(result_);
  }

 private:
  // --- Setup: world, deployment, install drain, workload wiring -------------

  void Setup() {
    fig_ = BuildFig1World();
    CloudWorld& world = *fig_.world;
    const Tiers tiers = kind_ == Workload::kDeclSteady      ? kDeclTiers
                        : kind_ == Workload::kBaselineStorm ? kBaselineTiers
                                                            : kQuotaTiers;
    Launch(world, fig_.tenant, fig_.cloud_a, fig_.a_us_east, tiers.spark,
           fig_.spark);
    Launch(world, fig_.tenant, fig_.cloud_b, fig_.b_us_east, tiers.database,
           fig_.database);
    Launch(world, fig_.tenant, fig_.cloud_a, fig_.a_eu_west, tiers.web_eu,
           fig_.web_eu);
    Launch(world, fig_.tenant, fig_.cloud_a, fig_.a_us_west, tiers.web_us,
           fig_.web_us);
    Launch(world, fig_.tenant, fig_.cloud_b, fig_.b_europe, tiers.analytics,
           fig_.analytics);

    sim_ = std::make_unique<FlowSim>(queue_, world.topology());
    surface_ = std::make_unique<TracedSurface>(*sim_, queue_,
                                               world.topology(), ledger_);
    WorkloadParams params;
    params.seed = Mix(seed_ ^ 0xa11);
    switch (kind_) {
      case Workload::kDeclSteady:
        DeployDeclSteady();
        params.mean_response_bytes = kDeclResponseBytes;
        break;
      case Workload::kBaselineStorm:
        DeployBaseline();
        params.mean_response_bytes = kBaselineResponseBytes;
        params.max_retries = kBaselineRetries;
        break;
      case Workload::kQuotaTrunk:
        DeployQuotaTrunk();
        params.mean_response_bytes = kQuotaResponseBytes;
        break;
    }
    queue_.RunAll();  // initial permit/group installs land at every edge

    workload_ = std::make_unique<RequestWorkload>(queue_, *surface_, world,
                                                  params);
    surface_->set_workload(workload_.get());
    double span_s = 0;
    switch (kind_) {
      case Workload::kDeclSteady:
        span_s = kDeclSpanS;
        AddDeclSteadyPatterns();
        break;
      case Workload::kBaselineStorm:
        span_s = kBaselineSpanS;
        AddBaselinePatterns();
        ScheduleStorm();
        break;
      case Workload::kQuotaTrunk:
        span_s = kQuotaSpanS;
        AddQuotaTrunkPatterns();
        break;
    }
    span_ = SimDuration::Seconds(span_s);
    arrivals_end_ = queue_.now() + span_;
    workload_->Start(span_);
    ScheduleEpoch();
    if (kind_ == Workload::kDeclSteady) {
      ScheduleWrite();
    }
    if (cloud_ != nullptr) {
      cloud_->provider_filters(fig_.cloud_a).ResetVerdictCacheStats();
      cloud_->provider_filters(fig_.cloud_b).ResetVerdictCacheStats();
    }
    if (net_ != nullptr) {
      net_->ResetVerdictCacheStats();
    }
  }

  // Runs one Table-2 call, timing it into the setup ledger when traced.
  template <typename F>
  auto Verb(const char* name, F&& call) {
    if (ledger_ == nullptr) {
      return call();
    }
    const int64_t t0 = NowNs();
    auto out = call();
    result_.setup_verbs[name].Record(static_cast<uint64_t>(NowNs() - t0));
    return out;
  }

  void MakeCloud() {
    DeclarativeParams params;
    params.rng_seed = Mix(seed_ ^ 0xc10d);
    cloud_ = std::make_unique<DeclarativeCloud>(*fig_.world, config_, &queue_,
                                                params);
    reach_decl_ = std::make_unique<DeclarativeReachEngine>(*fig_.world,
                                                           *cloud_);
    for (InstanceId id : fig_.AllInstances()) {
      eip_[id] = Require(Verb("request_eip", [&] {
        return cloud_->RequestEip(id);
      }), "request_eip");
    }
  }

  EndpointGroupId MakeGroup(const std::vector<InstanceId>& members) {
    EndpointGroupId group = Require(Verb("create_endpoint_group", [&] {
      return cloud_->CreateEndpointGroup(fig_.tenant, "clients");
    }), "create_endpoint_group");
    for (InstanceId id : members) {
      Expect(Verb("add_to_endpoint_group", [&] {
        return cloud_->AddToEndpointGroup(group, eip_[id]);
      }), "add_to_endpoint_group");
    }
    return group;
  }

  PermitEntry GroupEntry(EndpointGroupId group) const {
    PermitEntry entry;
    entry.source_group = group;
    entry.dst_ports = PortRange::Single(kServicePort);
    entry.proto = Protocol::kTcp;
    return entry;
  }
  PermitEntry HostEntry(IpAddress source) const {
    PermitEntry entry;
    entry.source = IpPrefix::Host(source);
    entry.dst_ports = PortRange::Single(kServicePort);
    entry.proto = Protocol::kTcp;
    return entry;
  }

  void DeployDeclSteady() {
    MakeCloud();
    sip_ = Require(Verb("request_sip", [&] {
      return cloud_->RequestSip(fig_.tenant, fig_.cloud_b);
    }), "request_sip");
    for (InstanceId db : fig_.database) {
      Expect(Verb("bind", [&] { return cloud_->Bind(eip_[db], sip_); }),
             "bind");
    }
    group_ = MakeGroup(fig_.spark);
    // Each database endpoint admits the spark group plus 16 analytics hosts
    // drawn without replacement.
    host_entries_.resize(fig_.database.size());
    for (size_t i = 0; i < fig_.database.size(); ++i) {
      std::vector<size_t> picks(fig_.analytics.size());
      for (size_t j = 0; j < picks.size(); ++j) {
        picks[j] = j;
      }
      for (int k = 0; k < kHostEntriesPerDb; ++k) {
        size_t j = k + rng_.NextU64(picks.size() - k);
        std::swap(picks[k], picks[j]);
        host_entries_[i].push_back(eip_[fig_.analytics[picks[k]]]);
      }
      std::vector<PermitEntry> entries{GroupEntry(group_)};
      for (IpAddress host : host_entries_[i]) {
        entries.push_back(HostEntry(host));
      }
      Expect(Verb("set_permit_list", [&] {
        return cloud_->SetPermitList(eip_[fig_.database[i]], entries);
      }), "set_permit_list");
    }
    group_member_out_.assign(fig_.spark.size(), false);
  }

  void DeployQuotaTrunk() {
    MakeCloud();
    std::vector<InstanceId> clients = fig_.spark;
    clients.insert(clients.end(), fig_.web_eu.begin(), fig_.web_eu.end());
    group_ = MakeGroup(clients);
    for (const auto* tier : {&fig_.web_us, &fig_.analytics}) {
      for (InstanceId server : *tier) {
        Expect(Verb("set_permit_list", [&] {
          return cloud_->SetPermitList(eip_[server], {GroupEntry(group_)});
        }), "set_permit_list");
      }
    }
    Expect(Verb("set_qos", [&] {
      return cloud_->SetQos(fig_.tenant, fig_.a_us_west, kQuotaBps);
    }), "set_qos");
    QuotaBinding binding;
    binding.qos = &cloud_->qos();
    binding.tenant = fig_.tenant;
    binding.region = fig_.a_us_west;
    const RegionSite& region = fig_.world->region(fig_.a_us_west);
    for (size_t z = 0; z < region.zones.size(); ++z) {
      binding.points.emplace_back(region.zones[z].host_node, z);
    }
    surface_->BindQuota(std::move(binding));
    cloud_->qos().AttachFlowSim(surface_.get());
  }

  void DeployBaseline() {
    net_ = std::make_unique<BaselineNetwork>(*fig_.world, config_);
    reach_base_ = std::make_unique<BaselineReachEngine>(*net_);
    const int64_t t0 = NowNs();
    Result<Fig1Baseline> built = BuildFig1Baseline(*net_, fig_);
    result_.vnet_build_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!built.ok()) {
      Fail("BuildFig1Baseline: " + built.status().message());
    }
  }

  // --- Connectors --------------------------------------------------------------

  // One connector call in either world: times `evaluate` (a world's
  // Evaluate, returning a Result of its delivery type), maps the delivery to
  // the workload's route, checks a seeded sample against `can_reach`, and
  // opens the path span for an admitted flow.
  template <typename EvaluateFn, typename CanReachFn>
  ResolvedRoute Connect(EvaluateFn&& evaluate, CanReachFn&& can_reach) {
    ResolvedRoute route;
    {
      SpanScope span(ledger_, Span::kEvaluate);
      const auto d = evaluate();
      if (!d.ok() || !d->delivered) {
        route.deny_stage = DenyStage(
            d.ok() ? (d->drop_stage.empty() ? "denied" : d->drop_stage)
                   : "instance-down");
      } else {
        route.allowed = true;
        route.src_node = d->src_node;
        route.dst_node = d->dst_node;
        route.policy = d->egress_policy;
      }
    }
    if (SampleOracle()) {
      SpanScope span(ledger_, Span::kCheck);
      CompareWithOracle(route, can_reach());
    }
    if (ledger_ != nullptr && route.allowed) {
      ledger_->MarkPathStart();
    }
    return route;
  }

  // Declarative verdict toward the SIP (to_sip) or the destination's EIP.
  ConnectorFn DeclConnector(bool to_sip) {
    return [this, to_sip](InstanceId src, InstanceId dst) {
      const IpAddress target = to_sip ? sip_ : eip_[dst];
      return Connect(
          [&] {
            return cloud_->Evaluate(src, target, kServicePort, Protocol::kTcp);
          },
          [&] {
            return reach_decl_->CanReach(src, target, kServicePort,
                                         Protocol::kTcp);
          });
    };
  }

  ConnectorFn BaselineConnector() {
    return [this](InstanceId src, InstanceId dst) {
      return Connect(
          [&] {
            return net_->Evaluate(src, dst, kServicePort, Protocol::kTcp);
          },
          [&] {
            return reach_base_->CanReach(src, dst, kServicePort,
                                         Protocol::kTcp);
          });
    };
  }

  // A seeded sample of connector calls, fixed per (seed, call index), so
  // traced and untraced episodes check the same calls.
  bool SampleOracle() {
    return Mix(seed_ ^ (++connector_calls_ * 0x9e37)) % kOracleEvery == 0;
  }

  // The reach engine, asked at the same simulated instant, must agree with
  // the verdict the connector handed the workload: same admit/deny, and for
  // a denial the same stage.
  void CompareWithOracle(const ResolvedRoute& route,
                         const ReachVerdict& verdict) {
    ++result_.oracle_checks;
    if (verdict.reachable == route.allowed &&
        (route.allowed || verdict.deny_stage == route.deny_stage)) {
      return;
    }
    if (++result_.oracle_disagreements <= 3) {
      Fail("reach oracle disagrees: workload " +
           std::string(route.allowed ? "allowed"
                                     : DenyStages().Name(route.deny_stage)) +
           ", CanReach " + verdict.ToString());
    }
  }

  // --- Patterns ------------------------------------------------------------------

  void AddDeclSteadyPatterns() {
    // The SIP pattern's destination list only feeds the workload's RNG; the
    // connector always dials the SIP.
    workload_->AddStreamingPattern(
        "spark->db-sip", fig_.spark, {fig_.database[0]},
        RateCurve::Diurnal(kDeclSparkRps, 0.3, span_), DeclConnector(true));
    workload_->AddStreamingPattern(
        "analytics->db", fig_.analytics, fig_.database,
        RateCurve::FlashCrowd(kDeclAnalyticsRps, 1.0, span_ * 0.3,
                              span_ * 0.1, span_ * 0.2),
        DeclConnector(false));
    workload_->AddStreamingPattern("web->db", fig_.web_eu, fig_.database,
                                   RateCurve::Constant(kDeclWebRps),
                                   DeclConnector(false));
  }

  void AddBaselinePatterns() {
    workload_->AddStreamingPattern(
        "spark->db", fig_.spark, fig_.database,
        RateCurve::Diurnal(kBaselineSparkRps, 0.3, span_), BaselineConnector());
    workload_->AddStreamingPattern("analytics->db", fig_.analytics,
                                   fig_.database,
                                   RateCurve::Constant(kBaselineAnalyticsRps),
                                   BaselineConnector());
    workload_->AddStreamingPattern("web->db", fig_.web_eu, fig_.database,
                                   RateCurve::Constant(kBaselineWebRps),
                                   BaselineConnector());
  }

  void AddQuotaTrunkPatterns() {
    workload_->AddStreamingPattern("spark->web-us", fig_.spark, fig_.web_us,
                                   RateCurve::Constant(kQuotaRps),
                                   DeclConnector(false));
    workload_->AddStreamingPattern("web-eu->analytics", fig_.web_eu,
                                   fig_.analytics,
                                   RateCurve::Constant(kTrunkRps),
                                   DeclConnector(false));
  }

  // --- Timed events and hooks ------------------------------------------------------

  // The quota epoch, and the data-plane feasibility check that rides on it:
  // no link may carry more than its capacity.
  void ScheduleEpoch() {
    queue_.ScheduleAfter(kQuotaEpoch, [this] {
      if (cloud_ != nullptr) {
        SpanScope span(ledger_, Span::kQosEpoch);
        cloud_->qos().RunEpoch(queue_.now());
      }
      CheckLinkUtilization();
      if (queue_.now() < arrivals_end_ || workload_->inflight() > 0) {
        ScheduleEpoch();
      }
    });
  }

  void CheckLinkUtilization() {
    SpanScope span(ledger_, Span::kCheck);
    const Topology& topology = fig_.world->topology();
    for (size_t i = 0; i < topology.link_count(); ++i) {
      const double u = surface_->LinkUtilization(LinkId(i + 1));
      result_.max_link_utilization = std::max(result_.max_link_utilization, u);
      if (u > 1 + 1e-9 && ++utilization_violations_ <= 3) {
        Fail("link " + std::to_string(i + 1) + " over capacity: " +
             std::to_string(u));
      }
    }
  }

  // decl_steady's control-plane writes beside the verdict reads.
  void ScheduleWrite() {
    queue_.ScheduleAfter(kDeclWriteInterval, [this] {
      Write();
      if (queue_.now() + kDeclWriteInterval < arrivals_end_) {
        ScheduleWrite();
      }
    });
  }

  void Write() {
    SpanScope span(ledger_, Span::kApiWrite);
    if (writes_++ % 2 == 0) {
      // Swap one host entry of one database endpoint for another analytics
      // host.
      const size_t i = rng_.NextU64(fig_.database.size());
      std::vector<IpAddress>& hosts = host_entries_[i];
      const size_t slot = rng_.NextU64(hosts.size());
      const IpAddress fresh =
          eip_[fig_.analytics[rng_.NextU64(fig_.analytics.size())]];
      if (std::find(hosts.begin(), hosts.end(), fresh) != hosts.end()) {
        return;
      }
      Expect(cloud_->UpdatePermitList(eip_[fig_.database[i]],
                                      {HostEntry(fresh)},
                                      {HostEntry(hosts[slot])}),
             "update_permit_list");
      hosts[slot] = fresh;
      return;
    }
    // Flap one spark member out of the group and back in.
    const size_t m = rng_.NextU64(fig_.spark.size());
    if (group_member_out_[m]) {
      return;
    }
    group_member_out_[m] = true;
    const IpAddress member = eip_[fig_.spark[m]];
    Expect(cloud_->RemoveFromEndpointGroup(group_, member),
           "remove_from_endpoint_group");
    queue_.ScheduleAfter(kDeclFlapHold, [this, m, member] {
      SpanScope span(ledger_, Span::kApiWrite);
      Expect(cloud_->AddToEndpointGroup(group_, member),
             "add_to_endpoint_group");
      group_member_out_[m] = false;
    });
  }

  void ScheduleStorm() {
    CloudWorld& world = *fig_.world;
    coordinator_ = std::make_unique<WarmRestartCoordinator>(
        queue_, metrics_, RestartMode::kWarm);
    const uint32_t routing =
        coordinator_->Register(MakeRoutingComponent("routing", *net_));

    FaultHooks hooks;
    // Each link fault re-runs route propagation, as E8b's baseline does.
    auto react = [this](const FaultSpec& spec) {
      SpanScope span(ledger_, Span::kFaultHook);
      if (spec.kind == FaultKind::kLinkDown ||
          spec.kind == FaultKind::kGatewayRestart) {
        SpanScope propagate(ledger_, Span::kPropagate);
        (void)net_->PropagateRoutes();
      }
    };
    hooks.on_inject = react;
    hooks.on_recover = react;
    coordinator_->WireHooks(hooks);
    hooks.on_restart_begin = [this, begin = hooks.on_restart_begin](
                                 const FaultSpec& spec) {
      SpanScope span(ledger_, Span::kRestart);
      begin(spec);
    };
    hooks.on_restart_complete = [this, complete = hooks.on_restart_complete](
                                    const FaultSpec& spec) {
      const int64_t t0 = NowNs();
      {
        SpanScope span(ledger_, Span::kRestart);
        complete(spec);
      }
      result_.restart_complete_ns = static_cast<double>(NowNs() - t0);
    };
    injector_ = std::make_unique<FaultInjector>(
        queue_, world.topology(), *surface_, &world, metrics_,
        std::move(hooks));

    StormParams storm;
    storm.event_count = kStormEvents;
    storm.window = SimDuration::Seconds(kStormWindowS);
    storm.min_duration = SimDuration::Millis(100);
    storm.max_duration = SimDuration::Seconds(2);
    storm.include_control_plane = false;
    const Topology& topology = world.topology();
    for (size_t i = 0; i < topology.link_count(); ++i) {
      if (topology.link(LinkId(i + 1)).cls == LinkClass::kPublicInternet) {
        storm.links.push_back(LinkId(i + 1));
      }
    }
    storm.instances = fig_.spark;
    storm.instances.insert(storm.instances.end(), fig_.database.begin(),
                           fig_.database.end());
    injector_->Schedule(FaultSchedule::Storm(Mix(seed_ ^ 0x570c), storm));

    FaultSpec restart;
    restart.kind = FaultKind::kControlPlaneRestart;
    restart.at = SimDuration::Seconds(kRestartAtS);
    restart.duration = kRestartOutage;
    restart.component = routing;
    injector_->Schedule(FaultSchedule{{restart}});
  }

  // --- Measured phase ----------------------------------------------------------------

  void Measure() {
    if (ledger_ == nullptr) {
      queue_.RunAll();
      return;
    }
    ledger_->Open(Span::kEventQueue);
    while (true) {
      const uint64_t epoch = VerdictEpochs();
      const bool fired = queue_.Step();
      // The control plane's edge installs are events of their own that open
      // no span; an applied install moves its bank's verdict epoch.
      if (VerdictEpochs() != epoch) {
        ledger_->ClaimEvent(Span::kInstall);
      }
      ledger_->ClosePath(1);  // forward ResolvePath failed in this event
      if (!fired) {
        break;
      }
      ledger_->NextEvent();
      ++result_.events;
    }
    ledger_->Close();
  }

  // Sum of both providers' edge-filter verdict epochs; 0 in the baseline.
  uint64_t VerdictEpochs() const {
    if (cloud_ == nullptr) {
      return 0;
    }
    return cloud_->provider_filters(fig_.cloud_a).verdict_epoch() +
           cloud_->provider_filters(fig_.cloud_b).verdict_epoch();
  }

  // --- Drain and correctness checks, outcome fingerprint ---------------------------

  void Check() {
    std::string text;
    auto add = [&text](const char* key, uint64_t v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 ";", key, v);
      text += buf;
    };
    for (size_t p = 0; p < workload_->pattern_count(); ++p) {
      const PatternStats& s = workload_->stats(p);
      if (s.attempted != s.completed + s.denied + s.gave_up) {
        Fail("pattern " + workload_->pattern_name(p) +
             ": attempted != completed + denied + gave_up");
      }
      result_.attempted += s.attempted;
      result_.completed += s.completed;
      result_.denied += s.denied;
      result_.gave_up += s.gave_up;
      result_.retries += s.retries;
      for (const auto& [stage, count] : s.DenyByStage()) {
        result_.deny_by_stage[stage] += count;
      }
      text += workload_->pattern_name(p) + ":";
      add("att", s.attempted);
      add("cmp", s.completed);
      add("den", s.denied);
      add("abt", s.aborted);
      add("ret", s.retries);
      add("gvu", s.gave_up);
      add("bytes", Bits(s.bytes_transferred));
      add("lat_n", s.latency_ms.count());
      add("lat_p50", Bits(s.latency_ms.P50()));
      add("lat_p99", Bits(s.latency_ms.P99()));
      add("lat_max", Bits(s.latency_ms.max()));
    }
    for (const auto& [stage, count] : result_.deny_by_stage) {
      text += "deny." + stage + "=" + std::to_string(count) + ";";
    }

    result_.left_inflight = workload_->inflight();
    if (result_.left_inflight != 0) {
      Fail("transactions left in flight after drain");
    }
    if (surface_->active_flow_count() != 0) {
      Fail("flows still active after drain");
    }
    if (surface_->stalled_flow_count() != 0) {
      Fail("flows stalled on a downed link after drain");
    }
    if (surface_->quota_errors() != 0) {
      Fail("EgressQuotaManager::RegisterFlow refused a flow");
    }
    std::vector<double> latencies = surface_->latencies_ms();
    if (latencies.size() != result_.completed) {
      Fail("latency probe saw a different number of completions");
    }
    if (injector_ != nullptr) {
      if (!injector_->AllRecovered()) {
        Fail("a fault never reconverged");
      }
      if (coordinator_->restarts_completed() != 1) {
        Fail("the routing restart did not complete exactly once");
      }
      // The reconciled routing state must equal a from-scratch rebuild.
      RoutingSnapshot reconciled = net_->CheckpointRouting();
      (void)net_->PropagateRoutesFull();
      if (!(net_->CheckpointRouting() == reconciled)) {
        Fail("reconciled routing state differs from a full rebuild");
      }
      result_.faults_injected = injector_->faults_injected();
      result_.restart_deltas = coordinator_->total().deltas_applied;
    }
    result_.failed = result_.gave_up + result_.left_inflight +
                     result_.oracle_disagreements;

    result_.sim_latency_p50_ms = ExactQuantile(latencies, 0.50);
    result_.sim_latency_p99_ms = ExactQuantile(latencies, 0.99);
    add("p50", Bits(result_.sim_latency_p50_ms));
    add("p99", Bits(result_.sim_latency_p99_ms));
    add("delivered", Bits(surface_->total_bytes_delivered()));
    add("reallocs", sim_->reallocation_count());
    add("resched", sim_->flows_rescheduled());
    add("aborted", sim_->flows_aborted());
    add("recaps", surface_->recaps());
    add("oracle", result_.oracle_checks);
    add("faults", result_.faults_injected);
    result_.fingerprint_text = text;
    uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a
    for (unsigned char c : text) {
      hash = (hash ^ c) * 0x100000001b3ull;
    }
    result_.fingerprint = hash;

    result_.reallocs = sim_->reallocation_count();
    result_.reschedules = sim_->flows_rescheduled();
    result_.full_fills = sim_->full_fills();
    result_.touched_mean = sim_->mean_flows_touched_per_realloc();
    result_.realloc_total_us = sim_->realloc_micros_histogram().sum();
    result_.realloc_in_spans_us = surface_->realloc_in_spans_us();
    result_.peak_active = surface_->peak_active();
    result_.recaps = surface_->recaps();
    result_.flows_aborted = sim_->flows_aborted();
    result_.bytes_blackholed = sim_->bytes_blackholed();
    if (cloud_ != nullptr) {
      for (ProviderId provider : {fig_.cloud_a, fig_.cloud_b}) {
        const VerdictCacheStats& stats =
            cloud_->provider_filters(provider).verdict_cache_stats();
        result_.filter_lookups += stats.lookups;
        result_.filter_hits += stats.hits;
      }
    }
    if (net_ != nullptr) {
      const VerdictCacheStats& stats = net_->evaluate_cache_stats();
      result_.fabric_lookups = stats.lookups;
      result_.fabric_hits = stats.hits;
    }
  }

  // --- Error plumbing ------------------------------------------------------------------

  void Fail(const std::string& what) { result_.errors.push_back(what); }
  void Expect(const Status& status, const char* what) {
    if (!status.ok()) {
      Fail(std::string(what) + ": " + status.message());
    }
  }
  template <typename T>
  void Expect(const Result<T>& result, const char* what) {
    if (!result.ok()) {
      Fail(std::string(what) + ": " + result.status().message());
    }
  }
  template <typename T>
  T Require(Result<T> result, const char* what) {
    if (!result.ok()) {
      std::fprintf(stderr, "e2e: %s failed: %s\n", what,
                   result.status().message().c_str());
      std::exit(1);
    }
    return *std::move(result);
  }

  const Workload kind_;
  const uint64_t seed_;
  EpisodeResult result_;
  Ledger* ledger_;
  Rng rng_;  // deployment choices and control-plane writes

  // Declaration order is teardown order in reverse: everything below holds
  // references into the members above it.
  Fig1World fig_;
  EventQueue queue_;
  std::unique_ptr<FlowSim> sim_;
  std::unique_ptr<TracedSurface> surface_;
  ConfigLedger config_;
  MetricRegistry metrics_;
  std::unique_ptr<DeclarativeCloud> cloud_;
  std::unique_ptr<BaselineNetwork> net_;
  std::unique_ptr<DeclarativeReachEngine> reach_decl_;
  std::unique_ptr<BaselineReachEngine> reach_base_;
  std::unique_ptr<WarmRestartCoordinator> coordinator_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<RequestWorkload> workload_;

  std::unordered_map<InstanceId, IpAddress> eip_;
  IpAddress sip_;
  EndpointGroupId group_;
  std::vector<std::vector<IpAddress>> host_entries_;  // per database endpoint
  std::vector<bool> group_member_out_;                // per spark instance
  SimDuration span_;
  SimTime arrivals_end_;
  uint64_t connector_calls_ = 0;
  uint64_t writes_ = 0;
  uint64_t utilization_violations_ = 0;
};

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "decl_steady") {
    *out = Workload::kDeclSteady;
  } else if (name == "baseline_storm") {
    *out = Workload::kBaselineStorm;
  } else if (name == "quota_trunk") {
    *out = Workload::kQuotaTrunk;
  } else {
    return false;
  }
  return true;
}

bool IsDeclarative(Workload workload) {
  return workload != Workload::kBaselineStorm;
}

EpisodeResult RunEpisode(Workload workload, uint64_t seed, bool traced) {
  return Episode(workload, seed, traced).Run();
}

}  // namespace e2e
