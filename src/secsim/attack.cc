#include "src/secsim/attack.h"

namespace tenantnet {

std::string_view AttackKindName(AttackKind kind) {
  switch (kind) {
    case AttackKind::kVolumetricFlood:
      return "volumetric-flood";
    case AttackKind::kPortScan:
      return "port-scan";
    case AttackKind::kUnauthorizedAccess:
      return "unauthorized-access";
    case AttackKind::kStolenCredential:
      return "stolen-credential";
  }
  return "?";
}

AttackOutcome RunAttack(const AttackConfig& config, NetworkCheckFn network,
                        AppCheckFn app_check) {
  // Spoofed/botnet source space for floods and scans, and the payload of
  // every probe.
  static const IpPrefix kBotnet = *IpPrefix::Parse("203.0.0.0/16");
  static const std::string kPayload = "GET /";
  Rng rng(config.seed);
  AttackOutcome outcome;
  outcome.attempts = config.attempts;

  for (uint64_t i = 0; i < config.attempts; ++i) {
    FiveTuple flow;
    flow.dst = config.target;
    flow.proto = Protocol::kTcp;
    flow.src_port = static_cast<uint16_t>(1024 + rng.NextU64(60000));

    switch (config.kind) {
      case AttackKind::kVolumetricFlood:
        flow.src = kBotnet.AddressAt(
            rng.NextU64(kBotnet.AddressCount()));
        flow.dst_port = config.target_port;
        break;
      case AttackKind::kPortScan:
        flow.src = kBotnet.AddressAt(17);  // single scanning host
        flow.dst_port = static_cast<uint16_t>(1 + (i % 65535));
        break;
      case AttackKind::kUnauthorizedAccess:
        flow.src = config.insider_source;
        flow.dst_port = config.target_port;
        break;
      case AttackKind::kStolenCredential:
        flow.src = kBotnet.AddressAt(
            rng.NextU64(kBotnet.AddressCount()));
        flow.dst_port = config.target_port;
        break;
    }

    NetworkVerdict verdict = network(flow, kPayload);
    if (!verdict.delivered) {
      ++outcome.dropped_by_stage[verdict.stage];
      continue;
    }
    ++outcome.reached_endpoint;

    if (!app_check) {
      continue;
    }
    ApiRequest request;
    request.method = "POST";
    request.path = "/api/v1/query";
    request.token = config.token;
    request.body = kPayload;
    GatewayVerdict app = app_check(request);
    if (app == GatewayVerdict::kAccepted) {
      ++outcome.served;
    } else {
      ++outcome.app_rejections[std::string(GatewayVerdictName(app))];
    }
  }
  return outcome;
}

}  // namespace tenantnet
