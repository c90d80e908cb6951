// tenantnetctl — a line-oriented shell over the declarative API.
//
// Drives a simulated world with the Table 2 verbs, for exploration and
// scripting:
//
//   $ ./build/tools/tenantnetctl <<'EOF'
//   world test
//   launch 0
//   launch 1
//   eip 1
//   eip 2
//   permit <eip-of-2> <eip-of-1>/32 443
//   eval 1 <eip-of-2> 443
//   ledger
//   EOF
//
// Every command is one line; `help` lists them. Errors never exit the
// shell; they print and continue (exit status reports whether any command
// failed, so scripts can assert).

#include <charconv>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cloud/presets.h"
#include "src/core/api.h"

namespace tenantnet {
namespace {

class Shell {
 public:
  // Returns false if any command reported an error.
  bool Run(std::istream& in) {
    std::string line;
    bool all_ok = true;
    while (std::getline(in, line)) {
      std::string trimmed = Strip(line);
      if (trimmed.empty() || trimmed[0] == '#') {
        continue;
      }
      if (trimmed == "quit" || trimmed == "exit") {
        break;
      }
      if (!Dispatch(trimmed)) {
        all_ok = false;
      }
    }
    return all_ok;
  }

 private:
  static std::string Strip(const std::string& s) {
    size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) {
      return "";
    }
    size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
  }

  static std::vector<std::string> Split(const std::string& s) {
    std::istringstream is(s);
    std::vector<std::string> out;
    std::string token;
    while (is >> token) {
      out.push_back(token);
    }
    return out;
  }

  // Every numeric argument: the whole token must read as a T, or nullopt.
  // A port reads as a uint16_t, so 70000 is refused rather than wrapped.
  template <typename T>
  static std::optional<T> Number(const std::string& text) {
    T value{};
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      return std::nullopt;
    }
    return value;
  }

  bool Fail(const std::string& message) {
    std::printf("error: %s\n", message.c_str());
    return false;
  }

  bool NeedWorld() { return world_ != nullptr; }

  bool Dispatch(const std::string& line) {
    std::vector<std::string> args = Split(line);
    const std::string& cmd = args[0];
    if (cmd == "help") {
      return Help();
    }
    if (cmd == "world") {
      return CmdWorld(args);
    }
    if (world_ == nullptr) {
      return Fail("no world yet; run `world test` or `world fig1`");
    }
    if (cmd == "regions") {
      return CmdRegions();
    }
    if (cmd == "launch") {
      return CmdLaunch(args);
    }
    if (cmd == "eip") {
      return CmdEip(args);
    }
    if (cmd == "release") {
      return CmdRelease(args);
    }
    if (cmd == "sip") {
      return CmdSip(args);
    }
    if (cmd == "bind" || cmd == "unbind") {
      return CmdBind(args, cmd == "bind");
    }
    if (cmd == "permit") {
      return CmdPermit(args);
    }
    if (cmd == "permit-clear") {
      return CmdPermitClear(args);
    }
    if (cmd == "qos") {
      return CmdQos(args);
    }
    if (cmd == "profile") {
      return CmdProfile(args);
    }
    if (cmd == "eval") {
      return CmdEval(args);
    }
    if (cmd == "external") {
      return CmdExternal(args);
    }
    if (cmd == "ledger") {
      std::printf("%s\n", ledger_.Summary().c_str());
      return true;
    }
    if (cmd == "dot") {
      std::printf("%s", world_->topology().ToDot().c_str());
      return true;
    }
    return Fail("unknown command `" + cmd + "` (try `help`)");
  }

  bool Help() {
    std::printf(
        "world test|fig1             build a preset world\n"
        "regions                     list regions (index, provider, name)\n"
        "launch <region#> [zone]     launch an instance -> instance #\n"
        "eip <instance#>             request_eip\n"
        "release <addr>              release_eip\n"
        "sip [provider#]             request_sip\n"
        "bind <eip> <sip> [weight]   bind\n"
        "unbind <eip> <sip>\n"
        "permit <eip> <prefix> [port [tcp|udp]]   append a permit entry\n"
        "permit-clear <eip>          install an empty list (default-off)\n"
        "qos <region#> <bps>         set_qos\n"
        "profile hot|cold            egress transit profile\n"
        "eval <instance#> <addr> <port>\n"
        "external <src-addr> <dst-addr> <port>\n"
        "ledger | dot | quit\n");
    return true;
  }

  bool CmdWorld(const std::vector<std::string>& args) {
    if (args.size() != 2 || (args[1] != "test" && args[1] != "fig1")) {
      return Fail("usage: world test|fig1");
    }
    if (args[1] == "test") {
      TestWorld tw = BuildTestWorld();
      world_ = std::move(tw.world);
      tenant_ = tw.tenant;
    } else {
      Fig1World fig = BuildFig1World();
      world_ = std::move(fig.world);
      tenant_ = fig.tenant;
    }
    cloud_ = std::make_unique<DeclarativeCloud>(*world_, ledger_);
    instances_.clear();
    std::printf("world ready: %zu regions, %zu nodes, tenant #%llu\n",
                world_->region_count(), world_->topology().node_count(),
                static_cast<unsigned long long>(tenant_.value()));
    return true;
  }

  bool CmdRegions() {
    for (size_t i = 1; i <= world_->region_count(); ++i) {
      const RegionSite& region = world_->region(RegionId(i));
      std::printf("  %zu: %s:%s (%zu zones)\n", i - 1,
                  world_->provider(region.provider).name.c_str(),
                  region.name.c_str(), region.zones.size());
    }
    return true;
  }

  bool CmdLaunch(const std::vector<std::string>& args) {
    if (args.size() < 2) {
      return Fail("usage: launch <region#> [zone]");
    }
    auto region_index = Number<size_t>(args[1]);
    if (!region_index || *region_index >= world_->region_count()) {
      return Fail("no such region");
    }
    RegionId region(*region_index + 1);
    std::optional<int> zone = args.size() > 2 ? Number<int>(args[2]) : 0;
    if (!zone) {
      return Fail("bad zone");
    }
    auto inst = world_->LaunchInstance(tenant_, world_->region(region).provider,
                                       region, *zone);
    if (!inst.ok()) {
      return Fail(inst.status().ToString());
    }
    instances_.push_back(*inst);
    std::printf("instance %zu\n", instances_.size());
    return true;
  }

  Result<InstanceId> InstanceArg(const std::string& arg) {
    auto index = Number<size_t>(arg);
    if (!index || *index == 0 || *index > instances_.size()) {
      return NotFoundError("no such instance # (see `launch`)");
    }
    return instances_[*index - 1];
  }

  bool CmdEip(const std::vector<std::string>& args) {
    if (args.size() != 2) {
      return Fail("usage: eip <instance#>");
    }
    auto inst = InstanceArg(args[1]);
    if (!inst.ok()) {
      return Fail(inst.status().ToString());
    }
    auto eip = cloud_->RequestEip(*inst);
    if (!eip.ok()) {
      return Fail(eip.status().ToString());
    }
    std::printf("%s\n", eip->ToString().c_str());
    return true;
  }

  bool CmdRelease(const std::vector<std::string>& args) {
    if (args.size() != 2) {
      return Fail("usage: release <addr>");
    }
    auto addr = IpAddress::Parse(args[1]);
    if (!addr.ok()) {
      return Fail(addr.status().ToString());
    }
    Status status = cloud_->ReleaseEip(*addr);
    if (!status.ok()) {
      return Fail(status.ToString());
    }
    std::printf("released\n");
    return true;
  }

  bool CmdSip(const std::vector<std::string>& args) {
    std::optional<size_t> provider_index =
        args.size() > 1 ? Number<size_t>(args[1]) : 0;
    if (!provider_index || *provider_index >= world_->provider_count()) {
      return Fail("no such provider");
    }
    auto sip = cloud_->RequestSip(tenant_, ProviderId(*provider_index + 1));
    if (!sip.ok()) {
      return Fail(sip.status().ToString());
    }
    std::printf("%s\n", sip->ToString().c_str());
    return true;
  }

  bool CmdBind(const std::vector<std::string>& args, bool bind) {
    if (args.size() < 3) {
      return Fail("usage: (un)bind <eip> <sip> [weight]");
    }
    auto eip = IpAddress::Parse(args[1]);
    auto sip = IpAddress::Parse(args[2]);
    if (!eip.ok() || !sip.ok()) {
      return Fail("bad address");
    }
    std::optional<double> weight =
        args.size() > 3 ? Number<double>(args[3]) : 1.0;
    if (!weight) {
      return Fail("bad weight");
    }
    Status status = bind ? cloud_->Bind(*eip, *sip, *weight)
                         : cloud_->Unbind(*eip, *sip);
    if (!status.ok()) {
      return Fail(status.ToString());
    }
    std::printf("ok\n");
    return true;
  }

  bool CmdPermit(const std::vector<std::string>& args) {
    if (args.size() < 3) {
      return Fail("usage: permit <eip> <prefix> [port [tcp|udp]]");
    }
    auto eip = IpAddress::Parse(args[1]);
    if (!eip.ok()) {
      return Fail("bad eip");
    }
    // Accept a bare address as a host prefix.
    std::string prefix_text = args[2];
    if (prefix_text.find('/') == std::string::npos) {
      prefix_text += "/32";
    }
    auto prefix = IpPrefix::Parse(prefix_text);
    if (!prefix.ok()) {
      return Fail(prefix.status().ToString());
    }
    PermitEntry entry;
    entry.source = *prefix;
    if (args.size() > 3) {
      auto port = Number<uint16_t>(args[3]);
      if (!port) {
        return Fail("bad port (0-65535)");
      }
      entry.dst_ports = PortRange::Single(*port);
    }
    if (args.size() > 4) {
      entry.proto = args[4] == "udp" ? Protocol::kUdp : Protocol::kTcp;
    }
    auto when = cloud_->UpdatePermitList(*eip, {entry}, {});
    if (!when.ok()) {
      return Fail(when.status().ToString());
    }
    std::printf("permitted\n");
    return true;
  }

  bool CmdPermitClear(const std::vector<std::string>& args) {
    if (args.size() != 2) {
      return Fail("usage: permit-clear <eip>");
    }
    auto eip = IpAddress::Parse(args[1]);
    if (!eip.ok()) {
      return Fail("bad eip");
    }
    auto when = cloud_->SetPermitList(*eip, {});
    if (!when.ok()) {
      return Fail(when.status().ToString());
    }
    std::printf("default-off\n");
    return true;
  }

  bool CmdQos(const std::vector<std::string>& args) {
    if (args.size() != 3) {
      return Fail("usage: qos <region#> <bps>");
    }
    auto region_index = Number<size_t>(args[1]);
    if (!region_index || *region_index >= world_->region_count()) {
      return Fail("no such region");
    }
    auto bps = Number<double>(args[2]);
    if (!bps) {
      return Fail("bad bandwidth");
    }
    Status status =
        cloud_->SetQos(tenant_, RegionId(*region_index + 1), *bps);
    if (!status.ok()) {
      return Fail(status.ToString());
    }
    std::printf("ok\n");
    return true;
  }

  bool CmdProfile(const std::vector<std::string>& args) {
    if (args.size() != 2 || (args[1] != "hot" && args[1] != "cold")) {
      return Fail("usage: profile hot|cold");
    }
    Status status = cloud_->SetEgressProfile(
        tenant_, args[1] == "hot" ? EgressPolicy::kHotPotato
                                  : EgressPolicy::kColdPotato);
    if (!status.ok()) {
      return Fail(status.ToString());
    }
    std::printf("ok\n");
    return true;
  }

  bool CmdEval(const std::vector<std::string>& args) {
    if (args.size() != 4) {
      return Fail("usage: eval <instance#> <addr> <port>");
    }
    auto src = InstanceArg(args[1]);
    auto dst = IpAddress::Parse(args[2]);
    if (!src.ok() || !dst.ok()) {
      return Fail("bad source instance or destination address");
    }
    auto port = Number<uint16_t>(args[3]);
    if (!port) {
      return Fail("bad port (0-65535)");
    }
    PrintDelivery(
        cloud_->Evaluate(*src, *dst, *port, Protocol::kTcp).value());
    return true;
  }

  bool CmdExternal(const std::vector<std::string>& args) {
    if (args.size() != 4) {
      return Fail("usage: external <src-addr> <dst-addr> <port>");
    }
    auto src = IpAddress::Parse(args[1]);
    auto dst = IpAddress::Parse(args[2]);
    if (!src.ok() || !dst.ok()) {
      return Fail("bad address");
    }
    auto port = Number<uint16_t>(args[3]);
    if (!port) {
      return Fail("bad port (0-65535)");
    }
    PrintDelivery(cloud_->EvaluateExternal(*src, *dst, *port, Protocol::kTcp));
    return true;
  }

  void PrintDelivery(const DeclarativeDelivery& d) {
    if (d.delivered) {
      std::printf("DELIVERED to %s (%s)\n",
                  d.effective_dst.ToString().c_str(),
                  std::string(EgressPolicyName(d.egress_policy)).c_str());
    } else {
      std::printf("DROPPED at %s: %s\n", std::string(d.drop_stage).c_str(),
                  Explain(d).c_str());
    }
  }

  std::unique_ptr<CloudWorld> world_;
  std::unique_ptr<DeclarativeCloud> cloud_;
  ConfigLedger ledger_;
  TenantId tenant_;
  std::vector<InstanceId> instances_;
};

}  // namespace
}  // namespace tenantnet

int main() {
  tenantnet::Shell shell;
  return shell.Run(std::cin) ? 0 : 1;
}
