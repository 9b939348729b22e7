// world_tick: one OpenSpace world tick, measured end to end and per layer.
//
// A tick composes the library's public calls in the order a running
// deployment would make them every 15 s (the paper's handover-cadence
// anchor):
//
//   orbit     SnapshotCache::global().at(eph, t)
//   coverage  FootprintIndex2::compiled(snapshot, mask)
//   topology  IncrementalTopology::step(t)            (delay cost model)
//   routing   RouteEngine(graph) + one tree per gateway, repaired across ticks
//   session   HandoverSweep::runEpoch + seed() of the tick's arrivals
//   sim       FlowSimulator: one downlink Poisson flow per active user
//   econ      SettlementEngine::recordRouteTraffic per (route, owner)
//
// The load is a closed loop: a tick starts when the previous one returns,
// and simulated time advances 15 s per tick. A run repeats whole passes —
// set-up, a cold first tick, then timed ticks — from the same seed a fixed
// number of times per workload, so every pass must produce the same output
// digest. Checks run outside the tick timer. See README.md for the
// workloads, the metrics and how to read the trace.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/econ/ledger.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/flow_sim.hpp>
#include <openspace/sim/scenario.hpp>
#include <openspace/topology/delta.hpp>

#include "trace.hpp"
#include "world.hpp"

namespace {

using namespace openspace;
using namespace worldbench;
using Clock = std::chrono::steady_clock;

constexpr double kTickS = 15.0;          // simulated seconds per tick
constexpr double kFlowWindowS = 0.5;     // traffic window simulated per tick
constexpr double kUserRateBps = 10e3;    // per active world user
constexpr double kPacketBits = 12'000.0;
constexpr UserId kActiveEvery = 10;      // every 10th user sends traffic
constexpr double kFacadeEpochS = 1.0;
constexpr double kFacadeRateBps = 20e3;
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- workloads --------------------------------------------------------------

struct Workload {
  const char* name = "";
  bool facade = false;     ///< Scenario facade instead of a composed tick.
  bool megashell = false;  ///< 10k multi-shell fleet instead of Iridium.
  double fleetScale = 1.0;
  std::size_t users = 0;   ///< Sessions seeded at set-up (facade: users).
  std::size_t arrivalsPerTick = 0;
  int ticksPerPass = 0;    ///< Including the cold first tick.
  int checkEvery = 0;      ///< Graph/tree checks on ticks k % checkEvery == 0.
  /// Passes that go on to tick. A fixed count, not one that fits --seconds,
  /// so the tick sample and its tail percentile do not depend on speed.
  int passes = 1;
  /// Set-ups timed for setup_s (>= passes): the first `passes` go on to
  /// tick, the rest end after their cold tick.
  int setups = 1;
};

std::optional<Workload> findWorkload(const std::string& name, bool tiny) {
  // A pass is 15 simulated minutes: the cold tick plus 60 timed ticks,
  // which spans two of the 10k fleet's handover waves. Full-scale counts
  // are sized so a run takes 30-45 s on a 4-vCPU x86-64 VM.
  if (name == "iridium_users") {
    return tiny ? Workload{"iridium_users", false, false, 1.0, 2'000, 20, 6, 2, 2, 3}
                : Workload{"iridium_users", false, false, 1.0, 200'000, 1'000, 61, 10, 4, 9};
  }
  if (name == "megashell_10k") {
    return tiny ? Workload{"megashell_10k", false, true, 0.05, 500, 5, 6, 2, 2, 3}
                : Workload{"megashell_10k", false, true, 1.0, 10'000, 50, 61, 30, 2, 15};
  }
  if (name == "scenario_facade") {
    return tiny ? Workload{"scenario_facade", true, false, 1.0, 30, 0, 6, 1, 2, 3}
                : Workload{"scenario_facade", true, false, 1.0, 1'000, 0, 61, 1, 2, 11};
  }
  return std::nullopt;
}

// --- per-tick records -------------------------------------------------------

enum Stage {
  kOrbit,
  kCoverage,
  kTopology,
  kRouting,
  kSessionEpoch,
  kSessionSeed,
  kSimBuild,
  kSimRun,
  kEconRecord,
  kScenarioEpoch,
  kStageCount
};
constexpr const char* kStageNames[kStageCount] = {
    "orbit",    "coverage",     "topology",  "routing", "session.epoch",
    "session.seed", "sim.build", "sim.run",  "econ.record", "sim.scenario"};

/// What one tick did: stage self times (traced ticks only) and the counts
/// the library's own result structs report.
struct TickRecord {
  bool traced = false;
  double wallMs = 0.0;
  double stageMs[kStageCount] = {};
  std::size_t snapshotHits = 0;
  std::size_t snapshotLookups = 0;
  std::size_t indexCacheBytes = 0;
  std::size_t links = 0;
  std::size_t linksChanged = 0;
  bool structural = false;
  std::size_t repairsAttempted = 0;
  std::size_t repairs = 0;
  std::size_t queuePops = 0;
  const char* fallbackReason = nullptr;  ///< Of the tick's last fallen-back repair.
  std::size_t handovers = 0;
  std::size_t touched = 0;
  std::size_t certHits = 0;
  std::size_t certMisses = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t dropped = 0;
  std::size_t routesRecorded = 0;
};

/// Times stage calls of one tick: with a tracer, each call becomes a span
/// under the tick span and its duration lands in the record; without one,
/// the call runs bare.
class StageClock {
 public:
  StageClock(Tracer* tracer, int tickSpan, std::uint64_t traceId,
             TickRecord& rec)
      : tracer_(tracer), tickSpan_(tickSpan), traceId_(traceId), rec_(rec) {}

  template <typename F>
  decltype(auto) run(Stage stage, F&& fn) {
    if (tracer_ == nullptr) return fn();
    const Scope scope(*this, stage);
    return fn();
  }

 private:
  struct Scope {
    Scope(StageClock& c, Stage s)
        : clock(c), stage(s),
          span(c.tracer_->open(kStageNames[s], c.tickSpan_, c.traceId_)) {}
    ~Scope() {
      clock.tracer_->close(span);
      const Tracer::Span& sp = clock.tracer_->spans()[static_cast<std::size_t>(span)];
      clock.rec_.stageMs[stage] += (sp.endUs - sp.startUs) / 1000.0;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    StageClock& clock;
    Stage stage;
    int span;
  };

  Tracer* tracer_;
  int tickSpan_;
  std::uint64_t traceId_;
  TickRecord& rec_;
};

/// What a pass's answers add up to (reported, folded into the digest, never
/// timed).
struct Answers {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double latencySumS = 0.0;  ///< Sum over delivered packets.
  std::size_t handovers = 0;
  std::size_t unrouted = 0;  ///< Active users with no route to a home gateway.
  double settlementUsd = 0.0;
};

/// One pass: set-up in the constructor, then tick(0) (cold), tick(1)...
class Pass {
 public:
  virtual ~Pass() = default;
  /// The timed tick k at simulated time kTickS * (k + 1).
  virtual void tick(int k, StageClock& clock, TickRecord& rec) = 0;
  /// Untimed checks of the tick just run (the costly ones only when
  /// `sampled`); empty string when all hold.
  virtual std::string check(bool sampled) = 0;
  /// End of pass: settlement (timed into settleMs) and the final folds;
  /// empty string when its checks hold.
  virtual std::string finish(double& settleMs) = 0;
  virtual std::size_t satellites() const = 0;
  virtual std::size_t tableBytes() const { return 0; }

  std::uint64_t digest() const noexcept { return digest_; }
  const Answers& answers() const noexcept { return answers_; }

 protected:
  void fold(std::uint64_t v) noexcept { digest_ = fnv1a(digest_, v); }
  void foldDouble(double v) noexcept { fold(bitsOf(v)); }

  std::uint64_t digest_ = kFnvOffsetBasis;
  Answers answers_;
};

// --- the composed world tick -------------------------------------------------

class WorldPass final : public Pass {
 public:
  WorldPass(const Workload& w, std::uint64_t seed) : seed_(seed) {
    if (w.megashell) {
      publishMegashell(eph_, w.fleetScale);
      opt_.wiring = IslWiring::NearestNeighbors;
      opt_.nearestK = 4;
      opt_.maxIslRangeM = 1.2e6;
    } else {
      publishIridium(eph_);
      opt_.wiring = IslWiring::PlusGrid;
      opt_.planes = 6;
    }
    opt_.minElevationRad = kMinElevationRad;
    topo_ = std::make_unique<TopologyBuilder>(eph_);
    gateways_ = addGateways(*topo_);
    for (std::size_t g = 0; g < kGatewayCount; ++g) {
      gatewaysOf_[gatewayOwner(g)].push_back(g);
    }
    for (const SatelliteId sid : eph_.satellites()) {
      satNodes_.push_back(topo_->nodeOf(sid));
    }
    ownership_ = ownershipGraph(eph_, *topo_, gateways_);
    inc_ = std::make_unique<IncrementalTopology>(*topo_, opt_, delayCostModel());
    trees_.resize(kGatewayCount);
    pathOfKey_.assign(satNodes_.size() * kProviders, kNone);
    for (std::size_t p = 0; p < kProviders; ++p) {
      econ_.addProvider(providerId(p));
      econ_.setTariff({providerId(p), ProviderId{}, 0.05});
    }

    SweepConfig sweepCfg;
    sweepCfg.minElevationRad = kMinElevationRad;
    sweep_ = std::make_unique<HandoverSweep>(eph_, sweepCfg);
    table_ = std::make_unique<SessionTable>(satNodes_.size());

    Rng rng(seed);
    const std::vector<SessionSeed> initial =
        sampleSessionSeeds(w.users, /*firstUser=*/1, rng);
    arrivals_.resize(static_cast<std::size_t>(w.ticksPerPass));
    UserId next = w.users + 1;
    for (auto& batch : arrivals_) {
      batch = sampleSessionSeeds(w.arrivalsPerTick, next, rng);
      next += w.arrivalsPerTick;
    }
    sweep_->seed(*table_, initial, 0.0, SeedMode::ClosestAssociation);
    addActive(initial);
  }

  void tick(int k, StageClock& clock, TickRecord& rec) override {
    const double t = kTickS * (k + 1);
    const std::size_t hits0 = SnapshotCache::global().hits();
    const std::size_t misses0 = SnapshotCache::global().misses();

    const auto snapshot = clock.run(
        kOrbit, [&] { return SnapshotCache::global().at(eph_, t); });
    clock.run(kCoverage, [&] {
      return FootprintIndex2::compiled(snapshot, kMinElevationRad);
    });
    rec.indexCacheBytes = FootprintIndex2::compiledCacheApproxBytes();

    const TopologyDelta delta =
        clock.run(kTopology, [&]() -> TopologyDelta { return inc_->step(t); });
    rec.links = delta.linkCount;
    rec.linksChanged = delta.addedLinks + delta.removedLinks + delta.costChangedLinks;
    rec.structural = delta.structural;

    clock.run(kRouting, [&] {
      const RouteEngine engine(inc_->graph());
      for (std::size_t g = 0; g < kGatewayCount; ++g) {
        if (!trees_[g].valid()) {
          trees_[g] = engine.shortestPathTree(gateways_[g]);
          continue;
        }
        TreeRepairStats stats;
        trees_[g] = engine.repairShortestPathTree(trees_[g], &stats);
        ++rec.repairsAttempted;
        rec.repairs += stats.repaired ? 1 : 0;
        rec.queuePops += stats.queuePops;
        if (stats.fallbackReason != nullptr) rec.fallbackReason = stats.fallbackReason;
      }
    });

    const EpochStats epoch =
        clock.run(kSessionEpoch, [&] { return sweep_->runEpoch(*table_, t); });
    const std::vector<SessionSeed>& arriving =
        arrivals_[static_cast<std::size_t>(k)];
    clock.run(kSessionSeed, [&] {
      sweep_->seed(*table_, arriving, t, SeedMode::ClosestAssociation);
    });
    addActive(arriving);
    rec.handovers = epoch.handovers;
    rec.touched = epoch.sessionsTouched;
    rec.certHits = epoch.certCacheHits;
    rec.certMisses = epoch.certCacheMisses;

    FlowSimConfig simCfg;
    simCfg.withStart(t).withDuration(kFlowWindowS).withSeed(seed_ + static_cast<std::uint64_t>(k));
    FlowSimulator sim(inc_->graph(), simCfg);
    std::vector<Route> routes;            // one per distinct (satellite, owner)
    std::vector<std::size_t> routeOwner;  // by route
    std::vector<std::size_t> flowRoute;   // by flow index
    std::size_t unrouted = 0;
    clock.run(kSimBuild, [&] {
      std::vector<std::uint32_t> pathIds;
      std::fill(pathOfKey_.begin(), pathOfKey_.end(), kNone);
      for (const UserId uid : active_) {
        const auto view = table_->find(uid);
        if (!view || view->state != SessionState::Serving) continue;
        const NodeId sat = satNodes_[view->servingSat];
        const std::size_t home = homeProviderOf(uid);
        std::size_t best = kNone;
        double bestCost = std::numeric_limits<double>::infinity();
        for (const std::size_t g : gatewaysOf_[home]) {
          const double c = trees_[g].costTo(sat);
          if (c < bestCost) {
            bestCost = c;
            best = g;
          }
        }
        if (best == kNone) {
          ++unrouted;
          continue;
        }
        std::size_t& route = pathOfKey_[view->servingSat * kProviders + home];
        if (route == kNone) {
          route = routes.size();
          routes.push_back(trees_[best].routeTo(sat));
          routeOwner.push_back(home);
          pathIds.push_back(sim.addPath(routes.back()));
        }
        FlowSpec flow;
        flow.src = gateways_[best];
        flow.dst = sat;
        flow.rateBps = kUserRateBps;
        flow.packetBits = kPacketBits;
        flow.homeProvider = providerId(home);
        flow.startS = t;
        flow.stopS = t + kFlowWindowS;
        sim.addFlow(flow, pathIds[route]);
        flowRoute.push_back(route);
      }
    });
    report_ = clock.run(kSimRun, [&] { return sim.run(); });
    rec.events = report_.eventsExecuted;
    rec.packets = report_.packetsOffered;
    rec.dropped = report_.packetsDropped;

    clock.run(kEconRecord, [&] {
      std::vector<double> bytes(routes.size(), 0.0);
      for (std::size_t f = 0; f < flowRoute.size(); ++f) {
        bytes[flowRoute[f]] +=
            static_cast<double>(report_.flows[f].delivered) * kPacketBits / 8.0;
      }
      for (std::size_t r = 0; r < routes.size(); ++r) {
        econ_.recordRouteTraffic(ownership_, routes[r], providerId(routeOwner[r]),
                                 bytes[r]);
      }
    });
    rec.routesRecorded = routes.size();
    rec.snapshotHits = SnapshotCache::global().hits() - hits0;
    rec.snapshotLookups =
        rec.snapshotHits + SnapshotCache::global().misses() - misses0;

    lastT_ = t;
    fold(epoch.eventChecksum);
    fold(epoch.handovers);
    fold(report_.recordChecksum);
    fold(report_.packetsOffered);
    fold(report_.packetsDelivered);
    fold(report_.packetsDropped);
    fold(unrouted);
    answers_.offered += report_.packetsOffered;
    answers_.delivered += report_.packetsDelivered;
    answers_.dropped += report_.packetsDropped;
    if (report_.latency.count() > 0) {
      answers_.latencySumS +=
          report_.latency.meanS() * static_cast<double>(report_.latency.count());
    }
    answers_.handovers += epoch.handovers;
    answers_.unrouted += unrouted;
  }

  std::string check(bool sampled) override {
    if (report_.packetsOffered != report_.packetsDelivered + report_.packetsDropped) {
      return "offered != delivered + dropped";
    }
    if (!sampled) return {};
    const auto fresh = std::make_shared<const CompactGraph>(
        compileGraph(topo_->snapshot(lastT_, opt_), delayCostModel().link));
    if (fresh->contentChecksum() != inc_->graph()->contentChecksum()) {
      return "patched graph != fresh compile";
    }
    const RouteEngine engine(fresh);
    for (std::size_t g = 0; g < kGatewayCount; ++g) {
      const PathTree ref = engine.shortestPathTree(gateways_[g]);
      if (!sameBits(ref.distByIndex(), trees_[g].distByIndex()) ||
          ref.parentEdgeByIndex() != trees_[g].parentEdgeByIndex()) {
        return "repaired tree != fresh shortestPathTree (gateway " +
               std::to_string(g) + ")";
      }
    }
    if (!econ_.crossVerify()) return "settlement ledgers do not cross-verify";
    return {};
  }

  std::string finish(double& settleMs) override {
    const auto t0 = Clock::now();
    const bool verified = econ_.crossVerify();
    const std::vector<SettlementItem> items = econ_.settle();
    settleMs = msSince(t0);
    fold(verified ? 1 : 0);
    for (const SettlementItem& item : items) {
      fold(item.payer.value());
      fold(item.payee.value());
      foldDouble(item.bytes);
      foldDouble(item.amountUsd);
      answers_.settlementUsd += item.amountUsd;
    }
    fold(table_->stateChecksum());
    return verified ? "" : "settlement ledgers do not cross-verify at pass end";
  }

  std::size_t satellites() const override { return satNodes_.size(); }
  std::size_t tableBytes() const override { return table_->approxBytes(); }

 private:
  static bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  }

  void addActive(const std::vector<SessionSeed>& seeds) {
    for (const SessionSeed& s : seeds) {
      if (s.user % kActiveEvery == 0) active_.push_back(s.user);
    }
  }

  std::uint64_t seed_;
  EphemerisService eph_;
  SnapshotOptions opt_;
  std::unique_ptr<TopologyBuilder> topo_;
  std::vector<NodeId> gateways_;
  std::vector<std::size_t> gatewaysOf_[kProviders];
  std::vector<NodeId> satNodes_;  ///< By fleet index.
  NetworkGraph ownership_;        ///< Node -> provider for settlement.
  std::unique_ptr<IncrementalTopology> inc_;
  std::vector<PathTree> trees_;   ///< One per gateway, kept across ticks.
  std::unique_ptr<HandoverSweep> sweep_;
  std::unique_ptr<SessionTable> table_;
  std::vector<std::vector<SessionSeed>> arrivals_;  ///< By tick.
  std::vector<UserId> active_;
  SettlementEngine econ_;

  std::vector<std::size_t> pathOfKey_;  ///< (sat, owner) -> route index, per tick.
  FlowSimReport report_;                ///< Of the last tick, for check().
  double lastT_ = 0.0;
};

// --- the Scenario facade -------------------------------------------------------

class FacadePass final : public Pass {
 public:
  FacadePass(const Workload& w, std::uint64_t seed)
      : scenario_(scenarioConfig(w.users, seed)) {}

  void tick(int k, StageClock& clock, TickRecord& rec) override {
    const double t = kTickS * (k + 1);
    report_ = clock.run(kScenarioEpoch, [&] {
      return scenario_.runTrafficEpoch(t, kFacadeEpochS, kFacadeRateBps);
    });
    rec.packets = report_.packetsOffered;
    rec.dropped = report_.packetsDropped;
    fold(report_.packetsOffered);
    fold(report_.packetsDelivered);
    fold(report_.packetsDropped);
    foldDouble(report_.meanLatencyS);
    foldDouble(report_.p95LatencyS);
    foldDouble(report_.totalSettlementUsd);
    answers_.offered += report_.packetsOffered;
    answers_.delivered += report_.packetsDelivered;
    answers_.dropped += report_.packetsDropped;
    answers_.latencySumS +=
        report_.meanLatencyS * static_cast<double>(report_.packetsDelivered);
    answers_.settlementUsd = report_.totalSettlementUsd;
  }

  std::string check(bool) override {
    if (report_.packetsOffered != report_.packetsDelivered + report_.packetsDropped) {
      return "offered != delivered + dropped";
    }
    if (!report_.ledgersCrossVerified) return "ledgers do not cross-verify";
    return {};
  }

  std::string finish(double& settleMs) override {
    settleMs = 0.0;  // runTrafficEpoch settles inside every epoch
    return {};
  }
  std::size_t satellites() const override { return scenario_.ephemeris().size(); }

 private:
  Scenario scenario_;
  TrafficReport report_;
};

// --- the run ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  bool tiny = false;
  int threads = 0;      ///< 0: min(4, hardware threads).
  int failTick = -1;    ///< Make the check of this tick index fail (testing).
  std::string traceOut;
};

struct RunResult {
  std::vector<TickRecord> ticks;  ///< Timed ticks (k >= 1) of every pass.
  std::vector<double> setupS;     ///< Per set-up, including the cold tick.
  std::vector<double> settleMs;   ///< Per pass.
  std::vector<double> tableBytes; ///< Per pass, at its end.
  std::vector<std::uint64_t> digests;  ///< Per pass.
  Answers answers;                ///< Of the first pass.
  std::size_t satellites = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double elapsedS = 0.0;
};

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "world_tick: %s\n", what);
  std::exit(1);
}

/// Peak resident set of the workload, without the checks' own memory: the
/// sampled checks build a second graph and fresh trees, so the process
/// peak (VmHWM) is read before each of them and reset after it.
class PeakRss {
 public:
  void beforeCheck() { peakKib_ = std::max(peakKib_, vmHwmKib()); }
  void afterCheck() {
    // "5" resets VmHWM to the current resident set (proc(5), clear_refs).
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr || std::fputs("5", f) < 0 || std::fclose(f) != 0) {
      fatal("cannot reset the peak resident set through /proc/self/clear_refs");
    }
  }
  double mb() const { return std::max(peakKib_, vmHwmKib()) / 1024.0; }

 private:
  static double vmHwmKib() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) fatal("cannot read /proc/self/status");
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib < 0.0) fatal("no VmHWM line in /proc/self/status");
    return kib;
  }

  double peakKib_ = 0.0;
};

/// Empty the snapshot cache and shrink the compiled-index caches to one
/// entry, so every pass starts from the same state (otherwise later passes
/// would find earlier passes' snapshots).
void resetProcessCaches() {
  SnapshotCache::global().clear();
  FootprintIndex2::setCompiledCacheByteBudget(
      FootprintIndex2::setCompiledCacheByteBudget(0));
  FleetEphemeris::setCompiledCacheByteBudget(
      FleetEphemeris::setCompiledCacheByteBudget(0));
}

std::unique_ptr<Pass> makePass(const Workload& w, std::uint64_t seed) {
  if (w.facade) return std::make_unique<FacadePass>(w, seed);
  return std::make_unique<WorldPass>(w, seed);
}

RunResult run(const Options& opt, const Workload& w, Tracer& tracer, PeakRss& rss) {
  RunResult res;
  const auto runStart = Clock::now();
  std::uint64_t traceId = 0;
  // Every set-up is timed alike, from reset caches to the end of its cold
  // tick; the first w.passes of them go on to tick.
  for (int pass = 0; pass < w.setups; ++pass) {
    std::unique_ptr<Pass> p;
    const auto fail = [&](int k, const std::string& why) {
      ++res.failed;
      std::fprintf(stderr, "pass %d tick %d failed: %s\n", pass, k, why.c_str());
    };
    // Runs tick k (timed into rec.wallMs); false when a call threw.
    const auto runTick = [&](int k, Tracer* tr, TickRecord& rec) {
      ++res.attempted;
      const int span = tr != nullptr ? tr->open("tick", Tracer::kNoParent, traceId) : 0;
      StageClock clock(tr, span, traceId++, rec);
      const auto t0 = Clock::now();
      std::optional<std::string> threw;
      try {
        p->tick(k, clock, rec);
      } catch (const std::exception& e) {
        threw = e.what();
      }
      rec.wallMs = msSince(t0);
      if (tr != nullptr) tr->close(span);
      if (threw) fail(k, "threw: " + *threw);
      return !threw;
    };
    // Untimed checks of tick k; a failed check counts the tick as failed.
    const auto checkTick = [&](int k) {
      const bool sampled = k % w.checkEvery == 0 || k == w.ticksPerPass - 1;
      if (sampled) rss.beforeCheck();
      std::string why;
      try {
        why = p->check(sampled);
      } catch (const std::exception& e) {
        why = std::string("check threw: ") + e.what();
      }
      if (sampled) rss.afterCheck();
      if (why.empty() && k == opt.failTick) why = "injected failure";
      if (!why.empty()) fail(k, why);
    };

    resetProcessCaches();
    const auto setupStart = Clock::now();
    try {
      p = makePass(w, opt.seed);
    } catch (const std::exception& e) {
      ++res.attempted;
      fail(0, std::string("set-up threw: ") + e.what());
      break;
    }
    TickRecord cold;
    bool ok = runTick(0, nullptr, cold);
    res.setupS.push_back(msSince(setupStart) / 1000.0);
    if (!ok) break;
    if (pass >= w.passes) continue;
    checkTick(0);

    for (int k = 1; k < w.ticksPerPass && ok; ++k) {
      // Traced runs trace every other tick, alternating between passes so
      // that every tick index is traced as often as not; the untraced ticks
      // measure the tracing overhead in the same process.
      TickRecord rec;
      rec.traced = opt.trace && (k + pass) % 2 == 0;
      ok = runTick(k, rec.traced ? &tracer : nullptr, rec);
      if (!ok) break;  // state after a throw is unknown: abandon the pass
      checkTick(k);
      res.ticks.push_back(rec);
    }
    if (!ok) break;
    double settleMs = 0.0;
    const std::string why = p->finish(settleMs);
    if (!why.empty()) fail(w.ticksPerPass - 1, why);
    res.satellites = p->satellites();
    res.settleMs.push_back(settleMs);
    res.tableBytes.push_back(static_cast<double>(p->tableBytes()));
    res.digests.push_back(p->digest());
    if (pass == 0) res.answers = p->answers();
  }
  res.elapsedS = msSince(runStart) / 1000.0;
  return res;
}

// --- statistics and output ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest percentile with at least ten samples beyond it.
double tailPercentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 100.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note = {};  ///< Sample count or base, for the human-readable line.
};

void printMetric(const Metric& m) {
  std::printf("%-28s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit, m.note.c_str());
}

__attribute__((format(printf, 1, 2))) std::string format(const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

std::string jsonResult(bool correct, const RunResult& r,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}}";
}

/// Per-layer metrics from the traced ticks (all zero for stages the
/// workload does not run).
std::vector<Metric> perLayerMetrics(const RunResult& r, bool facade) {
  std::vector<const TickRecord*> traced;
  std::vector<double> tracedMs, plainMs;
  for (const TickRecord& t : r.ticks) {
    (t.traced ? tracedMs : plainMs).push_back(t.wallMs);
    if (t.traced) traced.push_back(&t);
  }
  const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
  const auto stageMedian = [&](Stage s) {
    std::vector<double> v;
    for (const TickRecord* t : traced) v.push_back(t->stageMs[s]);
    return median(v);
  };
  const auto stageSum = [&](Stage s) {
    double sum = 0.0;
    for (const TickRecord* t : traced) sum += t->stageMs[s];
    return sum;
  };
  const auto perTick = [&](auto field) {
    double sum = 0.0;
    for (const TickRecord* t : traced) sum += static_cast<double>(field(*t));
    return sum / n;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<double> glue, indexBytes;
  std::string fallbackReasons;
  double hits = 0, lookups = 0, attempted = 0, repaired = 0, certHits = 0,
         certLookups = 0, handovers = 0, events = 0, packets = 0, dropped = 0,
         structural = 0;
  for (const TickRecord* t : traced) {
    double stages = 0.0;
    for (const double ms : t->stageMs) stages += ms;
    glue.push_back(t->wallMs - stages);
    indexBytes.push_back(static_cast<double>(t->indexCacheBytes));
    hits += static_cast<double>(t->snapshotHits);
    lookups += static_cast<double>(t->snapshotLookups);
    attempted += static_cast<double>(t->repairsAttempted);
    repaired += static_cast<double>(t->repairs);
    certHits += static_cast<double>(t->certHits);
    certLookups += static_cast<double>(t->certHits + t->certMisses);
    handovers += static_cast<double>(t->handovers);
    events += static_cast<double>(t->events);
    packets += static_cast<double>(t->packets);
    dropped += static_cast<double>(t->dropped);
    structural += t->structural ? 1.0 : 0.0;
    if (t->fallbackReason != nullptr &&
        fallbackReasons.find(t->fallbackReason) == std::string::npos) {
      fallbackReasons += std::string(" ") + t->fallbackReason;
    }
  }
  const double tracedP50 = median(tracedMs);
  const double plainP50 = median(plainMs);
  std::vector<Metric> m = {
      {"orbit.propagate_ms", stageMedian(kOrbit), "ms"},
      {"orbit.snapshot_hit_ratio", ratio(hits, lookups), "ratio",
       format("%.0f hits / %.0f lookups", hits, lookups)},
      {"coverage.index_ms", stageMedian(kCoverage), "ms"},
      {"coverage.index_cache_bytes", median(indexBytes), "bytes"},
      {"topology.step_ms", stageMedian(kTopology), "ms"},
      {"topology.links", perTick([](const TickRecord& t) { return t.links; }), "count"},
      {"topology.links_changed",
       perTick([](const TickRecord& t) { return t.linksChanged; }), "count"},
      {"topology.structural_ratio", facade ? 0.0 : structural / n, "ratio",
       format("%.0f structural / %.0f steps", structural, facade ? 0.0 : n)},
      {"routing.repair_ms", stageMedian(kRouting), "ms"},
      {"routing.repair_ratio", ratio(repaired, attempted), "ratio",
       format("%.0f repaired / %.0f attempted", repaired, attempted) +
           (fallbackReasons.empty() ? "" : "; fallbacks:" + fallbackReasons)},
      {"routing.queue_pops", perTick([](const TickRecord& t) { return t.queuePops; }),
       "count"},
      {"session.epoch_ms", stageMedian(kSessionEpoch), "ms"},
      {"session.seed_ms", stageMedian(kSessionSeed), "ms"},
      {"session.handovers", handovers / n, "count"},
      {"session.us_per_handover", ratio(stageSum(kSessionEpoch) * 1e3, handovers), "us",
       format("%.1f ms over %.0f handovers", stageSum(kSessionEpoch), handovers)},
      {"session.touched", perTick([](const TickRecord& t) { return t.touched; }),
       "count"},
      {"session.cert_hit_ratio", ratio(certHits, certLookups), "ratio",
       format("%.0f hits / %.0f lookups", certHits, certLookups)},
      {"session.table_bytes", median(r.tableBytes), "bytes"},
      {"sim.flows_build_ms", stageMedian(kSimBuild), "ms"},
      {"sim.flows_run_ms", stageMedian(kSimRun), "ms"},
      {"sim.events", facade ? 0.0 : events / n, "count"},
      {"sim.ns_per_event", ratio(stageSum(kSimRun) * 1e6, events), "ns",
       format("%.1f ms over %.0f events", stageSum(kSimRun), events)},
      {"sim.packets", packets / n, "count"},
      {"sim.drop_ratio", ratio(dropped, packets), "ratio",
       format("%.0f dropped / %.0f offered", dropped, packets)},
      {"sim.scenario_epoch_ms", stageMedian(kScenarioEpoch), "ms"},
      {"sim.scenario_us_per_packet",
       facade ? ratio(stageSum(kScenarioEpoch) * 1e3, packets) : 0.0, "us",
       format("%.1f ms over %.0f packets", stageSum(kScenarioEpoch), facade ? packets : 0.0)},
      {"econ.record_ms", stageMedian(kEconRecord), "ms"},
      {"econ.settle_ms", median(r.settleMs), "ms"},
      {"econ.routes_recorded",
       perTick([](const TickRecord& t) { return t.routesRecorded; }), "count"},
      {"trace.tick_self_ms", median(glue), "ms"},
      {"trace.tick_p50_ms", tracedP50, "ms",
       format("median of %.0f traced ticks (untraced: %.0f)",
            static_cast<double>(tracedMs.size()), static_cast<double>(plainMs.size()))},
      {"trace.overhead_ms", tracedP50 - plainP50, "ms",
       format("traced %.3f ms - untraced %.3f ms p50", tracedP50, plainP50)},
  };
  return m;
}

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (!(opt.seconds > 0.0)) return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (a == "--scale") {
      if (v != "full" && v != "tiny") return false;
      opt.tiny = v == "tiny";
    } else if (a == "--threads") {
      opt.threads = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (opt.threads < 1) return false;
    } else if (a == "--fail-tick") {
      opt.failTick = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (a == "--trace-out") {
      opt.traceOut = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: world_tick --workload iridium_users|megashell_10k|"
                 "scenario_facade [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                  [--threads N] [--scale full|tiny] "
                 "[--trace-out PATH] [--fail-tick K]\n");
    return 2;
  }
  const std::optional<Workload> w = findWorkload(opt.workload, opt.tiny);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  // Pin the pool: 4 threads, or fewer on a smaller host; --threads overrides
  // (the determinism test compares pool sizes 1 and 4 on any host).
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int threads = opt.threads > 0 ? opt.threads : std::min(4, hw);
  setParallelThreadCount(threads);

  Tracer tracer;
  PeakRss rss;
  const RunResult r = run(opt, *w, tracer, rss);
  // --seconds is a budget, not a stopping rule: the work per run is fixed.
  if (r.elapsedS > opt.seconds) {
    std::fprintf(stderr, "world_tick: run took %.1f s, over its %.1f s budget\n",
                 r.elapsedS, opt.seconds);
  }

  std::vector<double> tickMs;
  double tickSumS = 0.0;
  for (const TickRecord& t : r.ticks) {
    if (t.traced) continue;
    tickMs.push_back(t.wallMs);
    tickSumS += t.wallMs / 1000.0;
  }
  std::sort(tickMs.begin(), tickMs.end());
  const bool digestsAgree =
      !r.digests.empty() &&
      std::all_of(r.digests.begin(), r.digests.end(),
                  [&](std::uint64_t d) { return d == r.digests.front(); });
  const bool correct = r.failed == 0 && digestsAgree && !tickMs.empty();
  if (!digestsAgree) std::fprintf(stderr, "passes disagree on output_digest\n");

  const std::size_t n = tickMs.size();
  // Fixed per workload: the percentile an untraced run's tick count allows.
  const double tailP = tailPercentile(
      static_cast<std::size_t>(w->passes) * static_cast<std::size_t>(w->ticksPerPass - 1));
  const auto [setupMin, setupMax] = std::minmax_element(r.setupS.begin(), r.setupS.end());
  const std::vector<Metric> endToEnd = {
      {"tick_p50_ms", median(tickMs), "ms", format("median of %zu ticks", n)},
      {"tick_tail_ms", n > 0 ? percentile(tickMs, tailP) : 0.0, "ms",
       format("p%g of %zu ticks", tailP, n)},
      {"realtime_factor",
       tickSumS > 0.0 ? static_cast<double>(n) * kTickS / tickSumS : 0.0, "s/s",
       format("simulated s per wall s, %zu satellites, %zu users", r.satellites,
              w->users)},
      {"setup_s", median(r.setupS), "s",
       r.setupS.empty() ? std::string()
                        : format("median of %zu set-ups incl. cold tick (%.3f-%.3f s)",
                                 r.setupS.size(), *setupMin, *setupMax)},
      {"peak_rss_mb", rss.mb(), "MB", "peak resident set, checks excluded"},
  };
  // error_rate is printed but is not a JSON metric: a healthy run reads
  // exactly 0, and the JSON carries it as failed / attempted.
  const double errorRate =
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                      : 1.0;

  std::printf("workload %s  seed %llu  threads %d  passes %zu  set-ups %zu  scale %s  "
              "elapsed %.1f s\n",
              w->name, static_cast<unsigned long long>(opt.seed), threads,
              r.digests.size(), r.setupS.size(), opt.tiny ? "tiny" : "full", r.elapsedS);
  for (const Metric& m : endToEnd) printMetric(m);
  printMetric({"error_rate", errorRate, "ratio",
               format("%zu failed / %zu ticks attempted", r.failed, r.attempted)});
  const Answers& a = r.answers;
  std::printf("output_digest %016llx  (pass 0: %llu packets offered, %llu delivered, "
              "%llu dropped, mean latency %.6f ms, %zu handovers, %zu unrouted, "
              "settlement %.6f USD)\n",
              static_cast<unsigned long long>(r.digests.empty() ? 0 : r.digests.front()),
              static_cast<unsigned long long>(a.offered),
              static_cast<unsigned long long>(a.delivered),
              static_cast<unsigned long long>(a.dropped),
              a.delivered > 0 ? a.latencySumS / static_cast<double>(a.delivered) * 1e3 : 0.0,
              a.handovers, a.unrouted, a.settlementUsd);

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = perLayerMetrics(r, w->facade);
    std::printf("per-layer (self time medians over traced ticks):\n");
    for (const Metric& m : metrics) printMetric(m);
    if (!opt.traceOut.empty()) {
      if (tracer.writeChromeJson(opt.traceOut)) {
        std::printf("trace %s (%zu spans)\n", opt.traceOut.c_str(), tracer.spans().size());
      } else {
        std::fprintf(stderr, "cannot write trace to %s\n", opt.traceOut.c_str());
      }
    }
  } else {
    metrics = endToEnd;
  }
  std::printf("%s\n", jsonResult(correct, r, metrics).c_str());
  return correct ? 0 : 1;
}
