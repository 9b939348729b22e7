// Session-plane tests: the sharded SessionTable, the batched HandoverSweep
// epoch kernel, and the sim scenarios built on them.
//
// The central property: with SeedMode::Planner and non-expiring
// certificates, the sweep's per-user event streams are *bit-for-bit* the
// HandoverTimeline events the legacy per-user simulateHandovers produces,
// for any partition of the window into epochs — the legacy path is the
// executable spec. Everything else (determinism at any thread count,
// occupancy accounting, certificate caching, regional outage) is layered
// on top of that pinned equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numbers>
#include <unordered_map>
#include <vector>

#include <openspace/auth/association.hpp>
#include <openspace/auth/certificate.hpp>
#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/handover/handover.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/shells.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/session_scenarios.hpp>

namespace openspace {
namespace {

/// Restores the ambient worker count when a test overrides it.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(parallelThreadCount()) {}
  ~ThreadCountGuard() { setParallelThreadCount(saved_); }

 private:
  int saved_;
};

/// A certificate expiry far beyond any test window: equivalence runs must
/// never trip the expiry rule.
constexpr double kNeverExpiresS = 4.0e9;

class SessionSweepTest : public ::testing::Test {
 protected:
  SessionSweepTest() : SessionSweepTest(makeWalkerStar(iridiumConfig())) {}
  explicit SessionSweepTest(const std::vector<OrbitalElements>& fleet) {
    for (const auto& el : fleet) {
      eph_.publish(ProviderId{1}, el);
    }
    planner_ = std::make_unique<HandoverPlanner>(eph_, mask_);
    cfg_.minElevationRad = mask_;
    cfg_.dropOnCertExpiry = false;
    const auto& sats = eph_.satellites();
    for (std::size_t i = 0; i < sats.size(); ++i) {
      indexOf_[sats[i].value()] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<SessionSeed> seedsFor(const std::vector<Geodetic>& sites,
                                    double certExpiresAtS = kNeverExpiresS) const {
    std::vector<SessionSeed> seeds;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      seeds.push_back(SessionSeed{static_cast<UserId>(i + 1), sites[i],
                                  certExpiresAtS, 0x1000 + i});
    }
    return seeds;
  }

  /// Run the sweep over `sites` across the given epoch boundaries and
  /// return (events, per-epoch stats, final state checksum).
  struct SweepRun {
    std::vector<SessionEvent> events;
    std::vector<EpochStats> stats;
    std::uint64_t finalChecksum = 0;
  };
  SweepRun runSweep(const std::vector<Geodetic>& sites,
                    const std::vector<double>& boundaries,
                    double certExpiresAtS = kNeverExpiresS) const {
    SessionTable table(eph_.satellites().size());
    const HandoverSweep sweep(eph_, cfg_);
    sweep.seed(table, seedsFor(sites, certExpiresAtS), 0.0, SeedMode::Planner);
    SweepRun run;
    for (const double t1 : boundaries) {
      run.stats.push_back(sweep.runEpoch(table, t1, &run.events));
    }
    run.finalChecksum = table.stateChecksum();
    return run;
  }

  /// The sweep's events for one user, in time order.
  static std::vector<SessionEvent> eventsOf(const std::vector<SessionEvent>& all,
                                            UserId user) {
    std::vector<SessionEvent> out;
    for (const SessionEvent& e : all) {
      if (e.user == user) out.push_back(e);
    }
    return out;
  }

  /// Expect the sweep stream to be bit-for-bit the legacy timeline.
  void expectMatchesLegacy(const std::vector<SessionEvent>& mine,
                           const HandoverTimeline& legacy) const {
    ASSERT_EQ(mine.size(), legacy.events.size());
    for (std::size_t j = 0; j < mine.size(); ++j) {
      EXPECT_EQ(bitsOf(mine[j].atS), bitsOf(legacy.events[j].atS)) << j;
      EXPECT_EQ(mine[j].fromSat, indexOf_.at(legacy.events[j].from.value())) << j;
      EXPECT_EQ(mine[j].toSat, indexOf_.at(legacy.events[j].to.value())) << j;
      EXPECT_EQ(bitsOf(mine[j].latencyS), bitsOf(legacy.events[j].latencyS)) << j;
    }
  }

  const double mask_ = deg2rad(10.0);
  EphemerisService eph_;
  std::unique_ptr<HandoverPlanner> planner_;
  SweepConfig cfg_;
  std::unordered_map<std::uint32_t, std::uint32_t> indexOf_;
  const std::vector<Geodetic> sites_ = {
      Geodetic::fromDegrees(40.44, -79.99),   // Pittsburgh
      Geodetic::fromDegrees(-33.87, 151.21),  // Sydney
      Geodetic::fromDegrees(51.5, -0.13),     // London
      Geodetic::fromDegrees(-1.29, 36.82),    // Nairobi
      Geodetic::fromDegrees(78.22, 15.63),    // Svalbard (polar convergence)
      Geodetic::fromDegrees(0.0, -160.0),     // mid-Pacific
  };
};

// --- sweep == legacy, the executable-spec property ------------------------

TEST_F(SessionSweepTest, EventsMatchLegacySimulationForAnyEpochPartition) {
  const double T = 1'800.0;
  const std::vector<std::vector<double>> partitions = {
      {T},
      {600.0, 1'200.0, T},
      {137.0, 450.0, 1'000.0, 1'337.5, T},
  };
  std::vector<HandoverTimeline> legacy;
  for (const Geodetic& site : sites_) {
    legacy.push_back(
        simulateHandovers(*planner_, site, 0.0, T, HandoverMode::Predictive));
  }
  for (const auto& partition : partitions) {
    const SweepRun run = runSweep(sites_, partition);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      SCOPED_TRACE("site " + std::to_string(i) + " partition size " +
                   std::to_string(partition.size()));
      expectMatchesLegacy(eventsOf(run.events, i + 1), legacy[i]);
    }
  }
}

TEST_F(SessionSweepTest, FineEpochPartitionStillMatchesLegacy) {
  const double T = 1'800.0;
  std::vector<double> fine;
  for (double t = 60.0; t <= T; t += 60.0) fine.push_back(t);
  const SweepRun run = runSweep(sites_, fine);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    expectMatchesLegacy(
        eventsOf(run.events, i + 1),
        simulateHandovers(*planner_, sites_[i], 0.0, T, HandoverMode::Predictive));
  }
}

TEST_F(SessionSweepTest, ReAssociateModeMatchesLegacyToo) {
  cfg_.mode = HandoverMode::ReAssociate;
  const double T = 1'200.0;
  const SweepRun run = runSweep(sites_, {400.0, 800.0, T});
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    expectMatchesLegacy(eventsOf(run.events, i + 1),
                        simulateHandovers(*planner_, sites_[i], 0.0, T,
                                          HandoverMode::ReAssociate));
  }
}

TEST_F(SessionSweepTest, FinalTableStateIsPartitionInvariant) {
  const double T = 1'800.0;
  const SweepRun one = runSweep(sites_, {T});
  const SweepRun uneven = runSweep(sites_, {250.0, 251.0, 900.0, T});
  std::vector<double> fine;
  for (double t = 60.0; t <= T; t += 60.0) fine.push_back(t);
  const SweepRun many = runSweep(sites_, fine);
  EXPECT_EQ(one.finalChecksum, uneven.finalChecksum);
  EXPECT_EQ(one.finalChecksum, many.finalChecksum);
}

// --- one footprint index per instant -------------------------------------

TEST_F(SessionSweepTest, RunEpochReusesTheIndexOfItsEndInstant) {
  // The coverage stage compiles (snapshot(t1), mask) before the sweep runs;
  // runEpoch must read that entry and build no snapshot or index of its
  // own — not even on the epochs that execute handovers.
  const double T = 1'800.0;
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  std::vector<SessionEvent> events;
  std::size_t handovers = 0;
  for (const double t1 : {15.0, 600.0, 1'200.0, T}) {
    FootprintIndex2::compiled(SnapshotCache::global().at(eph_, t1), mask_);
    const std::size_t indexBytes = FootprintIndex2::compiledCacheApproxBytes();
    const std::size_t snapshotMisses = SnapshotCache::global().misses();
    handovers += sweep.runEpoch(table, t1, &events).handovers;
    EXPECT_EQ(FootprintIndex2::compiledCacheApproxBytes(), indexBytes) << t1;
    EXPECT_EQ(SnapshotCache::global().misses(), snapshotMisses) << t1;
  }
  EXPECT_GT(handovers, 0u);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    expectMatchesLegacy(
        eventsOf(events, i + 1),
        simulateHandovers(*planner_, sites_[i], 0.0, T, HandoverMode::Predictive));
  }
}

TEST_F(SessionSweepTest, CoverageIndexAtAnotherMaskStillMatchesLegacy) {
  // A coverage stage at a different mask leaves the sweep's own (snapshot,
  // mask) entry to compile on first use; the events are unchanged.
  const double T = 1'800.0;
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  std::vector<SessionEvent> events;
  for (const double t1 : {300.0, 900.0, T}) {
    FootprintIndex2::compiled(SnapshotCache::global().at(eph_, t1),
                              deg2rad(25.0));
    const std::size_t snapshotMisses = SnapshotCache::global().misses();
    sweep.runEpoch(table, t1, &events);
    EXPECT_EQ(SnapshotCache::global().misses(), snapshotMisses) << t1;
  }
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    expectMatchesLegacy(
        eventsOf(events, i + 1),
        simulateHandovers(*planner_, sites_[i], 0.0, T, HandoverMode::Predictive));
  }
}

// --- determinism ----------------------------------------------------------

TEST_F(SessionSweepTest, SerialAndParallelSweepsAreBitIdentical) {
  ThreadCountGuard guard;
  const std::vector<double> boundaries = {300.0, 900.0, 1'800.0};
  setParallelThreadCount(1);
  const SweepRun serial = runSweep(sites_, boundaries);
  for (const int threads : {2, 4, 16}) {
    setParallelThreadCount(threads);
    const SweepRun parallel = runSweep(sites_, boundaries);
    EXPECT_EQ(parallel.finalChecksum, serial.finalChecksum) << threads;
    ASSERT_EQ(parallel.stats.size(), serial.stats.size());
    for (std::size_t e = 0; e < serial.stats.size(); ++e) {
      EXPECT_EQ(parallel.stats[e].eventChecksum, serial.stats[e].eventChecksum)
          << threads << " epoch " << e;
      EXPECT_EQ(parallel.stats[e].handovers, serial.stats[e].handovers);
      EXPECT_EQ(bitsOf(parallel.stats[e].outageS), bitsOf(serial.stats[e].outageS));
    }
    ASSERT_EQ(parallel.events.size(), serial.events.size());
    for (std::size_t j = 0; j < serial.events.size(); ++j) {
      EXPECT_EQ(parallel.events[j].user, serial.events[j].user);
      EXPECT_EQ(bitsOf(parallel.events[j].atS), bitsOf(serial.events[j].atS));
    }
  }
}

// --- seeding --------------------------------------------------------------

TEST_F(SessionSweepTest, ClosestAssociationSeedingMatchesAssociateUsers) {
  std::vector<OrbitalElements> fleet;
  for (const SatelliteId sid : eph_.satellites()) {
    fleet.push_back(eph_.record(sid).elements);
  }
  const auto assoc = associateUsers(fleet, 0.0, sites_, mask_);
  SessionTable table(fleet.size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::ClosestAssociation);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const auto view = table.find(i + 1);
    ASSERT_TRUE(view.has_value()) << i;
    if (assoc[i].covered) {
      EXPECT_EQ(view->state, SessionState::Serving) << i;
      EXPECT_EQ(view->servingSat, assoc[i].satelliteIndex) << i;
    } else {
      EXPECT_EQ(view->state, SessionState::Scanning) << i;
    }
  }
}

TEST_F(SessionSweepTest, SeedValidatesClockAndDuplicates) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  const auto seeds = seedsFor(sites_);
  sweep.seed(table, seeds, 0.0, SeedMode::Planner);
  // Active duplicates are a caller bug.
  EXPECT_THROW(sweep.seed(table, seeds, 0.0, SeedMode::Planner),
               InvalidArgumentError);
  // Later seeds must arrive at the table clock (an epoch boundary).
  std::vector<SessionSeed> late = {
      SessionSeed{99, Geodetic::fromDegrees(10.0, 10.0), kNeverExpiresS, 7}};
  EXPECT_THROW(sweep.seed(table, late, 123.0, SeedMode::Planner),
               InvalidArgumentError);
  sweep.seed(table, late, 0.0, SeedMode::Planner);
  EXPECT_EQ(table.size(), sites_.size() + 1);
}

TEST_F(SessionSweepTest, RunEpochRequiresForwardTime) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  EXPECT_THROW(sweep.runEpoch(table, 0.0), InvalidArgumentError);
  EXPECT_THROW(sweep.runEpoch(table, -5.0), InvalidArgumentError);
  sweep.runEpoch(table, 60.0);
  EXPECT_DOUBLE_EQ(table.clockS(), 60.0);
  EXPECT_THROW(sweep.runEpoch(table, 59.0), InvalidArgumentError);
}

// --- table accounting -----------------------------------------------------

TEST_F(SessionSweepTest, OccupancyTracksServingSessions) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  const auto countServing = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      const auto v = table.find(i + 1);
      n += (v && v->state == SessionState::Serving) ? 1 : 0;
    }
    return n;
  };
  const auto occupancySum = [&] {
    std::uint64_t n = 0;
    for (const std::uint64_t c : table.perSatelliteOccupancy()) n += c;
    return n;
  };
  EXPECT_EQ(occupancySum(), countServing());
  sweep.runEpoch(table, 900.0);
  EXPECT_EQ(occupancySum(), countServing());
  sweep.runEpoch(table, 1'800.0);
  EXPECT_EQ(occupancySum(), countServing());
}

TEST_F(SessionSweepTest, CertificateCacheCoversEveryHandover) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  std::size_t handovers = 0, hits = 0, misses = 0;
  for (const double t1 : {600.0, 1'200.0, 1'800.0, 2'400.0}) {
    const EpochStats s = sweep.runEpoch(table, t1);
    handovers += s.handovers;
    hits += s.certCacheHits;
    misses += s.certCacheMisses;
  }
  ASSERT_GT(handovers, 0u);
  // Every executed handover runs exactly one certificate check.
  EXPECT_EQ(hits + misses, handovers);
  // Steady state: each user misses once (first handover), then hits.
  EXPECT_GT(hits, 0u);
  EXPECT_LE(misses, sites_.size());
  EXPECT_GT(table.certificateCacheApproxBytes(), 0u);
}

TEST_F(SessionSweepTest, TinyCertificateCacheBudgetStillWorks) {
  SessionTable table(eph_.satellites().size());
  const std::size_t previous = table.setCertificateCacheByteBudget(0);
  EXPECT_GT(previous, 0u);
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  std::size_t handovers = 0, hits = 0, misses = 0;
  for (const double t1 : {600.0, 1'200.0, 1'800.0}) {
    const EpochStats s = sweep.runEpoch(table, t1);
    handovers += s.handovers;
    hits += s.certCacheHits;
    misses += s.certCacheMisses;
  }
  // Accounting still exact, and the cache never exceeds one entry per
  // shard worth of bytes by much (newest-entry exemption).
  EXPECT_EQ(hits + misses, handovers);
}

TEST_F(SessionSweepTest, DisassociateRegionDropsAndReseedRestores) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  sweep.runEpoch(table, 600.0);
  const std::size_t activeBefore = table.activeCount();
  // Drop everything within 500 km of London — exactly one test site.
  const std::size_t dropped =
      table.disassociateRegion(Geodetic::fromDegrees(51.5, -0.13), 500.0e3);
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(table.activeCount(), activeBefore - 1);
  const auto view = table.find(3);  // London is sites_[2] -> user 3
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->state, SessionState::Disassociated);
  EXPECT_EQ(view->servingSat, kNoSatellite);
  // The dropped user re-associates in place at the current clock.
  std::vector<SessionSeed> reseed = {
      SessionSeed{3, sites_[2], kNeverExpiresS, 0xBEEF}};
  sweep.seed(table, reseed, table.clockS(), SeedMode::ClosestAssociation);
  EXPECT_EQ(table.activeCount(), activeBefore);
  EXPECT_EQ(table.size(), sites_.size());  // in place, not a new slot
  const auto after = table.find(3);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->state, SessionState::Disassociated);
  EXPECT_EQ(after->certTag, 0xBEEFu);
  sweep.runEpoch(table, 1'200.0);  // and the run continues fine
}

TEST_F(SessionSweepTest, ExpiredCertificatesDropSessionsAtHandover) {
  cfg_.dropOnCertExpiry = true;
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  // Certificates die at t=300: the first post-expiry handover drops each
  // session instead of adopting a successor.
  sweep.seed(table, seedsFor(sites_, 300.0), 0.0, SeedMode::Planner);
  std::size_t expiries = 0;
  for (const double t1 : {900.0, 1'800.0, 2'700.0, 3'600.0}) {
    expiries += sweep.runEpoch(table, t1).certExpiries;
  }
  EXPECT_GT(expiries, 0u);
  EXPECT_LT(table.activeCount(), sites_.size());
  bool sawDropped = false;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const auto v = table.find(i + 1);
    ASSERT_TRUE(v.has_value());
    if (v->state == SessionState::Disassociated) sawDropped = true;
  }
  EXPECT_TRUE(sawDropped);
}

TEST_F(SessionSweepTest, TableValidatesConstruction) {
  EXPECT_THROW(SessionTable(0), InvalidArgumentError);
  SessionTable table(66, 0);  // shard count clamps to >= 1
  EXPECT_EQ(table.shardCount(), 1u);
  EXPECT_EQ(table.fleetSize(), 66u);
  EXPECT_FALSE(table.find(1).has_value());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_GT(table.approxBytes(), 0u);
}

TEST_F(SessionSweepTest, SweepValidatesConstruction) {
  EphemerisService empty;
  EXPECT_THROW(HandoverSweep(empty, cfg_), InvalidArgumentError);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double mask : {-0.1, kNaN, std::numbers::pi / 2.0}) {
    SweepConfig bad = cfg_;
    bad.minElevationRad = mask;
    EXPECT_THROW(HandoverSweep(eph_, bad), InvalidArgumentError) << mask;
  }
  // A bad horizon fails at construction, not in the middle of runEpoch.
  for (const double horizon : {-1.0, kNaN, kInf}) {
    SweepConfig bad = cfg_;
    bad.horizonS = horizon;
    EXPECT_THROW(HandoverSweep(eph_, bad), InvalidArgumentError) << horizon;
  }
  SweepConfig zeroHorizon = cfg_;
  zeroHorizon.horizonS = 0.0;
  EXPECT_NO_THROW(HandoverSweep(eph_, zeroHorizon));
  const HandoverSweep sweep(eph_, cfg_);
  EXPECT_EQ(sweep.fleet().size(), eph_.satellites().size());
  EXPECT_GT(sweep.maxAngularRateRadPerS(), 0.0);
}

// --- dense fleet: the successor search's one-probe bound at work ----------

/// bench_scale's 1k tier: a 720-sat 53 deg Delta shell stacked with a
/// 360-sat polar Star shell. Mid-latitude sites see 20+ satellites above
/// the mask, so most candidates of a pick are ruled out by the probe at
/// the winner's last visible grid point — the Iridium fixture above, with
/// 1-3 candidates per pick, barely exercises that path.
std::vector<OrbitalElements> denseFleet(double eccentricity = 0.0) {
  MultiShellConfig cfg;
  ShellSpec delta;
  delta.kind = ShellKind::Delta;
  delta.walker = {720, 36, 17, km(550.0), deg2rad(53.0)};
  ShellSpec star;
  star.kind = ShellKind::Star;
  star.walker = {360, 30, 1, km(560.0), deg2rad(86.4)};
  cfg.shells = {delta, star};
  std::vector<OrbitalElements> fleet = MultiShellFleet(cfg).elements();
  for (OrbitalElements& el : fleet) el.eccentricity = eccentricity;
  return fleet;
}

class DenseSessionSweepTest : public SessionSweepTest {
 protected:
  DenseSessionSweepTest() : SessionSweepTest(denseFleet()) {}
  explicit DenseSessionSweepTest(double eccentricity)
      : SessionSweepTest(denseFleet(eccentricity)) {}

  /// Expect sweep == simulateHandovers on every dense site for each epoch
  /// partition of [0, T], and the probe to rule out most candidates.
  void expectMatchesLegacyForPartitions(
      double T, const std::vector<std::vector<double>>& partitions) const {
    std::vector<HandoverTimeline> legacy;
    for (const Geodetic& site : denseSites_) {
      legacy.push_back(
          simulateHandovers(*planner_, site, 0.0, T, HandoverMode::Predictive));
    }
    for (const auto& partition : partitions) {
      const SweepRun run = runSweep(denseSites_, partition);
      std::size_t aboveMask = 0;
      std::size_t searches = 0;
      for (const EpochStats& st : run.stats) {
        aboveMask += st.candidatesAboveMask;
        searches += st.visibilitySearches;
      }
      EXPECT_GT(searches, 0u);
      EXPECT_GT(aboveMask, 4 * searches);
      std::size_t events = 0;
      for (std::size_t i = 0; i < denseSites_.size(); ++i) {
        SCOPED_TRACE("site " + std::to_string(i) + " partition size " +
                     std::to_string(partition.size()));
        expectMatchesLegacy(eventsOf(run.events, i + 1), legacy[i]);
        events += legacy[i].events.size();
      }
      EXPECT_GE(events, 2 * denseSites_.size());
    }
  }

  /// Satellites above the mask from `site` at `t` (brute scan).
  std::size_t visibleCount(const Geodetic& site, double t) const {
    std::size_t n = 0;
    for (const SatelliteId sid : eph_.satellites()) {
      if (elevationFrom(eph_.positionEci(sid, t), site, t) >= mask_) ++n;
    }
    return n;
  }

  const std::vector<Geodetic> denseSites_ = {
      Geodetic::fromDegrees(40.44, -79.99),   // Pittsburgh
      Geodetic::fromDegrees(51.5, -0.13),     // London
      Geodetic::fromDegrees(-33.87, 151.21),  // Sydney
      Geodetic::fromDegrees(47.6, -122.3),    // Seattle
      Geodetic::fromDegrees(-45.0, 170.0),    // South Island
      Geodetic::fromDegrees(39.9, 116.4),     // Beijing
      Geodetic::fromDegrees(55.75, 37.62),    // Moscow
      Geodetic::fromDegrees(-37.8, 144.96),   // Melbourne
      Geodetic::fromDegrees(40.4, -3.7),      // Madrid
      Geodetic::fromDegrees(30.04, 31.24),    // Cairo
  };
};

/// The dense fleet on slightly eccentric orbits: warm-started and cold
/// Kepler solves then differ in the last bits, so the probe's guard band
/// and the fresh reset before each full search carry real weight.
class EccentricDenseSessionSweepTest : public DenseSessionSweepTest {
 protected:
  EccentricDenseSessionSweepTest() : DenseSessionSweepTest(0.002) {}
};

/// Retrograde, near-equatorial orbits at e = 0.2 seen from equatorial
/// sites 31 km below the ellipsoid (just inside the lowest supported
/// observer radius, where the index's ground radius has the least hidden
/// slack). A setting satellite recedes westward while the site turns
/// east, so the separation grows at nearly the drift bound's rate, and a
/// satellite descending toward perigee was higher — with a wider
/// visibility half-angle — at the pick than at the index's instant. Only
/// the apogee slack keeps such candidates in the list.
std::vector<OrbitalElements> recedingEccentricFleet() {
  std::vector<OrbitalElements> fleet;
  const double inclinationsDeg[] = {179.0, 176.0, 172.0};
  for (int ring = 0; ring < 3; ++ring) {
    for (int k = 0; k < 30; ++k) {
      OrbitalElements el;
      el.semiMajorAxisM = 8'500e3;
      el.eccentricity = 0.2;
      el.inclinationRad = deg2rad(inclinationsDeg[ring]);
      el.raanRad = deg2rad(40.0 * ring);
      el.argPerigeeRad = deg2rad(25.0 * ring);
      el.meanAnomalyAtEpochRad =
          2.0 * std::numbers::pi * (k + 0.37 * ring) / 30.0;
      fleet.push_back(el);
    }
  }
  return fleet;
}

class RecedingEccentricSweepTest : public SessionSweepTest {
 protected:
  RecedingEccentricSweepTest() : SessionSweepTest(recedingEccentricFleet()) {}

  std::vector<Geodetic> equatorSites() const {
    std::vector<Geodetic> sites;
    for (int k = 0; k < 12; ++k) {
      sites.push_back(Geodetic::fromDegrees(0.0, -180.0 + 30.0 * k, -31'000.0));
    }
    return sites;
  }
};

TEST_F(RecedingEccentricSweepTest, CandidateListsHoldEverySatelliteAboveTheMask) {
  // candidatesAboveMask counts the listed candidates that pass the exact
  // mask test at each pick. With no coverage holes every pick is a
  // successor pick at an event's atS - 1e-3 with its fromSat excluded, so
  // the count must equal a brute scan of the fleet at those instants; a
  // candidate list missing a visible satellite comes up short. A 30 s
  // horizon ends every leg early, so picks land at all phases of the
  // passes — setting satellites included — not only at mask crossings.
  cfg_.horizonS = 30.0;
  const std::vector<Geodetic> sites = equatorSites();
  const double T = 9'600.0;
  std::vector<double> boundaries;
  for (double t = 1'200.0; t <= T; t += 1'200.0) boundaries.push_back(t);
  const SweepRun run = runSweep(sites, boundaries);
  std::size_t aboveMask = 0;
  std::size_t holes = 0;
  for (const EpochStats& st : run.stats) {
    aboveMask += st.candidatesAboveMask;
    holes += st.coverageHoles + st.reacquisitions;
  }
  ASSERT_EQ(holes, 0u);
  ASSERT_GE(run.events.size(), 100 * sites.size());
  std::size_t expected = 0;
  const auto& sats = eph_.satellites();
  for (const SessionEvent& e : run.events) {
    const Geodetic& site = sites[e.user - 1];
    const double t = e.atS - 1e-3;
    for (std::size_t i = 0; i < sats.size(); ++i) {
      if (i != e.fromSat &&
          elevationFrom(eph_.positionEci(sats[i], t), site, t) >= mask_) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(aboveMask, expected);
}

TEST_F(RecedingEccentricSweepTest, EventsMatchLegacy) {
  const std::vector<Geodetic> sites = equatorSites();
  const double T = 6'000.0;
  const SweepRun run = runSweep(sites, {600.0, 1'800.0, 1'801.0, 4'000.0, T});
  for (std::size_t i = 0; i < sites.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    expectMatchesLegacy(
        eventsOf(run.events, i + 1),
        simulateHandovers(*planner_, sites[i], 0.0, T, HandoverMode::Predictive));
  }
}

TEST_F(RecedingEccentricSweepTest, ApogeeSlackIsTheHalfAngleSpanOfTheOrbit) {
  const HandoverSweep sweep(eph_, cfg_);
  const OrbitalElements& el = eph_.record(eph_.satellites().front()).elements;
  EXPECT_EQ(sweep.apogeeSlackRad(),
            FootprintIndex2::groundVisibilityHalfAngleRad(
                el.semiMajorAxisM * (1.0 + el.eccentricity), mask_) -
                FootprintIndex2::groundVisibilityHalfAngleRad(
                    el.semiMajorAxisM * (1.0 - el.eccentricity), mask_));
  EXPECT_GT(sweep.apogeeSlackRad(), 0.0);

  // Circular fleets need none; a perigee at or below the supported
  // observer radii needs the whole sphere.
  EphemerisService eph;
  eph.publish(ProviderId{1}, OrbitalElements::circular(km(550.0), 0.9, 0, 0));
  EXPECT_EQ(HandoverSweep(eph, cfg_).apogeeSlackRad(), 0.0);
  OrbitalElements grazing;
  grazing.semiMajorAxisM = 7'000e3;
  grazing.eccentricity = 0.1;  // perigee 6,300 km
  eph.publish(ProviderId{1}, grazing);
  EXPECT_EQ(HandoverSweep(eph, cfg_).apogeeSlackRad(), std::numbers::pi);
}

TEST_F(DenseSessionSweepTest, FixtureIsDense) {
  EXPECT_GE(eph_.satellites().size(), 1'000u);
  for (std::size_t u = 0; u < denseSites_.size(); ++u) {
    EXPECT_GE(visibleCount(denseSites_[u], 0.0), 20u) << "site " << u;
  }
}

TEST_F(DenseSessionSweepTest, EventsMatchLegacyForAnyEpochPartition) {
  expectMatchesLegacyForPartitions(
      1'800.0, {{1'800.0},
                {15.0, 400.0, 401.0, 1'800.0},
                {137.0, 450.0, 1'000.0, 1'337.5, 1'800.0}});
}

TEST_F(EccentricDenseSessionSweepTest, EventsMatchLegacyForAnyEpochPartition) {
  expectMatchesLegacyForPartitions(1'800.0,
                                   {{1'800.0}, {300.0, 900.0, 1'800.0}});
}

TEST_F(DenseSessionSweepTest, SerialAndParallelSweepsAreBitIdentical) {
  ThreadCountGuard guard;
  const std::vector<double> boundaries = {300.0, 900.0, 1'800.0};
  setParallelThreadCount(1);
  const SweepRun serial = runSweep(denseSites_, boundaries);
  setParallelThreadCount(4);
  const SweepRun parallel = runSweep(denseSites_, boundaries);
  EXPECT_EQ(parallel.finalChecksum, serial.finalChecksum);
  ASSERT_EQ(parallel.stats.size(), serial.stats.size());
  for (std::size_t e = 0; e < serial.stats.size(); ++e) {
    EXPECT_EQ(parallel.stats[e].eventChecksum, serial.stats[e].eventChecksum) << e;
    EXPECT_EQ(parallel.stats[e].candidatesAboveMask,
              serial.stats[e].candidatesAboveMask) << e;
    EXPECT_EQ(parallel.stats[e].visibilitySearches,
              serial.stats[e].visibilitySearches) << e;
    EXPECT_EQ(bitsOf(parallel.stats[e].outageS), bitsOf(serial.stats[e].outageS));
  }
  EXPECT_EQ(parallel.events.size(), serial.events.size());
}

TEST_F(DenseSessionSweepTest, HorizonTieGoesToTheLowestIndex) {
  // With a 30 s horizon many candidates stay visible to fromS + horizonS
  // and tie at exactly that end; strict first-wins keeps the lowest index.
  cfg_.horizonS = 30.0;
  for (std::size_t u = 0; u < denseSites_.size(); ++u) {
    const Geodetic& site = denseSites_[u];
    std::vector<std::uint32_t> tied;
    const auto& sats = eph_.satellites();
    for (std::size_t i = 0; i < sats.size(); ++i) {
      if (elevationFrom(eph_.positionEci(sats[i], 0.0), site, 0.0) < mask_) {
        continue;
      }
      if (planner_->visibilityEndS(sats[i], site, 0.0, cfg_.horizonS) ==
          cfg_.horizonS) {
        tied.push_back(static_cast<std::uint32_t>(i));
      }
    }
    ASSERT_GE(tied.size(), 2u) << u;
    SessionTable table(sats.size());
    const HandoverSweep sweep(eph_, cfg_);
    sweep.seed(table, seedsFor({site}), 0.0, SeedMode::Planner);
    const auto view = table.find(1);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->servingSat, tied.front()) << u;
    EXPECT_EQ(view->nextEventS, cfg_.horizonS) << u;
  }
}

TEST(HandoverSweepProbe, GuardCoversWarmColdDisagreement) {
  // The probe at the winner's last visible grid point is a cold Kepler
  // solve; the full scan reaches that point warm-started along the 10 s
  // grid. On eccentric orbits the two differ in the last bits, and the
  // guard band must cover the elevation gap at every grid point.
  EphemerisService eph;
  const double eccs[] = {0.001, 0.02, 0.1, 0.25};
  for (int k = 0; k < 16; ++k) {
    OrbitalElements el;
    el.eccentricity = eccs[k % 4];
    el.semiMajorAxisM = (7'000.0 + 900.0 * k) * 1e3;
    el.inclinationRad = deg2rad(30.0 + 4.0 * k);
    el.raanRad = deg2rad(23.0 * k);
    el.argPerigeeRad = deg2rad(41.0 * k);
    el.meanAnomalyAtEpochRad = deg2rad(17.0 * k);
    eph.publish(ProviderId{1}, el);
  }
  SweepConfig cfg;
  cfg.minElevationRad = deg2rad(10.0);
  const HandoverSweep sweep(eph, cfg);
  const std::vector<Geodetic> sites = {Geodetic::fromDegrees(40.44, -79.99),
                                       Geodetic::fromDegrees(-1.29, 36.82),
                                       Geodetic::fromDegrees(78.22, 15.63)};
  double worstGap = 0.0;
  double worstSlack = std::numeric_limits<double>::infinity();
  for (const Geodetic& site : sites) {
    const double guard = sweep.probeGuardRad(geodeticToEcef(site));
    ASSERT_GT(guard, 0.0);
    ASSERT_TRUE(std::isfinite(guard));
    for (const SatelliteId sid : eph.satellites()) {
      const OrbitalElements& el = eph.record(sid).elements;
      SatelliteSweep warm(el);
      const double fromS = 123.0;
      warm.positionEciAt(fromS);
      for (double t = fromS + 10.0; t < fromS + 3'600.0; t += 10.0) {
        const double gap =
            std::abs(elevationFrom(warm.positionEciAt(t), site, t) -
                     elevationFrom(positionEci(el, t), site, t));
        worstGap = std::max(worstGap, gap);
        worstSlack = std::min(worstSlack, guard - gap);
      }
    }
  }
  EXPECT_GT(worstGap, 0.0);  // the disagreement the guard exists for
  EXPECT_GT(worstSlack, 0.0) << "worst gap " << worstGap;
}

TEST_F(DenseSessionSweepTest, GuardIsTinyOnLeoAndInfiniteAbovePerigee) {
  // The guard covers last-bit disagreement only, so on a LEO fleet it
  // sits far below any elevation change over a pass.
  const HandoverSweep sweep(eph_, cfg_);
  for (const Geodetic& site : denseSites_) {
    EXPECT_LT(sweep.probeGuardRad(geodeticToEcef(site)), 1e-10);
  }
  // A site above the lowest perigee has no finite bound: never prune.
  EXPECT_TRUE(std::isinf(sweep.probeGuardRad(Vec3{8.0e6, 0.0, 0.0})));
}

TEST(SessionStateNames, AllNamed) {
  for (const auto s : {SessionState::Serving, SessionState::Scanning,
                       SessionState::Disassociated}) {
    EXPECT_NE(sessionStateName(s), "?");
  }
}

// --- sim scenarios --------------------------------------------------------

class SessionScenarioTest : public ::testing::Test {
 protected:
  SessionScenarioTest() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) {
      eph_.publish(ProviderId{1}, el);
    }
    cfg_.baseUsers = 400;
    cfg_.epochS = 60.0;
    cfg_.epochCount = 4;
  }
  EphemerisService eph_;
  SessionScenarioConfig cfg_;
};

TEST_F(SessionScenarioTest, FlashCrowdIsDeterministicAndAdmitsTheCrowd) {
  const Geodetic center = Geodetic::fromDegrees(51.5, -0.13);
  const auto a = runFlashCrowdScenario(eph_, cfg_, center, 50.0e3, 120);
  const auto b = runFlashCrowdScenario(eph_, cfg_, center, 50.0e3, 120);
  EXPECT_EQ(a.finalStateChecksum, b.finalStateChecksum);
  EXPECT_EQ(a.seededUsers, cfg_.baseUsers + 120);
  EXPECT_EQ(a.epochs.size(), cfg_.epochCount);
  EXPECT_GT(a.finalActive, 0u);
}

TEST_F(SessionScenarioTest, RegionalOutageDropsAndRecovers) {
  // A generous radius around New York catches base-population users.
  const Geodetic center = Geodetic::fromDegrees(40.7, -74.0);
  const auto res = runRegionalOutageScenario(eph_, cfg_, center, 1'500.0e3);
  EXPECT_GT(res.droppedSessions, 0u);
  // Every dropped user re-associated one epoch later.
  EXPECT_EQ(res.seededUsers, cfg_.baseUsers + res.droppedSessions);
  const auto res2 = runRegionalOutageScenario(eph_, cfg_, center, 1'500.0e3);
  EXPECT_EQ(res.finalStateChecksum, res2.finalStateChecksum);
}

TEST_F(SessionScenarioTest, DiurnalLoadShiftAdmitsArrivalsDeterministically) {
  const auto a = runDiurnalLoadShiftScenario(eph_, cfg_, 80);
  const auto b = runDiurnalLoadShiftScenario(eph_, cfg_, 80);
  EXPECT_EQ(a.finalStateChecksum, b.finalStateChecksum);
  EXPECT_GE(a.seededUsers, cfg_.baseUsers);
  // The diurnal factor is in [0.3, 1.0]: some arrivals must be admitted.
  EXPECT_GT(a.seededUsers, cfg_.baseUsers);
}

TEST_F(SessionScenarioTest, ScenariosAreThreadCountInvariant) {
  ThreadCountGuard guard;
  const Geodetic center = Geodetic::fromDegrees(40.7, -74.0);
  setParallelThreadCount(1);
  const auto serial = runRegionalOutageScenario(eph_, cfg_, center, 1'000.0e3);
  setParallelThreadCount(8);
  const auto parallel = runRegionalOutageScenario(eph_, cfg_, center, 1'000.0e3);
  EXPECT_EQ(serial.finalStateChecksum, parallel.finalStateChecksum);
  EXPECT_EQ(serial.droppedSessions, parallel.droppedSessions);
  ASSERT_EQ(serial.epochs.size(), parallel.epochs.size());
  for (std::size_t e = 0; e < serial.epochs.size(); ++e) {
    EXPECT_EQ(serial.epochs[e].eventChecksum, parallel.epochs[e].eventChecksum);
  }
}

}  // namespace
}  // namespace openspace
