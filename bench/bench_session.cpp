// Million-user session plane: the batched HandoverSweep epoch kernel vs
// the stateless per-user HandoverPlanner scan (paper §2.2 at scale).
//
// Two tiers, each swept through epochs of 15 s — the paper's Starlink
// handover-cadence anchor sets the control-plane tick — with users drawn
// from the default world population model:
//  * iridium (scale 1.0): the 66-sat Iridium-like Walker star serving
//    1,000,000 users over a six-minute steady-state window (24 epochs).
//    A pick sees 1-3 candidates above the mask.
//  * dense (scale 1.0): bench_scale's 1k tier — a 720-sat 53 deg Delta
//    shell stacked with a 360-sat polar Star shell — serving 100,000
//    users over 24 minutes (96 epochs). A pick sees 20+ candidates above the mask, and most of them
//    are ruled out by the successor search's one-probe bound; the tier
//    reports how many (search_prune_ratio: candidates above the mask per
//    full visibility search, a deterministic count).
// The tick length is where the expiry heap earns its keep: the stateless
// planner scan pays O(users) per epoch regardless of how many sessions
// actually need a decision, while the sweep pays per executed handover
// plus one index compile per epoch. argv[2] scales both user counts (0.2
// for the perf-smoke lane, 0.02 for the TSan lane); argv[1] is the JSON
// output path.
//
// Structure per tier — verification and timing are separate:
//  * verify (untimed) — a small-table sweep runs next to simulateHandovers
//    for a subsample of users: every handover's time, endpoints and
//    latency must match the legacy timeline bit for bit (hard gate, exit
//    non-zero). The legacy path stays in place as the executable spec; the
//    sweep is only allowed to be faster, never different.
//  * serial sweep (timed) — seed the full population, then run the epoch
//    chain at one thread. This is the single-core number the >= 10x
//    headline is measured against.
//  * parallel sweep (timed) — a fresh identically-seeded table swept at
//    the pool thread count. Final table state checksum and the per-epoch
//    event-checksum chain must match the serial run bit for bit (hard
//    gate; serial==parallel is the determinism contract).
//  * baseline (timed) — the per-user planner scan the sweep replaces:
//    bestSatelliteAt(user, t) at every epoch start, measured on a
//    subsample and extrapolated to the full population. The >= 10x floor
//    is declared in the record and checked by tools/bench_compare.py, not
//    here (wall-clock asserts flake on loaded machines; checksum gates
//    cannot). The record also declares the dense tier's hard
//    search_prune_ratio floor.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/handover/handover.hpp>
#include <openspace/orbit/shells.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/population.hpp>
#include <openspace/sim/session_scenarios.hpp>

#include "bench_record.hpp"

namespace {

using namespace openspace;

constexpr int kPasses = 3;      // best-of to shrug off scheduler noise
constexpr double kEpochS = 15.0;

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Timed {
  double bestPassS = 0.0;
  std::uint64_t checksum = 0;
};

/// Time `pass` (returning a checksum) `passes` times; keep the fastest wall
/// time and require a stable checksum.
template <typename Pass>
Timed timeIt(Pass&& pass, int passes = kPasses) {
  Timed r;
  for (int p = 0; p < passes; ++p) {
    const double t0 = nowS();
    const std::uint64_t sum = pass();
    const double dt = nowS() - t0;
    if (p == 0 || dt < r.bestPassS) r.bestPassS = dt;
    if (p == 0) {
      r.checksum = sum;
    } else if (sum != r.checksum) {
      std::fprintf(stderr, "non-deterministic pass checksum\n");
      std::exit(1);
    }
  }
  return r;
}

/// One seed + epoch-chain run over a tier's population; the epoch loop is
/// the timed region.
struct SweepRun {
  double seedS = 0.0;
  double sweepS = 0.0;
  std::uint64_t stateChecksum = 0;
  std::uint64_t eventChain = kFnvOffsetBasis;
  std::size_t touched = 0;
  std::size_t handovers = 0;
  std::size_t holes = 0;
  std::size_t reacquisitions = 0;
  std::size_t certHits = 0;
  std::size_t certMisses = 0;
  std::size_t candidatesAboveMask = 0;
  std::size_t visibilitySearches = 0;
  double outageS = 0.0;
};

/// One tier's fleet, population size (at scale 1), epoch count, the
/// planner-scan subsample the baseline is extrapolated from, and the floors
/// its record declares (0 = none).
struct TierSpec {
  const char* name;
  std::vector<OrbitalElements> fleet;
  std::size_t users;
  int epochs;
  std::size_t baselineUsers;
  double plannerFloor;  ///< speedup_vs_planner, warn-only
  double pruneFloor;    ///< search_prune_ratio, hard
};

std::vector<OrbitalElements> denseFleet() {
  MultiShellConfig cfg;
  ShellSpec delta;
  delta.kind = ShellKind::Delta;
  delta.walker = {720, 36, 17, km(550.0), deg2rad(53.0)};
  ShellSpec star;
  star.kind = ShellKind::Star;
  star.walker = {360, 30, 1, km(560.0), deg2rad(86.4)};
  cfg.shells = {delta, star};
  return MultiShellFleet(cfg).elements();
}

/// Verify, time and report one tier (see the file comment) into `rec`
/// under the tier's name.
void runTier(const TierSpec& spec, double scale, int poolThreads,
             bench::BenchRecord& rec) {
  EphemerisService eph;
  for (const auto& el : spec.fleet) eph.publish(ProviderId{1}, el);
  const std::size_t satCount = eph.satellites().size();
  std::unordered_map<std::uint32_t, std::uint32_t> indexOf;
  {
    const auto& sats = eph.satellites();
    for (std::size_t i = 0; i < sats.size(); ++i) {
      indexOf[sats[i].value()] = static_cast<std::uint32_t>(i);
    }
  }

  SweepConfig cfg;
  cfg.minElevationRad = deg2rad(10.0);
  cfg.dropOnCertExpiry = false;  // legacy equivalence: certs never gate
  const HandoverSweep sweeper(eph, cfg);
  const HandoverPlanner planner(eph, cfg.minElevationRad);

  const std::size_t users = std::max<std::size_t>(
      256, static_cast<std::size_t>(static_cast<double>(spec.users) * scale));
  const int epochs = spec.epochs;
  const double windowS = epochs * kEpochS;

  Rng rng(42);
  const CertificateAuthority authority(ProviderId{1}, 0xB47C'5E55ull,
                                       /*lifetimeS=*/7.0 * 86'400.0);
  const auto sampled =
      defaultWorldPopulation().sampleUsers(static_cast<int>(users), rng);
  const std::vector<SessionSeed> seeds =
      issueSeedCertificates(authority, sampled, /*firstUser=*/1, /*nowS=*/0.0);
  // Provision the certificate caches for the population (the §2.2 point:
  // a steady-state handover is a cache hit, i.e. a purely local operation).
  const std::size_t cacheBudget = 128 * users;

  // --- verify (untimed): sweep == legacy, bit for bit ----------------------
  bool legacyMatch = true;
  const std::size_t verifyUsers = std::min<std::size_t>(users, 200);
  std::size_t verifyEvents = 0;
  {
    const std::vector<SessionSeed> sub(seeds.begin(),
                                       seeds.begin() + verifyUsers);
    SessionTable table(satCount);
    table.setCertificateCacheByteBudget(cacheBudget);
    sweeper.seed(table, sub, 0.0, SeedMode::Planner);
    std::vector<SessionEvent> events;
    for (int e = 1; e <= epochs; ++e) {
      sweeper.runEpoch(table, e * kEpochS, &events);
    }
    std::unordered_map<UserId, std::vector<SessionEvent>> byUser;
    for (const SessionEvent& ev : events) byUser[ev.user].push_back(ev);
    for (const SessionSeed& s : sub) {
      const HandoverTimeline tl = simulateHandovers(
          planner, s.location, 0.0, windowS, cfg.mode, cfg.reassocCost);
      const auto& mine = byUser[s.user];
      bool ok = mine.size() == tl.events.size();
      for (std::size_t j = 0; ok && j < mine.size(); ++j) {
        const HandoverEvent& ref = tl.events[j];
        ok = bitsOf(mine[j].atS) == bitsOf(ref.atS) &&
             mine[j].fromSat == indexOf.at(ref.from.value()) &&
             mine[j].toSat == indexOf.at(ref.to.value()) &&
             bitsOf(mine[j].latencyS) == bitsOf(ref.latencyS);
      }
      verifyEvents += tl.events.size();
      legacyMatch = legacyMatch && ok;
    }
  }

  // --- full-population sweeps: serial (timed) then parallel (timed) --------
  const int parThreads = std::max(poolThreads, 4);
  const auto runAt = [&](int threads) {
    SweepRun r;
    SessionTable table(satCount);
    table.setCertificateCacheByteBudget(cacheBudget);
    double t0 = nowS();
    // Seeding is thread-count invariant; run it on the pool either way so
    // the timed region is exactly the epoch chain.
    sweeper.seed(table, seeds, 0.0, SeedMode::Planner);
    r.seedS = nowS() - t0;
    setParallelThreadCount(threads);
    t0 = nowS();
    for (int e = 1; e <= epochs; ++e) {
      const EpochStats st = sweeper.runEpoch(table, e * kEpochS);
      r.eventChain = fnv1a(r.eventChain, st.eventChecksum);
      r.touched += st.sessionsTouched;
      r.handovers += st.handovers;
      r.holes += st.coverageHoles;
      r.reacquisitions += st.reacquisitions;
      r.certHits += st.certCacheHits;
      r.certMisses += st.certCacheMisses;
      r.candidatesAboveMask += st.candidatesAboveMask;
      r.visibilitySearches += st.visibilitySearches;
      r.outageS += st.outageS;
    }
    r.sweepS = nowS() - t0;
    setParallelThreadCount(poolThreads);
    r.stateChecksum = table.stateChecksum();
    return r;
  };
  const SweepRun serial = runAt(1);
  const SweepRun parallel = runAt(parThreads);
  const bool serialParallelMatch =
      serial.stateChecksum == parallel.stateChecksum &&
      serial.eventChain == parallel.eventChain &&
      serial.handovers == parallel.handovers &&
      serial.visibilitySearches == parallel.visibilitySearches &&
      bitsOf(serial.outageS) == bitsOf(parallel.outageS);

  // --- baseline (timed): the per-user planner scan, subsampled -------------
  const std::size_t baseUsers = std::min(users, spec.baselineUsers);
  setParallelThreadCount(1);  // single-core, like the serial sweep
  const Timed base = timeIt([&] {
    std::uint64_t h = kFnvOffsetBasis;
    for (int e = 0; e < epochs; ++e) {
      const double t = e * kEpochS;
      for (std::size_t u = 0; u < baseUsers; ++u) {
        const auto best = planner.bestSatelliteAt(seeds[u].location, t);
        h = fnv1a(h, best ? best->value() : kNoSatellite);
      }
    }
    return h;
  });
  setParallelThreadCount(poolThreads);
  const double baselineS =
      base.bestPassS * static_cast<double>(users) /
      static_cast<double>(baseUsers);
  const double speedupPlanner =
      serial.sweepS > 0.0 ? baselineS / serial.sweepS : 0.0;
  const double speedupParallel =
      parallel.sweepS > 0.0 ? serial.sweepS / parallel.sweepS : 0.0;
  const double pruneRatio =
      serial.visibilitySearches > 0
          ? static_cast<double>(serial.candidatesAboveMask) /
                static_cast<double>(serial.visibilitySearches)
          : 0.0;

  // --- report --------------------------------------------------------------
  std::printf("# tier %s: batched epoch sweep vs per-user planner scan "
              "(%zu sats, %zu users, %d epochs of %.0f s, scale=%.3f)\n\n",
              spec.name, satCount, users, epochs, kEpochS, scale);
  std::printf("%-22s %-12s %-14s %-10s\n", "path", "threads", "epochs_s",
              "speedup");
  std::printf("%-22s %-12zu %-14.3f %-10s\n", "planner scan (extrap)",
              std::size_t{1}, baselineS, "1.00");
  std::printf("%-22s %-12zu %-14.3f %-10.2f\n", "epoch sweep", std::size_t{1},
              serial.sweepS, speedupPlanner);
  std::printf("%-22s %-12d %-14.3f %-10.2f\n", "epoch sweep", parThreads,
              parallel.sweepS,
              parallel.sweepS > 0.0 ? baselineS / parallel.sweepS : 0.0);
  std::printf("\n# seed: %.3f s (%d threads); sweep touched %zu sessions, "
              "%zu handovers, %zu holes, %zu reacquisitions\n",
              serial.seedS, poolThreads, serial.touched, serial.handovers,
              serial.holes, serial.reacquisitions);
  std::printf("# cert cache: %zu hits / %zu misses (budget %zu B); "
              "outage %.3f s across the fleet\n",
              serial.certHits, serial.certMisses, cacheBudget, serial.outageS);
  std::printf("# successor search: %zu candidates above the mask, %zu full "
              "visibility searches (prune ratio %.2f)\n",
              serial.candidatesAboveMask, serial.visibilitySearches,
              pruneRatio);
  std::printf("# gates: sweep==legacy (%zu users, %zu events) %s  "
              "serial==parallel %s\n\n",
              verifyUsers, verifyEvents, legacyMatch ? "MATCH" : "MISMATCH",
              serialParallelMatch ? "MATCH" : "MISMATCH");

  const std::string p = std::string(spec.name) + ".";
  rec.count(p + "sats", satCount);
  rec.count(p + "users", users);
  rec.count(p + "epochs", epochs);
  rec.metric(p + "seed_s", serial.seedS, "s").compare();
  rec.metric(p + "sweep_serial_s", serial.sweepS, "s").compare();
  rec.metric(p + "sweep_parallel_s", parallel.sweepS, "s").compare();
  rec.metric(p + "per_epoch_serial_ms", 1e3 * serial.sweepS / epochs, "ms", 4);
  rec.count(p + "sessions_touched", serial.touched);
  rec.count(p + "handovers", serial.handovers);
  rec.count(p + "coverage_holes", serial.holes);
  rec.count(p + "reacquisitions", serial.reacquisitions);
  rec.count(p + "cert_cache_hits", serial.certHits);
  rec.count(p + "cert_cache_misses", serial.certMisses);
  // Every handover consults the per-shard certificate cache exactly once
  // (hit or miss); a gap means the cache was silently bypassed.
  rec.flag(p + "cert_cache_sees_every_handover",
           serial.certHits + serial.certMisses == serial.handovers)
      .floor(1.0);
  rec.count(p + "candidates_above_mask", serial.candidatesAboveMask);
  rec.count(p + "visibility_searches", serial.visibilitySearches);
  // A full visibility search only ever runs for a candidate above the mask.
  rec.flag(p + "searches_within_candidates",
           serial.visibilitySearches <= serial.candidatesAboveMask)
      .floor(1.0, /*hard=*/true);
  // The successor search's one-probe bound: on the dense tier most
  // above-mask candidates must skip the full visibility search. Both counts
  // are deterministic, so the floor is machine-independent and hard.
  bench::BenchMetric& prune =
      rec.metric(p + "search_prune_ratio", pruneRatio, "ratio", -1);
  if (spec.pruneFloor > 0.0) prune.floor(spec.pruneFloor, /*hard=*/true);
  rec.metric(p + "outage_s", serial.outageS, "s");
  rec.count(p + "baseline_users", baseUsers);
  rec.metric(p + "baseline_probe_s", base.bestPassS, "s").compare();
  rec.metric(p + "baseline_extrapolated_s", baselineS, "s");
  // The sweep's reason to exist: the >= 10x headline over the per-user
  // planner scan. It only holds once per-epoch fixed costs (index compile,
  // heap walk) amortize over enough users, so reduced lanes declare none.
  bench::BenchMetric& vsPlanner =
      rec.metric(p + "speedup_vs_planner", speedupPlanner, "x", 3);
  if (spec.plannerFloor > 0.0 && scale >= 0.2) {
    vsPlanner.floor(spec.plannerFloor);
  }
  rec.metric(p + "speedup_parallel", speedupParallel, "x", 3);
  rec.count(p + "equivalence_users", verifyUsers);
  rec.count(p + "equivalence_events", verifyEvents);
  rec.checksum(p + "state_checksum", serial.stateChecksum);
  rec.checksum(p + "event_checksum", serial.eventChain);
  rec.gate(p + "sweep_eq_legacy", legacyMatch);
  rec.gate(p + "serial_eq_parallel", serialParallelMatch);
}

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_session.json";
  const double scale =
      argc > 2 ? std::clamp(std::atof(argv[2]), 1e-3, 10.0) : 1.0;
  const double wallStartS = nowS();
  const int poolThreads = parallelThreadCount();

  const std::vector<TierSpec> tiers = {
      {"iridium", makeWalkerStar(iridiumConfig()), 1'000'000, 24, 384, 10.0,
       0.0},
      // Dense-fleet legs last most of a pass (the longest-visibility pick),
      // so its window is four times longer for handovers to recur.
      {"dense", denseFleet(), 100'000, 96, 64, 0.0, 3.0},
  };
  bench::BenchRecord rec("session", scale);
  rec.metric("epoch_s", kEpochS, "s", 3);
  for (const TierSpec& spec : tiers) runTier(spec, scale, poolThreads, rec);
  rec.write(jsonPath, std::max(poolThreads, 4), nowS() - wallStartS);
  return rec.allGates() ? 0 : 1;
}
