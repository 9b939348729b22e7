// Anchor C / ablation: handover cadence and the predictive-vs-reassociate
// comparison (§2.2 "Satellite Handovers").
//
// Expectation: LEO handovers are frequent (Starlink: every ~15 s with
// thousands of satellites; an Iridium-like 66-sat constellation hands over
// on the order of minutes). OpenSpace's predictive scheme should cut
// per-handover outage by orders of magnitude versus re-running association
// + RADIUS authentication every time.
//
// Besides the human-readable tables the bench writes a machine-readable
// JSON record to BENCH_handover.json (or argv[1]); argv[2] is an optional
// workload scale applied to the service window (0.2 for the perf-smoke
// lane). The timelines are deterministic seeded computations, so the
// record declares the handover counts, outages and cadence table exact
// checks against the committed baseline at equal scale — any drift is a
// semantic change, not noise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/handover/handover.hpp>
#include <openspace/orbit/walker.hpp>

#include "bench_record.hpp"

namespace {

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeStats {
  int handovers = 0;
  double meanIntervalS = 0.0;
  double meanLatencyS = 0.0;
  double outageS = 0.0;
  double availabilityPct = 0.0;
};

struct CadenceRow {
  int sats = 0;
  int handovers = 0;
  double intervalS = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace openspace;

  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_handover.json";
  const double scale =
      argc > 2 ? std::clamp(std::atof(argv[2]), 1e-3, 10.0) : 1.0;
  const double wallStartS = nowS();

  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);

  const HandoverPlanner planner(eph, deg2rad(10.0));
  const Geodetic user = Geodetic::fromDegrees(40.4406, -79.9959);  // Pittsburgh
  // Two hours of service at scale 1.0; never below ten minutes (a shorter
  // window has too few handovers to say anything).
  const double horizon = std::max(600.0, 2.0 * 3600.0 * scale);

  std::printf("# Handover study: Iridium-like 66-sat Walker Star, "
              "user at Pittsburgh, 10 deg mask, %.0f min window\n\n",
              horizon / 60.0);

  ModeStats predictive, reassociate;
  for (const HandoverMode mode :
       {HandoverMode::Predictive, HandoverMode::ReAssociate}) {
    const auto tl = simulateHandovers(planner, user, 0.0, horizon, mode);
    const char* name =
        (mode == HandoverMode::Predictive) ? "predictive" : "re-associate";
    double meanLatency = 0.0;
    for (const auto& ev : tl.events) meanLatency += ev.latencyS;
    if (!tl.events.empty()) {
      meanLatency /= static_cast<double>(tl.events.size());
    }
    ModeStats& out =
        (mode == HandoverMode::Predictive) ? predictive : reassociate;
    out.handovers = tl.handovers();
    out.meanIntervalS = tl.meanIntervalS;
    out.meanLatencyS = meanLatency;
    out.outageS = tl.outageS;
    out.availabilityPct = 100.0 * (1.0 - tl.outageS / horizon);
    std::printf("%-13s handovers=%-4d mean_interval=%6.1f s  "
                "mean_handover_latency=%8.3f ms  total_outage=%8.3f s  "
                "availability=%.4f%%\n",
                name, tl.handovers(), tl.meanIntervalS,
                toMilliseconds(meanLatency), tl.outageS,
                100.0 * (1.0 - tl.outageS / horizon));
  }

  // Handover cadence vs constellation density (the Starlink-15s anchor:
  // cadence shortens as fleets densify; rich fleets can afford to switch
  // to the best satellite often).
  std::printf("\n# cadence vs density (predictive):\n");
  std::printf("%-8s %-12s %-14s\n", "sats", "handovers", "interval_s");
  std::vector<CadenceRow> cadence;
  for (const int n : {11, 22, 44, 66, 132, 264}) {
    EphemerisService e2;
    WalkerConfig wc = iridiumConfig();
    wc.totalSatellites = n;
    wc.planes = (n % 11 == 0) ? n / 11 : 6;
    if (n % wc.planes != 0) wc.planes = 1;
    wc.phasing = wc.phasing % wc.planes;
    for (const auto& el : makeWalkerStar(wc)) e2.publish(ProviderId{1}, el);
    const HandoverPlanner p2(e2, deg2rad(10.0));
    const auto tl = simulateHandovers(p2, user, 0.0, horizon,
                                      HandoverMode::Predictive);
    cadence.push_back({n, tl.handovers(), tl.meanIntervalS});
    std::printf("%-8d %-12d %-14.1f\n", n, tl.handovers(), tl.meanIntervalS);
  }

  const double outageRatio =
      predictive.outageS > 0.0 ? reassociate.outageS / predictive.outageS
                               : 0.0;
  const double wallS = nowS() - wallStartS;
  bench::BenchRecord rec("handover", scale);
  rec.metric("run_s", wallS, "s").compare();
  rec.metric("horizon_s", horizon, "s", 3);
  for (const auto& [name, m] : {std::pair{"predictive", &predictive},
                                std::pair{"reassociate", &reassociate}}) {
    const std::string p = name;
    rec.count(p + "_handovers", m->handovers).exact();
    rec.metric(p + "_mean_interval_s", m->meanIntervalS, "s");
    rec.metric(p + "_mean_latency_ms", 1e3 * m->meanLatencyS, "ms");
    rec.metric(p + "_outage_s", m->outageS, "s").exact();
    rec.metric(p + "_availability_pct", m->availabilityPct, "pct");
  }
  // The predictive scheme's reason to exist: per-handover outage drops from
  // beacon wait + RADIUS RTT (~1.1 s) to signaling latency (~20 ms). The
  // ratio is per-handover, so its floor holds at any window scale.
  rec.metric("outage_ratio", outageRatio, "x", 3).floor(25.0);
  for (const CadenceRow& row : cadence) {
    const std::string p = "cadence.sats=" + std::to_string(row.sats) + ".";
    rec.count(p + "handovers", row.handovers).exact();
    rec.metric(p + "interval_s", row.intervalS, "s");
  }
  std::printf("\n");
  rec.write(jsonPath, parallelThreadCount(), wallS);
  return 0;
}
