// Figure 2(b) reproduction: propagation latency vs. number of satellites.
//
// Paper setup (§4): fixed user and ground station, randomly distributed
// satellite orbits; latency estimated from the length of the shortest
// inter-satellite path between the pickup satellite and the relay
// satellite. Expected shape: latency falls sharply with the first ~25
// satellites, then plateaus around ~30 ms; ~4 satellites is the minimum
// for the user/station to be in range of anything at all.
//
// Besides the human-readable table, the bench writes a machine-readable
// JSON record (wall time + every sweep point) to BENCH_fig2b_latency.json
// (or argv[1]) so the performance trajectory can be tracked across PRs.
#include <chrono>
#include <cstdio>
#include <string>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/sim/fig2.hpp>

#include "bench_record.hpp"

int main(int argc, char** argv) {
  using namespace openspace;
  Fig2Config cfg;  // Pittsburgh user, Paris gateway, 780 km shells
  const int trials = 200;

  std::vector<int> counts;
  for (int n = 1; n <= 30; ++n) counts.push_back(n);
  for (int n = 35; n <= 100; n += 5) counts.push_back(n);

  const auto start = std::chrono::steady_clock::now();
  const auto sweep = fig2LatencySweep(counts, trials, cfg, /*seed=*/2024);
  const double wallS =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("# Figure 2(b): propagation latency vs constellation size\n");
  std::printf(
      "# user=Pittsburgh  station=Paris  alt=%.0f km  mask=%.0f deg  trials=%d\n",
      cfg.altitudeM / 1000.0, rad2deg(cfg.minElevationRad), trials);
  std::printf("%-6s %-13s %-14s %-14s %-10s\n", "sats", "connectivity",
              "latency_ms", "end2end_ms", "isl_hops");
  for (const auto& pt : sweep) {
    if (pt.connectedTrials == 0) {
      std::printf("%-6d %-13.3f %-14s %-14s %-10s\n", pt.satellites,
                  pt.connectivity, "-", "-", "-");
    } else {
      std::printf("%-6d %-13.3f %-14.2f %-14.2f %-10.2f\n", pt.satellites,
                  pt.connectivity, toMilliseconds(pt.meanLatencyS),
                  toMilliseconds(pt.meanEndToEndLatencyS), pt.meanIslHops);
    }
  }

  // Paper anchor checks (shape, not absolute): minimum ~4 sats for any
  // connectivity; plateau around 30 ms beyond ~25 satellites.
  double plateau = 0.0;
  int plateauPoints = 0;
  for (const auto& pt : sweep) {
    if (pt.satellites >= 25 && pt.connectedTrials > 0) {
      plateau += toMilliseconds(pt.meanLatencyS);
      ++plateauPoints;
    }
  }
  if (plateauPoints > 0) {
    std::printf("\n# plateau (N>=25) mean latency: %.2f ms (paper: ~30 ms)\n",
                plateau / plateauPoints);
  }
  std::printf("# wall time: %.3f s (threads=%d)\n", wallS,
              parallelThreadCount());

  bench::BenchRecord rec("fig2b_latency");
  rec.count("trials", trials);
  for (const auto& pt : sweep) {
    const std::string p =
        "points.satellites=" + std::to_string(pt.satellites) + ".";
    rec.metric(p + "connectivity", pt.connectivity, "ratio");
    rec.metric(p + "mean_latency_s", pt.meanLatencyS, "s", 9);
    rec.metric(p + "mean_end_to_end_latency_s", pt.meanEndToEndLatencyS, "s",
               9);
    rec.metric(p + "mean_isl_hops", pt.meanIslHops, "hops", 4);
  }
  rec.write(argc > 1 ? argv[1] : "BENCH_fig2b_latency.json",
            parallelThreadCount(), wallS);
  return 0;
}
