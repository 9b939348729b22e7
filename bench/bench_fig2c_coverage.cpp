// Figure 2(c) reproduction: Earth coverage vs. number of satellites.
//
// Paper setup (§4): random orbital paths; worst-case overlap model — any
// overlapping pair of footprints collapses to a single footprint. Expected
// shape: total earth coverage achieved by about 50 satellites; additional
// satellites buy redundancy. The Monte-Carlo union column is the ablation
// (DESIGN.md §5(1)): the optimistic counterpart of the paper's worst case.
//
// Besides the human-readable table, the bench writes a machine-readable
// JSON record (wall time + every sweep point) to BENCH_fig2c_coverage.json
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
  Fig2Config cfg;
  // The latency experiment counts horizon visibility (mask 0); for the
  // coverage panel we apply a 10-degree *service* mask — a terminal at the
  // edge of the horizon is reachable but not usable.
  cfg.minElevationRad = deg2rad(10.0);
  const int trials = 30;

  std::vector<int> counts;
  for (int n = 1; n <= 30; ++n) counts.push_back(n);
  for (int n = 35; n <= 100; n += 5) counts.push_back(n);

  const auto start = std::chrono::steady_clock::now();
  const auto sweep = fig2CoverageSweep(counts, trials, cfg, /*seed=*/2024);
  const double wallS =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("# Figure 2(c): coverage vs constellation size\n");
  std::printf("# alt=%.0f km  mask=%.0f deg  trials=%d (random constellations)\n",
              cfg.altitudeM / 1000.0, rad2deg(cfg.minElevationRad), trials);
  std::printf("%-6s %-18s %-18s %-18s\n", "sats", "worstcase_cov",
              "montecarlo_cov", "effective_sats");
  int fullCoverageAt = -1;
  for (const auto& pt : sweep) {
    std::printf("%-6d %-18.4f %-18.4f %-18.2f\n", pt.satellites,
                pt.worstCaseCoverage, pt.monteCarloCoverage,
                pt.meanEffectiveSatellites);
    if (fullCoverageAt < 0 && pt.worstCaseCoverage >= 0.99) {
      fullCoverageAt = pt.satellites;
    }
  }
  if (fullCoverageAt > 0) {
    std::printf("\n# worst-case model reaches ~total coverage at N=%d "
                "(paper: ~50)\n", fullCoverageAt);
  } else {
    std::printf("\n# worst-case model did not reach 99%% coverage in sweep\n");
  }
  std::printf("# wall time: %.3f s (threads=%d)\n", wallS,
              parallelThreadCount());

  // The curve is a fixed-seed deterministic computation: any drift from the
  // committed baseline is a semantic change, not noise.
  bench::BenchRecord rec("fig2c_coverage");
  rec.metric("sweep_s", wallS, "s").compare();
  rec.count("trials", trials);
  rec.count("full_coverage_at", fullCoverageAt, "sats").exact();
  for (const auto& pt : sweep) {
    const std::string p =
        "points.satellites=" + std::to_string(pt.satellites) + ".";
    rec.metric(p + "worst_case_coverage", pt.worstCaseCoverage, "ratio")
        .exact();
    rec.metric(p + "monte_carlo_coverage", pt.monteCarloCoverage, "ratio")
        .exact();
    rec.metric(p + "mean_effective_satellites", pt.meanEffectiveSatellites,
               "sats", 4)
        .exact();
  }
  rec.write(argc > 1 ? argv[1] : "BENCH_fig2c_coverage.json",
            parallelThreadCount(), wallS);
  return 0;
}
