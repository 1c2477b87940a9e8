/**
 * @file
 * Cache-tier crossover: hit ratio vs IOPS as workload skew varies.
 *
 * Sweeps Zipfian theta over the RACE hash table with the compute-side
 * cache tier off and on. High skew concentrates the working set into the
 * frame pool (hits replace ~1.3 us wire round-trips with ~60 ns local
 * copies); uniform access thrashes it, so the cached run must track the
 * cache-less one within noise. A second table moves the hot set mid-run
 * (YcsbGenerator::rotate) and shows the pool re-converging.
 *
 * Expected shape (gated by scripts/check_bench_json.py):
 *   theta >= 0.9 : cached >= 2x ops/s of no-cache at >= 80% hit ratio
 *   theta == 0   : cached never regresses below 0.95x no-cache (it may
 *                  still win outright when the bucket array partially
 *                  fits), and the pool must actually thrash (evictions)
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/ht_bench.hpp"
#include "sim/table.hpp"

using namespace smart;
using namespace smart::harness;

namespace {

std::uint64_t g_seed = 0;
const BenchCli *g_cli = nullptr;

HtBenchResult
run(double theta, bool cached, std::uint64_t keys, bool quick,
    const HtBenchParams *shift = nullptr, RunCapture *cap = nullptr)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = quick ? 8 : 16;
    cfg.bladeBytes = 3ull << 30;
    cfg.smart = presets::full();
    cfg.smart.withBenchTimescale();
    if (cached) {
        // Default pool sized to hold the theta >= 0.9 hot set but stay
        // far below the uniform working set (so theta=0 thrashes and the
        // crossover is visible). --cache-mb overrides.
        cfg.smart.withCacheMb(quick ? 8 : 32);
        g_cli->configureCache(cfg.smart);
    }
    if (cap != nullptr)
        g_cli->configureTimeline(cfg);

    HtBenchParams p;
    p.numKeys = keys;
    p.zipfTheta = theta;
    p.mix = workload::YcsbMix::readHeavy();
    p.seed = g_seed;
    p.warmupNs = sim::msec(8);
    p.measureNs = quick ? sim::msec(2) : sim::msec(4);
    if (shift != nullptr) {
        p.shiftAtNs = shift->shiftAtNs;
        p.shiftRotate = shift->shiftRotate;
    }
    return runHtBench(cfg, p, cap);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "cache_crossover");
    g_seed = cli.seed();
    g_cli = &cli;
    bool quick = cli.quick();
    std::uint64_t keys = quick ? 200'000 : 1'000'000;

    std::vector<double> thetas = quick
                                     ? std::vector<double>{0.0, 0.9, 0.99}
                                     : std::vector<double>{0.0, 0.5, 0.9,
                                                           0.99};

    std::cout << "== Cache crossover: read-heavy RACE, hit ratio vs "
                 "IOPS across skew ==\n";
    sim::Table t({"theta", "nocache_mops", "cached_mops", "speedup",
                  "hit_ratio", "evictions"});
    for (double theta : thetas) {
        bool last = theta == thetas.back();
        HtBenchResult off =
            run(theta, false, keys, quick, nullptr,
                last ? cli.nextCapture("nocache") : nullptr);
        HtBenchResult on =
            run(theta, true, keys, quick, nullptr,
                last ? cli.nextCapture("cached") : nullptr);
        t.row()
            .cell(theta, 2)
            .cell(off.mops, 2)
            .cell(on.mops, 2)
            .cell(off.mops > 0 ? on.mops / off.mops : 0.0, 2)
            .cell(on.hitRatio, 3)
            .cell(on.cacheEvictions);
    }
    cli.addTable("cache_crossover", t);
    std::cout << "\n";

    // ---- skew shift: rotate the theta=0.99 hot set mid-measure ----
    std::cout << "== Cache under skew shift (theta = 0.99, cached) ==\n";
    sim::Table s({"run", "mops", "hit_ratio", "evictions"});
    HtBenchResult steady = run(0.99, true, keys, quick);
    HtBenchParams shift;
    shift.shiftAtNs = sim::msec(8) + (quick ? sim::msec(1) : sim::msec(2));
    shift.shiftRotate = keys / 2;
    HtBenchResult shifted = run(0.99, true, keys, quick, &shift,
                                cli.nextCapture("shifted"));
    s.row()
        .cell("steady")
        .cell(steady.mops, 2)
        .cell(steady.hitRatio, 3)
        .cell(steady.cacheEvictions);
    s.row()
        .cell("shifted")
        .cell(shifted.mops, 2)
        .cell(shifted.hitRatio, 3)
        .cell(shifted.cacheEvictions);
    cli.addTable("cache_skew_shift", s);

    cli.note("Expected shape: theta>=0.9 cached >=2x no-cache ops/s at "
             ">=80% hit ratio; theta=0 never below 0.95x; the shifted "
             "run dips then re-converges as the pool turns over.");
    return cli.finish();
}
