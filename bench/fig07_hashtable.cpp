/**
 * @file
 * Reproduces paper Figure 7: RACE vs SMART-HT throughput across the
 * three YCSB mixes — (a)-(c) scale-up on one compute blade, (d)-(f)
 * scale-out across up to six compute blades at full thread count.
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

std::uint64_t g_seed = 0;           // from BenchCli --seed
std::uint32_t g_span_every = 0;     // from BenchCli --trace-spans
const BenchCli *g_cli = nullptr;    // for --cache-* flags

HtBenchResult
run(std::uint32_t compute_blades, std::uint32_t threads, bool smart_on,
    const workload::YcsbMix &mix, std::uint64_t keys, bool quick,
    RunCapture *cap = nullptr)
{
    TestbedConfig cfg;
    cfg.computeBlades = compute_blades;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = threads;
    cfg.bladeBytes = 3ull << 30;
    cfg.smart = smart_on ? presets::full() : presets::baseline();
    cfg.smart.withBenchTimescale();
    g_cli->configureCache(cfg.smart);
    cfg.spanSampleEvery = g_span_every;

    HtBenchParams p;
    p.numKeys = keys;
    p.mix = mix;
    p.seed = g_seed;
    p.warmupNs = sim::msec(8); // covers one full C_max update phase
    p.measureNs = quick ? sim::msec(2) : sim::msec(4);
    return runHtBench(cfg, p, cap);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "fig07_hashtable");
    g_seed = cli.seed();
    g_span_every = cli.spanSampleEvery();
    g_cli = &cli;
    bool quick = cli.quick();
    std::uint64_t keys = quick ? 200'000 : 1'000'000;

    const std::vector<workload::YcsbMix> mixes = {
        workload::YcsbMix::writeHeavy(), workload::YcsbMix::readHeavy(),
        workload::YcsbMix::readOnly()};

    // ---- (a)-(c): scale-up, one compute blade ----
    std::vector<std::uint32_t> threads =
        quick ? std::vector<std::uint32_t>{8, 48, 96}
              : std::vector<std::uint32_t>{8, 16, 32, 48, 64, 96};
    for (const auto &mix : mixes) {
        std::cout << "== Figure 7 scale-up (" << mix.name()
                  << "): MOP/s, 1 compute blade ==\n";
        sim::Table t({"threads", "RACE", "SMART-HT"});
        for (std::uint32_t thr : threads) {
            bool last = thr == threads.back();
            HtBenchResult base = run(
                1, thr, false, mix, keys, quick,
                last ? cli.nextCapture(std::string("RACE/") + mix.name())
                     : nullptr);
            HtBenchResult sm =
                run(1, thr, true, mix, keys, quick,
                    last ? cli.nextCapture(std::string("SMART-HT/") +
                                           mix.name())
                         : nullptr);
            t.row()
                .cell(static_cast<std::uint64_t>(thr))
                .cell(base.mops, 2)
                .cell(sm.mops, 2);
        }
        cli.addTable(std::string("fig07_scaleup_") + mix.name(), t);
        std::cout << "\n";
    }

    // ---- (d)-(f): scale-out, 96 threads per compute blade ----
    std::vector<std::uint32_t> blades =
        quick ? std::vector<std::uint32_t>{1, 2}
              : std::vector<std::uint32_t>{1, 2, 4, 6};
    for (const auto &mix : mixes) {
        std::cout << "== Figure 7 scale-out (" << mix.name()
                  << "): MOP/s, 96 threads per compute blade ==\n";
        sim::Table t({"compute_blades", "RACE", "SMART-HT"});
        for (std::uint32_t cb : blades) {
            HtBenchResult base = run(cb, 96, false, mix, keys, quick);
            HtBenchResult sm = run(cb, 96, true, mix, keys, quick);
            t.row()
                .cell(static_cast<std::uint64_t>(cb))
                .cell(base.mops, 2)
                .cell(sm.mops, 2);
        }
        cli.addTable(std::string("fig07_scaleout_") + mix.name(), t);
        std::cout << "\n";
    }

    cli.note("Paper shape: write-heavy RACE peaks ~2.8 MOP/s at 8 "
             "threads vs SMART-HT ~5.7 at 48; read-only RACE <11.4 vs "
             "SMART-HT ~23.7; scale-out gaps up to 132x (write-heavy) "
             "and 2-3.8x (read-only).");
    return cli.finish();
}
