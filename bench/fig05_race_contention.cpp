/**
 * @file
 * Reproduces paper Figure 5: baseline RACE hash-table update performance
 * (a) with growing thread counts (depth 8, Zipfian theta = 0.99) and
 * (b) with growing skew at 16 threads — the §3.3 motivation that
 * unsuccessful CAS retries destroy scalability.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/ht_bench.hpp"
#include "sim/table.hpp"

using namespace smart;
using namespace smart::harness;

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "fig05_race_contention");
    std::uint64_t keys = cli.quick() ? 200'000 : 1'000'000;

    std::cout << "== Figure 5a: RACE updates vs threads "
                 "(theta=0.99, depth=8) ==\n";
    sim::Table a({"threads", "MOPS", "p50_us", "p99_us", "avg_retries"});
    std::vector<std::uint32_t> threads =
        cli.quick() ? std::vector<std::uint32_t>{8, 32, 96}
                    : std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32, 64,
                                                 96};
    for (std::uint32_t t : threads) {
        TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 2;
        cfg.threadsPerBlade = t;
        cfg.bladeBytes = 2ull << 30;
        cfg.smart = presets::baseline();
        cli.configureSpans(cfg);

        HtBenchParams p;
        p.numKeys = keys;
        p.mix = workload::YcsbMix::updateOnly();
        p.seed = cli.seed();
        p.measureNs = cli.quick() ? sim::msec(2) : sim::msec(4);
        RunCapture *cap =
            t == threads.back()
                ? cli.nextCapture("update-only/t" + std::to_string(t))
                : nullptr;
        HtBenchResult r = runHtBench(cfg, p, cap);
        a.row()
            .cell(static_cast<std::uint64_t>(t))
            .cell(r.mops, 2)
            .cell(r.medianNs / 1000.0, 1)
            .cell(r.p99Ns / 1000.0, 1)
            .cell(r.avgRetries, 2);
    }
    cli.addTable("fig05a", a);

    std::cout << "\n== Figure 5b: RACE updates vs Zipfian theta "
                 "(16 threads) ==\n";
    sim::Table b({"theta", "MOPS", "p50_us", "p99_us", "avg_retries"});
    std::vector<double> thetas =
        cli.quick() ? std::vector<double>{0.0, 0.99}
                    : std::vector<double>{0.0, 0.5, 0.8, 0.9, 0.95, 0.99};
    for (double theta : thetas) {
        TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 2;
        cfg.threadsPerBlade = 16;
        cfg.bladeBytes = 2ull << 30;
        cfg.smart = presets::baseline();

        HtBenchParams p;
        p.numKeys = keys;
        p.zipfTheta = theta;
        p.mix = workload::YcsbMix::updateOnly();
        p.seed = cli.seed();
        p.measureNs = cli.quick() ? sim::msec(2) : sim::msec(4);
        HtBenchResult r = runHtBench(cfg, p);
        b.row()
            .cell(theta, 2)
            .cell(r.mops, 2)
            .cell(r.medianNs / 1000.0, 1)
            .cell(r.p99Ns / 1000.0, 1)
            .cell(r.avgRetries, 2);
    }
    cli.addTable("fig05b", b);

    cli.note("\nPaper shape: RACE peaks around 8 threads, then "
             "throughput falls and p99 inflates (up to ~17x); rising "
             "skew inflates median ~2x and p99 ~78x.");
    return cli.finish();
}
