/**
 * @file
 * Reproduces paper Figure 10: committed-transaction throughput of
 * FORD+ vs SMART-DTX on SmallBank and TATP as the thread count grows.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/dtx_bench.hpp"
#include "sim/table.hpp"

using namespace smart;
using namespace smart::harness;

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "fig10_dtx");

    std::vector<std::uint32_t> threads =
        cli.quick() ? std::vector<std::uint32_t>{24, 96}
                    : std::vector<std::uint32_t>{8, 16, 24, 32, 40, 48,
                                                 56, 64, 72, 80, 96};

    for (DtxWorkload w : {DtxWorkload::SmallBank, DtxWorkload::Tatp}) {
        std::cout << "== Figure 10 (" << dtxWorkloadName(w)
                  << "): committed Mtxn/s vs threads ==\n";
        sim::Table t({"threads", "FORD+", "SMART-DTX", "FORD+_aborts/txn",
                      "SMART_aborts/txn"});
        for (std::uint32_t thr : threads) {
            bool last = thr == threads.back();
            DtxBenchParams p;
            p.workload = w;
            p.threads = thr;
            p.seed = cli.seed();
            p.spanSampleEvery = cli.spanSampleEvery();
            p.numAccounts = cli.quick() ? 20'000 : 100'000;
            p.measureNs = cli.quick() ? sim::msec(2) : sim::msec(4);
            p.smartOn = false;
            DtxBenchResult base = runDtxBench(
                p, last ? cli.nextCapture(std::string("FORD+/") +
                                          dtxWorkloadName(w))
                        : nullptr);
            p.smartOn = true;
            DtxBenchResult sm = runDtxBench(
                p, last ? cli.nextCapture(std::string("SMART-DTX/") +
                                          dtxWorkloadName(w))
                        : nullptr);
            t.row()
                .cell(static_cast<std::uint64_t>(thr))
                .cell(base.mtps, 2)
                .cell(sm.mtps, 2)
                .cell(base.abortRate, 2)
                .cell(sm.abortRate, 2);
        }
        cli.addTable(std::string("fig10_") + dtxWorkloadName(w), t);
        std::cout << "\n";
    }
    cli.note("Paper shape: FORD+ peaks at 24 (SmallBank) / 32 (TATP) "
             "threads then degrades from doorbell contention; "
             "SMART-DTX keeps scaling (up to 5.2x on SmallBank, 2.6x "
             "on TATP at 96 threads).");
    return cli.finish();
}
