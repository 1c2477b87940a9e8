/**
 * @file
 * Reproduces paper Figure 4: (a) READ/WRITE throughput and (b) DRAM
 * traffic per work request, as functions of thread count and outstanding
 * work requests per thread (per-thread doorbells, no throttling — this
 * is the §3.2 motivation experiment).
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/rdma_bench.hpp"
#include "sim/table.hpp"

using namespace smart;
using namespace smart::harness;

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "fig04_cache_thrash");

    std::vector<std::uint32_t> threads =
        cli.quick() ? std::vector<std::uint32_t>{36, 96}
                    : std::vector<std::uint32_t>{8, 16, 36, 64, 96};
    std::vector<std::uint32_t> depths =
        cli.quick() ? std::vector<std::uint32_t>{8, 32}
                    : std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32};
    std::uint32_t max_threads = threads.back();
    std::uint32_t max_depth = depths.back();

    for (rnic::Op op : {rnic::Op::Read, rnic::Op::Write}) {
        const char *op_name = op == rnic::Op::Read ? "READ" : "WRITE";
        std::cout << "== Figure 4a: 8-byte " << op_name
                  << " MOP/s vs (threads x OWRs per thread) ==\n";
        sim::Table tput({"threads\\owr", "1", "2", "4", "8", "16", "32"});
        sim::Table dram({"threads\\owr", "1", "2", "4", "8", "16", "32"});

        for (std::uint32_t t : threads) {
            tput.row().cell(static_cast<std::uint64_t>(t));
            dram.row().cell(static_cast<std::uint64_t>(t));
            for (std::uint32_t d : {1u, 2u, 4u, 8u, 16u, 32u}) {
                bool selected = false;
                for (std::uint32_t dd : depths)
                    selected |= dd == d;
                if (!selected) {
                    tput.cell(std::string("-"));
                    dram.cell(std::string("-"));
                    continue;
                }
                TestbedConfig cfg;
                cfg.computeBlades = 1;
                cfg.memoryBlades = 1;
                cfg.threadsPerBlade = t;
                cfg.smart = presets::baseline()
                                .withQpPolicy(QpPolicy::PerThreadDb)
                                .withCoros(1);

                RdmaBenchParams params;
                params.op = op;
                params.depth = d;
                params.seed = cli.seed();
                params.measureNs =
                    cli.quick() ? sim::msec(2) : sim::msec(4);
                // Capture the deepest corner — where WQE-cache thrash
                // (per-thread wqe_refetches) is actually visible.
                RunCapture *cap =
                    t == max_threads && d == max_depth
                        ? cli.nextCapture(std::string(op_name) + "/t" +
                                          std::to_string(t) + "/owr" +
                                          std::to_string(d))
                        : nullptr;
                RdmaBenchResult r = runRdmaBench(cfg, params, cap);
                tput.cell(r.mops, 1);
                dram.cell(r.dramBytesPerWr, 0);
            }
        }
        cli.addTable(std::string("fig04a_") +
                         (op == rnic::Op::Read ? "read" : "write"),
                     tput);
        std::cout << "\n== Figure 4b: DRAM bytes per WR (" << op_name
                  << ", lower is better) ==\n";
        cli.addTable(std::string("fig04b_") +
                         (op == rnic::Op::Read ? "read" : "write"),
                     dram);
        std::cout << "\n";
    }
    cli.note("Paper shape: best READ IOPS at 96 thr x 8 OWRs (~768 "
             "total); 96 thr x 32 OWRs halves throughput and raises "
             "DRAM traffic from ~93 to ~180 B/WR (WQE cache misses).");
    return cli.finish();
}
