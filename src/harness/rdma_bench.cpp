/**
 * @file
 * Implementation of the raw RDMA micro-benchmark.
 */

#include "harness/rdma_bench.hpp"

#include "sim/random.hpp"
#include "smart/smart_ctx.hpp"

namespace smart::harness {

using sim::Task;
using sim::Time;

namespace {

/** One bench thread: batch-post `depth` ops, wait, repeat forever. */
Task
benchWorker(SmartCtx &ctx, RdmaBenchParams params)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(0xbe7c0000ull + ctx.thread().id() * 131 + ctx.coroIndex() +
                 params.seed * 0x9e3779b97f4a7c15ull);
    const std::uint64_t slots = params.regionBytes / 64;
    std::uint8_t *buf = ctx.scratch(params.depth * params.blockSize);
    std::uint64_t cas_result = 0;

    for (;;) {
        Time start = ctx.sim().now();
        for (std::uint32_t i = 0; i < params.depth; ++i) {
            std::uint64_t off = rng.uniform(slots) * 64;
            RemotePtr p = rt.ptr(0, off);
            switch (params.op) {
              case rnic::Op::Read:
                ctx.read(p, MemSpan{buf + i * params.blockSize,
                                    params.blockSize});
                break;
              case rnic::Op::Write:
                ctx.write(p, ConstMemSpan{buf + i * params.blockSize,
                                          params.blockSize});
                break;
              case rnic::Op::Cas:
                ctx.cas(p, 0, 1, &cas_result);
                break;
              case rnic::Op::Faa:
                ctx.faa(p, 1, &cas_result);
                break;
            }
        }
        co_await ctx.postSend();
        co_await ctx.sync();
        rt.recordOp(ctx.sim().now() - start, 0);
    }
}

} // namespace

RdmaBenchResult
runRdmaBench(const TestbedConfig &cfg, const RdmaBenchParams &params,
             RunCapture *capture)
{
    TestbedConfig tb_cfg = cfg;
    tb_cfg.bladeBytes = params.regionBytes;
    configureCapture(tb_cfg, capture);
    Testbed tb(tb_cfg);

    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        SmartRuntime &rt = tb.compute(c);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            rt.spawnWorker(t, [params](SmartCtx &ctx) {
                return benchWorker(ctx, params);
            });
        }
    }

    tb.runUntil(params.warmupNs);
    MeasureWindow win(tb);
    tb.runUntil(params.warmupNs + params.measureNs);
    win.close();

    RdmaBenchResult res;
    std::uint64_t wqe_hits = win.count("rnic.wqe_hits");
    std::uint64_t wqe_lookups = wqe_hits + win.count("rnic.wqe_misses");
    std::uint64_t wrs = win.count("rnic.wrs_completed");
    std::uint64_t rings = win.count("rnic.doorbell_rings");
    res.mops = win.perUs("rnic.wrs_completed");
    res.dramBytesPerWr =
        wrs ? static_cast<double>(win.count("rnic.dram_bytes")) /
                  static_cast<double>(wrs)
            : 0.0;
    res.medianBatchNs = static_cast<double>(win.latency().p50());
    res.p99BatchNs = static_cast<double>(win.latency().p99());
    res.wqeHitRatio = wqe_lookups ? static_cast<double>(wqe_hits) /
                                        static_cast<double>(wqe_lookups)
                                  : 1.0;
    res.avgDoorbellWaitNs =
        rings ? static_cast<double>(win.count("rnic.doorbell_wait_ns")) /
                    static_cast<double>(rings)
              : 0.0;
    captureRun(tb, capture);
    return res;
}

} // namespace smart::harness
