/**
 * @file
 * DTX benchmark harness implementation.
 */

#include "harness/dtx_bench.hpp"

#include <memory>

#include "apps/ford/smallbank.hpp"
#include "apps/ford/tatp.hpp"
#include "smart/smart_ctx.hpp"

namespace smart::harness {

using sim::Task;
using sim::Time;

namespace {

/**
 * Count one finished transaction: a committed one is an op; one that
 * used up its attempts did not take effect and is a give-up.
 */
void
finishTxn(SmartCtx &ctx, Time start, const ford::DtxResult &res,
          sim::Counter &giveups)
{
    if (res.committed)
        ctx.runtime().recordOp(ctx.sim().now() - start, res.aborts);
    else
        giveups.add();
}

Task
sbWorker(SmartCtx &ctx, ford::SmallBank &bank, DtxBenchParams params,
         std::uint64_t seed, double zetan, sim::Counter &giveups)
{
    sim::Rng rng(seed);
    sim::ZipfianGenerator accounts(params.numAccounts, params.zipfTheta,
                                   seed ^ 0xacc, zetan);
    for (;;) {
        Time start = ctx.sim().now();
        ford::DtxResult res;
        co_await ctx.opBegin();
        co_await bank.runOne(ctx, rng, accounts, res);
        ctx.opEnd();
        finishTxn(ctx, start, res, giveups);
        if (params.interTxnDelayNs)
            co_await ctx.sim().delay(params.interTxnDelayNs);
    }
}

Task
tatpWorker(SmartCtx &ctx, ford::Tatp &tatp, DtxBenchParams params,
           std::uint64_t seed, sim::Counter &giveups)
{
    sim::Rng rng(seed);
    for (;;) {
        Time start = ctx.sim().now();
        ford::DtxResult res;
        co_await ctx.opBegin();
        co_await tatp.runOne(ctx, rng, res);
        ctx.opEnd();
        finishTxn(ctx, start, res, giveups);
        if (params.interTxnDelayNs)
            co_await ctx.sim().delay(params.interTxnDelayNs);
    }
}

} // namespace

DtxBenchResult
runDtxBench(const DtxBenchParams &params, RunCapture *capture,
            const std::function<void(ford::DtxSystem &)> &prepare)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2; // the paper uses two blades for DTX tests
    cfg.threadsPerBlade = params.threads;
    cfg.bladeBytes = 2ull << 30;
    cfg.smart = params.smartOn ? presets::full() : presets::baseline();
    cfg.smart.corosPerThread = params.corosPerThread;
    cfg.smart.withBenchTimescale();
    configureCapture(cfg, capture);
    if (capture != nullptr)
        cfg.spanSampleEvery = params.spanSampleEvery;
    // Declared before the testbed, so it outlives its registries.
    sim::Counter giveups;
    Testbed tb(cfg);

    std::vector<memblade::MemoryBlade *> blades;
    for (std::uint32_t i = 0; i < tb.numMemBlades(); ++i)
        blades.push_back(&tb.memBlade(i));
    ford::DtxSystem sys(blades, params.threads);

    std::unique_ptr<ford::SmallBank> bank;
    std::unique_ptr<ford::Tatp> tatp;
    double zetan = 0.0;
    if (params.workload == DtxWorkload::SmallBank) {
        bank = std::make_unique<ford::SmallBank>(sys, params.numAccounts);
        zetan = sim::ZipfianGenerator::zeta(params.numAccounts,
                                            params.zipfTheta);
    } else {
        tatp = std::make_unique<ford::Tatp>(
            sys, std::max<std::uint64_t>(1, params.numAccounts / 10));
    }

    if (prepare)
        prepare(sys);

    SmartRuntime &rt = tb.compute(0);
    rt.sim().metrics().registerCounter(&giveups, "app.giveups",
                                       {{"blade", rt.name()}}, &giveups);
    for (std::uint32_t t = 0; t < params.threads; ++t) {
        for (std::uint32_t k = 0; k < params.corosPerThread; ++k) {
            std::uint64_t seed = 0xd7 + t * 911ull + k * 31ull +
                                 params.seed * 0x9e3779b97f4a7c15ull;
            if (bank) {
                rt.spawnWorker(t, [&, seed](SmartCtx &ctx) {
                    return sbWorker(ctx, *bank, params, seed, zetan,
                                    giveups);
                });
            } else {
                rt.spawnWorker(t, [&, seed](SmartCtx &ctx) {
                    return tatpWorker(ctx, *tatp, params, seed, giveups);
                });
            }
        }
    }

    tb.runUntil(params.warmupNs);
    MeasureWindow win(tb);
    tb.runUntil(params.warmupNs + params.measureNs);
    win.close();

    DtxBenchResult res;
    std::uint64_t ops = win.count("app.ops");
    res.giveups = win.count("app.giveups");
    res.mtps = win.perUs("app.ops");
    res.rdmaMops = win.perUs("rnic.wrs_completed");
    res.medianNs = static_cast<double>(win.latency().p50());
    res.p99Ns = static_cast<double>(win.latency().p99());
    res.abortRate = ops ? static_cast<double>(win.count("app.retries")) /
                              static_cast<double>(ops)
                        : 0.0;
    captureRun(tb, capture);
    return res;
}

} // namespace smart::harness
