/**
 * @file
 * Timeline tests: windowed sampling determinism (byte-identical blocks
 * across repeated seeded runs), registration-baseline
 * counter deltas, windowed histogram percentiles across a latency
 * regime shift, annotation ordering under simultaneous events, and
 * SLO burn-rate enter/exit hysteresis.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/ht_bench.hpp"
#include "harness/open_loop.hpp"
#include "harness/testbed.hpp"
#include "sim/stats.hpp"
#include "sim/timeline.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;
using sim::Time;

// --------------------------------------------------- histogram windows

TEST(HistogramWindow, WindowedPercentileTracksRegimeShift)
{
    sim::LatencyHistogram h;
    sim::HistogramWindow win;

    // Regime A: ~1 us ops.
    for (int i = 0; i < 1000; ++i)
        h.record(1000 + i % 16);
    sim::WindowSummary a = win.advance(h);
    EXPECT_EQ(a.count, 1000u);
    EXPECT_NEAR(static_cast<double>(a.p99), 1000.0, 200.0);

    // Regime B: ~100 us ops. The *cumulative* p99 would still sit near
    // 1 us (B is only half the total mass at p50); the windowed p99
    // must come from B's delta buckets alone.
    for (int i = 0; i < 1000; ++i)
        h.record(100000 + i % 16);
    sim::WindowSummary b = win.advance(h);
    EXPECT_EQ(b.count, 1000u);
    EXPECT_GT(b.p50, 50000u);
    EXPECT_GT(b.p99, 50000u);
    EXPECT_LE(b.min, b.p50);
    EXPECT_LE(b.p99, b.max);

    // Empty window: all-zero summary.
    sim::WindowSummary c = win.advance(h);
    EXPECT_EQ(c.count, 0u);
    EXPECT_EQ(c.p99, 0u);
}

TEST(HistogramWindow, SurvivesMidRunReset)
{
    sim::LatencyHistogram h;
    sim::HistogramWindow win;
    for (int i = 0; i < 500; ++i)
        h.record(2000);
    (void)win.advance(h);

    h.reset();
    for (int i = 0; i < 20; ++i)
        h.record(700);
    sim::WindowSummary s = win.advance(h);
    EXPECT_EQ(s.count, 20u);
    EXPECT_NEAR(static_cast<double>(s.p50), 700.0, 200.0);
}

// ----------------------------------------------- counter baselines

TEST(Timeline, LateRegisteredCounterReportsWindowDeltaNotLifetime)
{
    sim::Simulator sim;
    sim::Timeline tl(1000);
    tl.attach(sim);

    sim::Counter early;
    sim.metrics().registerCounter(&early, "test.early", {}, &early);

    sim.runUntil(1000);
    early.add(7);
    tl.sampleAt(1000);

    // Registered mid-run with 100 pre-existing increments: its first
    // sampled point must be the delta since registration (5), not the
    // lifetime value (105).
    sim::Counter late;
    late.add(100);
    sim.metrics().registerCounter(&late, "test.late", {}, &late);
    late.add(5);
    early.add(3);

    sim.runUntil(2000);
    tl.sampleAt(2000);

    sim::Json j = tl.toJson();
    const sim::Json *series = j.find("series");
    ASSERT_NE(series, nullptr);
    bool saw_late = false, saw_early = false;
    for (const sim::Json &s : series->asArray()) {
        const std::string &name = s.find("name")->asString();
        const sim::Json &pts = *s.find("points");
        if (name == "test.late") {
            saw_late = true;
            EXPECT_EQ(s.find("start")->asUint(), 1u);
            ASSERT_EQ(pts.asArray().size(), 1u);
            EXPECT_EQ(pts.asArray()[0].asUint(), 5u);
        } else if (name == "test.early") {
            saw_early = true;
            ASSERT_EQ(pts.asArray().size(), 2u);
            EXPECT_EQ(pts.asArray()[0].asUint(), 7u);
            EXPECT_EQ(pts.asArray()[1].asUint(), 3u);
        }
    }
    EXPECT_TRUE(saw_late);
    EXPECT_TRUE(saw_early);

    sim.metrics().unregisterOwner(&early);
    sim.metrics().unregisterOwner(&late);
}

TEST(Timeline, CounterResetMidWindowYieldsPostResetValue)
{
    sim::Simulator sim;
    sim::Timeline tl(1000);
    tl.attach(sim);

    sim::Counter c;
    sim.metrics().registerCounter(&c, "test.reset", {}, &c);
    c.add(50);
    sim.runUntil(1000);
    tl.sampleAt(1000);

    c.reset();
    c.add(4);
    sim.runUntil(2000);
    tl.sampleAt(2000);

    sim::Json j = tl.toJson();
    for (const sim::Json &s : j.find("series")->asArray()) {
        if (s.find("name")->asString() != "test.reset")
            continue;
        const auto &pts = s.find("points")->asArray();
        ASSERT_EQ(pts.size(), 2u);
        EXPECT_EQ(pts[0].asUint(), 50u);
        EXPECT_EQ(pts[1].asUint(), 4u); // not a huge underflowed delta
    }
    sim.metrics().unregisterOwner(&c);
}

// ------------------------------------------------ annotation ordering

TEST(Timeline, SimultaneousAnnotationsSortDeterministically)
{
    sim::Simulator sim;
    sim::Timeline tl(1000);
    tl.attach(sim);

    // Inserted in reverse of the expected (at, kind, target, detail)
    // order, at one identical timestamp.
    tl.annotateAt(500, "membership", "mb1", "drain");
    tl.annotateAt(500, "fault", "mb9", "crash");
    tl.annotateAt(500, "fault", "mb0", "crash");
    tl.annotateAt(100, "slo", "web", "burn-enter");

    std::vector<sim::Annotation> a = tl.sortedAnnotations();
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a[0].at, 100u);
    EXPECT_EQ(a[1].kind, "fault");
    EXPECT_EQ(a[1].target, "mb0");
    EXPECT_EQ(a[2].target, "mb9");
    EXPECT_EQ(a[3].kind, "membership");
}

// ------------------------------------------ byte identity across repeats

namespace {

std::string
runTimeseries(std::uint64_t seed)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 2;
    cfg.bladeBytes = 64ull << 20;
    cfg.smart = presets::full();
    cfg.smart.withBenchTimescale();
    // Tiny watermarks: 2 threads x 2 coros cross them immediately, so
    // the degradation ladder emits annotations from *inside* the event
    // loop — the identity check below then covers event-time
    // annotations, not just window-edge sampling.
    cfg.smart.withOverloadWatermarks(1, 2);
    cfg.tsWindowNs = sim::usec(100);

    HtBenchParams p;
    p.numKeys = 2000;
    p.zipfTheta = 0.99;
    p.mix = workload::YcsbMix::readHeavy();
    p.seed = seed;
    p.corosPerThread = 2;
    p.warmupNs = sim::usec(200);
    p.measureNs = sim::usec(600);
    p.shiftAtNs = sim::usec(500);
    p.shiftRotate = 37;

    RunCapture cap;
    cap.label = "seed" + std::to_string(seed);
    runHtBench(cfg, p, &cap);
    // Exclude the label-bearing capture bits: compare the block itself.
    return cap.timeseries.dump(1);
}

} // namespace

TEST(Timeline, ByteIdenticalAcrossRepeatsAndSeedSensitive)
{
    std::string one = runTimeseries(11);
    EXPECT_FALSE(one.empty());
    EXPECT_NE(one.find("\"annotations\""), std::string::npos);
    EXPECT_NE(one.find("zipf rotate=37"), std::string::npos);
    EXPECT_NE(one.find("\"degradation\""), std::string::npos);

    EXPECT_EQ(one, runTimeseries(11)); // repeatable
    EXPECT_NE(one, runTimeseries(12)); // seed-sensitive
}

// --------------------------------------------- burn-rate enter / exit

namespace {

struct BurnFixture
{
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<OpenLoopDriver> driver;
    /** 0 = never violate, 1 = every request, N = every Nth request. */
    std::uint64_t violateEvery = 1;
    std::uint64_t served = 0;

    explicit BurnFixture(const BurnConfig &burn)
    {
        TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 1;
        // 16 workers at <= 6 us service vs 2 req/us offered: the system
        // stays underloaded, so queue wait is negligible and the e2e
        // violation fraction tracks violateEvery (not queueing noise).
        cfg.threadsPerBlade = 4;
        cfg.bladeBytes = 1ull << 20;
        cfg.smart = presets::full();
        cfg.smart.withBenchTimescale();
        cfg.smart.corosPerThread = 4;
        cfg.tsWindowNs = sim::usec(200);
        tb = std::make_unique<Testbed>(cfg);

        TenantConfig t;
        t.name = "web";
        t.arrival.kind = ArrivalKind::Poisson;
        t.arrival.ratePerUs = 2.0;
        t.sloP99Ns = 5000; // service below/above decides violation
        t.sessions = 2;

        OpenLoopConfig ocfg;
        ocfg.tenants = {t};
        ocfg.queueCap = 4096;
        ocfg.burn = burn;
        // "Slow" sits just above the 5 us SLO: it always violates on
        // service time alone but never builds a queue backlog.
        ServiceFn svc = [this](SmartCtx &ctx, const workload::YcsbRequest &,
                               std::uint32_t &) -> Task {
            std::uint64_t i = served++;
            bool slow = violateEvery != 0 && (i % violateEvery) == 0;
            co_await ctx.sim().delay(slow ? 6000 : 500);
        };
        driver = std::make_unique<OpenLoopDriver>(*tb, ocfg, svc);
        driver->start(4);
    }

    std::size_t
    annotations(const char *prefix) const
    {
        std::size_t n = 0;
        for (const sim::Annotation &a : tb->timeline()->sortedAnnotations())
            if (a.kind == "slo" && a.detail.rfind(prefix, 0) == 0)
                ++n;
        return n;
    }
};

} // namespace

TEST(BurnRate, EnterHoldExitWithHysteresis)
{
    BurnConfig burn;
    burn.slowWindows = 4;
    burn.fastEnter = 0.5;
    burn.slowEnter = 0.1;
    burn.fastExit = 0.2;
    BurnFixture fx(burn);

    // Phase 1: every request violates -> fast fraction 1.0 -> enter.
    fx.violateEvery = 1;
    fx.tb->runUntil(sim::usec(1000));
    EXPECT_TRUE(fx.driver->burning(0));
    EXPECT_GE(fx.annotations("burn-enter"), 1u);
    EXPECT_EQ(fx.annotations("burn-exit"), 0u);

    // Phase 2: every 3rd violates (~0.33) — between exit (0.2) and
    // enter (0.5): hysteresis keeps the tenant in burn.
    fx.violateEvery = 3;
    fx.tb->runUntil(sim::usec(2000));
    EXPECT_TRUE(fx.driver->burning(0));
    EXPECT_EQ(fx.annotations("burn-exit"), 0u);

    // Phase 3: no violations -> fraction 0 -> exit, exactly once.
    fx.violateEvery = 0;
    fx.tb->runUntil(sim::usec(3200));
    EXPECT_FALSE(fx.driver->burning(0));
    EXPECT_EQ(fx.annotations("burn-exit"), 1u);
    EXPECT_EQ(fx.annotations("burn-enter"), 1u);
}

TEST(BurnRate, BelowThresholdNeverEnters)
{
    BurnConfig burn;
    burn.slowWindows = 4;
    burn.fastEnter = 0.5;
    burn.slowEnter = 0.1;
    burn.fastExit = 0.2;
    BurnFixture fx(burn);
    fx.violateEvery = 10; // ~0.1 < fastEnter
    fx.tb->runUntil(sim::usec(3000));
    EXPECT_FALSE(fx.driver->burning(0));
    EXPECT_EQ(fx.annotations("burn-enter"), 0u);
}

// ---------------------------------------------- plane is a pure observer

TEST(Timeline, SamplingDoesNotPerturbTheSimulation)
{
    auto run = [](Time window) {
        TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 1;
        cfg.threadsPerBlade = 2;
        cfg.bladeBytes = 64ull << 20;
        cfg.smart = presets::full();
        cfg.smart.withBenchTimescale();
        cfg.tsWindowNs = window;

        HtBenchParams p;
        p.numKeys = 1000;
        p.zipfTheta = 0.99;
        p.mix = workload::YcsbMix::readHeavy();
        p.seed = 5;
        p.corosPerThread = 2;
        p.warmupNs = sim::usec(100);
        p.measureNs = sim::usec(300);

        RunCapture cap;
        cap.label = "x";
        runHtBench(cfg, p, &cap);
        return cap.metrics.toJson().dump(1);
    };
    // Final metrics identical with the plane off, coarse, and fine.
    std::string off = run(0);
    EXPECT_EQ(off, run(sim::usec(50)));
    EXPECT_EQ(off, run(sim::usec(7)));
}
