/**
 * @file
 * Unit tests for the observability layer: MetricsRegistry registration /
 * snapshot / delta / unregistration, snapshot JSON round-trip, histogram
 * bucket boundary behaviour, and a captured Testbed run recording the
 * adaptive-controller timelines (C_max, t_max) identically on repeat.
 */

#include <gtest/gtest.h>

#include <set>

#include "harness/bench_cli.hpp"
#include "harness/testbed.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;

// ---------------------------------------------------------- registry core

TEST(MetricsRegistry, RegisterSnapshotAndLabels)
{
    sim::MetricsRegistry reg;
    sim::Counter ops;
    sim::LatencyHistogram lat;
    int token = 0;

    reg.registerCounter(&token, "app.ops", {{"blade", "cb0"}}, &ops);
    reg.registerGauge(&token, "free_frac", {{"blade", "mb1"}},
                      [] { return 0.25; });
    reg.registerHistogram(&token, "app.lat", {{"blade", "cb0"}}, &lat);
    EXPECT_EQ(reg.size(), 3u);

    ops.add(7);
    lat.record(100);
    lat.record(300);

    sim::MetricsSnapshot s = reg.snapshot(12345);
    EXPECT_EQ(s.at, 12345u);
    ASSERT_EQ(s.entries.size(), 3u);

    const sim::SnapshotEntry *c = s.find("app.ops", {{"blade", "cb0"}});
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->kind, sim::MetricKind::Counter);
    EXPECT_EQ(c->counter, 7u);
    EXPECT_EQ(c->id.label("blade"), "cb0");
    EXPECT_EQ(c->id.label("missing"), "");

    const sim::SnapshotEntry *g = s.find("free_frac");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->gauge, 0.25);

    const sim::SnapshotEntry *h = s.find("app.lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->hist.count, 2u);
    EXPECT_DOUBLE_EQ(h->hist.mean, 200.0);

    // Wrong label set does not match.
    EXPECT_EQ(s.find("app.ops", {{"blade", "cb1"}}), nullptr);
}

TEST(MetricsRegistry, SumCountersAcrossLabelSets)
{
    sim::MetricsRegistry reg;
    sim::Counter a, b;
    int token = 0;
    reg.registerCounter(&token, "wrs", {{"thread", "0"}}, &a);
    reg.registerCounter(&token, "wrs", {{"thread", "1"}}, &b);
    a.add(10);
    b.add(32);
    EXPECT_EQ(reg.snapshot(0).sumCounters("wrs"), 42u);
}

TEST(MetricsRegistry, UnregisterOwnerDropsOnlyThatOwner)
{
    sim::MetricsRegistry reg;
    sim::Counter a, b;
    int owner1 = 0, owner2 = 0;
    reg.registerCounter(&owner1, "a", {}, &a);
    reg.registerCounter(&owner2, "b", {}, &b);
    reg.unregisterOwner(&owner1);
    EXPECT_EQ(reg.size(), 1u);
    sim::MetricsSnapshot s = reg.snapshot(0);
    EXPECT_EQ(s.find("a"), nullptr);
    EXPECT_NE(s.find("b"), nullptr);
}

TEST(MetricsSnapshot, DeltaSinceSubtractsCounters)
{
    sim::MetricsRegistry reg;
    sim::Counter ops;
    int token = 0;
    reg.registerCounter(&token, "ops", {}, &ops);
    reg.registerGauge(&token, "g", {}, [&] {
        return static_cast<double>(ops.value());
    });

    ops.add(100);
    sim::MetricsSnapshot early = reg.snapshot(1000);
    ops.add(50);
    sim::MetricsSnapshot late = reg.snapshot(2000);

    sim::MetricsSnapshot d = late.deltaSince(early);
    EXPECT_EQ(d.find("ops")->counter, 50u);
    // Gauges are point-in-time: the later value survives.
    EXPECT_DOUBLE_EQ(d.find("g")->gauge, 150.0);
}

// ----------------------------------------------------- JSON round-tripping

TEST(MetricsSnapshot, JsonRoundTrip)
{
    sim::MetricsRegistry reg;
    sim::Counter ops;
    sim::LatencyHistogram lat;
    int token = 0;
    reg.registerCounter(&token, "app.ops",
                        {{"blade", "cb0"}, {"policy", "per-thread-db"}},
                        &ops);
    reg.registerGauge(&token, "gamma", {{"thread", "3"}},
                      [] { return 0.125; });
    reg.registerHistogram(&token, "app.lat", {}, &lat);
    ops.add(9);
    for (std::uint64_t v : {100, 200, 400, 800, 1600})
        lat.record(v);

    sim::MetricsSnapshot before = reg.snapshot(777);
    std::string text = before.toJson().dump(1);

    sim::Json parsed;
    std::string err;
    ASSERT_TRUE(sim::Json::parse(text, parsed, &err)) << err;
    sim::MetricsSnapshot after;
    ASSERT_TRUE(sim::MetricsSnapshot::fromJson(parsed, after));

    ASSERT_EQ(after.entries.size(), before.entries.size());
    const sim::SnapshotEntry *c = after.find(
        "app.ops", {{"blade", "cb0"}, {"policy", "per-thread-db"}});
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->counter, 9u);
    const sim::SnapshotEntry *g = after.find("gamma");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->gauge, 0.125);
    const sim::SnapshotEntry *h = after.find("app.lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->hist, before.find("app.lat")->hist);
}

TEST(MetricsSnapshot, FromJsonRejectsMalformed)
{
    sim::Json notArray = sim::Json::object();
    sim::MetricsSnapshot out;
    EXPECT_FALSE(sim::MetricsSnapshot::fromJson(notArray, out));
}

// ------------------------------------------------ histogram bucket bounds

TEST(LatencyHistogram, BucketBoundariesRoundTrip)
{
    using H = sim::LatencyHistogram;
    for (int b = 0; b < H::kBuckets; ++b) {
        EXPECT_EQ(H::bucketOf(H::bucketLo(b)), b) << "lo of bucket " << b;
        EXPECT_EQ(H::bucketOf(H::bucketMid(b)), b) << "mid of bucket " << b;
    }
}

TEST(LatencyHistogram, BucketOfIsMonotonic)
{
    using H = sim::LatencyHistogram;
    int prev = H::bucketOf(0);
    for (std::uint64_t ns = 1; ns < (1ull << 20); ns += 13) {
        int b = H::bucketOf(ns);
        EXPECT_GE(b, prev);
        prev = b;
    }
}

TEST(LatencyHistogram, HugeValuesSaturateIntoTopBucket)
{
    using H = sim::LatencyHistogram;
    // Regression: values past the last octave (>= 2^45 ns) used to fold
    // onto arbitrary lower buckets instead of clamping.
    EXPECT_EQ(H::bucketOf((1ull << 45) - 1), H::kBuckets - 1);
    EXPECT_EQ(H::bucketOf(1ull << 45), H::kBuckets - 1);
    EXPECT_EQ(H::bucketOf(~std::uint64_t{0}), H::kBuckets - 1);
    H h;
    h.record(1ull << 50);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.percentile(50), H::bucketLo(H::kBuckets - 1));
}

TEST(LatencyHistogram, PercentileClampedToObservedRange)
{
    // Regression: percentile() used to return the raw bucket midpoint,
    // which can exceed max() (top of a wide bucket) or undercut min().
    using H = sim::LatencyHistogram;

    // Single sample in a wide bucket: every percentile is that sample.
    H one;
    std::uint64_t v = (1ull << 20) + 1; // wide octave, mid != sample
    one.record(v);
    EXPECT_EQ(one.percentile(0), v);
    EXPECT_EQ(one.percentile(50), v);
    EXPECT_EQ(one.percentile(100), v);

    // Two samples: p0 must not undercut min, p100 must not exceed max.
    H two;
    // lo above its bucket midpoint (mid 66048) so the clamp floor engages.
    std::uint64_t lo = (1ull << 16) + 600;
    std::uint64_t hi = (1ull << 30) + 5;
    two.record(lo);
    two.record(hi);
    EXPECT_EQ(two.percentile(0), lo);
    EXPECT_GE(two.percentile(50), lo);
    EXPECT_LE(two.percentile(50), hi);
    EXPECT_EQ(two.percentile(100), hi);
    EXPECT_LE(two.p999(), two.max());
}

// --------------------------------------------- testbed + tracer timelines

namespace {

Task
readWorker(SmartCtx &ctx)
{
    std::uint8_t buf[256];
    for (;;) {
        for (int i = 0; i < 16; ++i)
            ctx.read(ctx.runtime().ptr(0, 64 * i), MemSpan{buf + i * 8, 8});
        co_await ctx.postSend();
        co_await ctx.sync();
    }
}

} // namespace

TEST(Testbed, SnapshotExposesPerThreadMetrics)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 1;
    cfg.threadsPerBlade = 2;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = presets::thdResAlloc();
    Testbed tb(cfg);
    tb.compute(0).spawnWorker(0, readWorker);
    tb.compute(0).spawnWorker(1, readWorker);
    tb.sim().runUntil(sim::msec(2));

    sim::MetricsSnapshot s = tb.snapshot();
    EXPECT_GT(s.sumCounters("smart.thread.wrs_completed"), 0u);
    // Per-thread doorbell metrics exist, labelled by thread id.
    for (const char *thread : {"0", "1"}) {
        const sim::SnapshotEntry *wait = nullptr;
        for (const auto &e : s.entries) {
            if (e.id.name == "smart.thread.doorbell_wait_ns" &&
                e.id.label("thread") == thread)
                wait = &e;
        }
        ASSERT_NE(wait, nullptr) << "thread " << thread;
        EXPECT_EQ(wait->id.label("policy"), "per-thread-db");
    }
    EXPECT_NE(s.find("rnic.wrs_completed"), nullptr);
    EXPECT_NE(s.find("memblade.free_bytes"), nullptr);
}

namespace {

/** Series @p name of thread @p thread in a Timeline block, or nullptr. */
const sim::Json *
findSeries(const sim::Json &ts, const std::string &name,
           const std::string &thread)
{
    for (const sim::Json &s : ts.find("series")->asArray()) {
        const sim::Json *t = s.find("labels")->find("thread");
        if (s.find("name")->asString() == name && t != nullptr &&
            t->asString() == thread)
            return &s;
    }
    return nullptr;
}

/** A captured 10 ms credit-throttled read run. */
RunCapture
controllerRun()
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 1;
    cfg.threadsPerBlade = 4;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = presets::workReqThrot().withBenchTimescale();
    RunCapture cap;
    configureCapture(cfg, &cap);
    Testbed tb(cfg);
    for (std::uint32_t t = 0; t < 4; ++t)
        tb.compute(0).spawnWorker(t, readWorker);
    // Long enough for several 1 ms candidate probes => C_max moves.
    tb.runUntil(sim::msec(10));
    captureRun(tb, &cap);
    return cap;
}

} // namespace

TEST(CaptureTimeline, RecordsControllerSeries)
{
    RunCapture cap = controllerRun();
    const sim::Json &ts = cap.timeseries;
    ASSERT_TRUE(ts.isObject());
    EXPECT_EQ(ts.find("window_ns")->asUint(), kCaptureWindowNs);
    std::size_t samples = ts.find("t_ns")->asArray().size();
    EXPECT_GE(samples, 5u);

    const sim::Json *cmax = findSeries(ts, "smart.ctrl.credit_cmax", "0");
    ASSERT_NE(cmax, nullptr);
    const sim::Json::Array &points = cmax->find("points")->asArray();
    EXPECT_EQ(cmax->find("start")->asUint() + points.size(), samples);
    std::set<double> distinct;
    for (const sim::Json &p : points)
        distinct.insert(p.asDouble());
    // Algorithm 1 probes the candidate set during the epoch, so the
    // timeline must show C_max actually changing, not a flat line.
    EXPECT_GE(distinct.size(), 2u);

    EXPECT_NE(findSeries(ts, "smart.ctrl.tmax_cycles", "0"), nullptr);
    // Thread 0 is the per-thread exemplar; a thread that does not
    // exist has no series either.
    EXPECT_EQ(findSeries(ts, "smart.ctrl.credit_cmax", "1"), nullptr);
    EXPECT_EQ(findSeries(ts, "smart.ctrl.credit_cmax", "4"), nullptr);
}

TEST(CaptureTimeline, ControllerSeriesIdenticalAcrossRepeats)
{
    auto controller = [](const RunCapture &cap) {
        std::string out;
        for (const sim::Json &s : cap.timeseries.find("series")->asArray())
            if (s.find("name")->asString().rfind("smart.ctrl.", 0) == 0)
                out += s.dump(0) + "\n";
        return out;
    };
    std::string one = controller(controllerRun());
    EXPECT_NE(one.find("smart.ctrl.credit_cmax"), std::string::npos);
    EXPECT_EQ(one, controller(controllerRun()));
}

// ------------------------------------------------------- BenchCli flags

namespace {

/** Parse @p args (after the program name) as a bench command line. */
std::uint64_t
seedOf(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    BenchCli cli(static_cast<int>(argv.size()), argv.data(), "bench");
    return cli.seed();
}

} // namespace

TEST(BenchCli, SeedIsPlainDecimal)
{
    EXPECT_EQ(seedOf({"--seed", "7"}), 7u);
    EXPECT_EQ(seedOf({"--seed", "010"}), 10u); // not octal
    EXPECT_EQ(seedOf({"--seed", "18446744073709551615"}), UINT64_MAX);
}

TEST(BenchCliDeathTest, RejectsMalformedNumbers)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"abc", "-1", "0x10", "7x", "", " 7",
                            "18446744073709551616"}) {
        EXPECT_EXIT(seedOf({"--seed", bad}), testing::ExitedWithCode(2),
                    "--seed '.*' is not a decimal number")
            << "seed '" << bad << "'";
    }
    EXPECT_EXIT(seedOf({"--trace-spans=abc"}), testing::ExitedWithCode(2),
                "--trace-spans=N 'abc' is not a decimal number");
    EXPECT_EXIT(seedOf({"--trace-spans=-1"}), testing::ExitedWithCode(2),
                "not a decimal number");
}
