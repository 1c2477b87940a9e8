/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * wire-delivery ordering, coroutine tasks, resources, gates, RNG, and
 * statistics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/testbed.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/sim_thread.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "sim/task.hpp"
#include "sim/wire.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart::sim;

// --------------------------------------------------------------- eventfn

TEST(EventFn, InlineCaptureInvokes)
{
    int hits = 0;
    int *p = &hits;
    EventFn fn([p] { ++*p; });
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_FALSE(fn.isResume());
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersOwnership)
{
    int hits = 0;
    int *p = &hits;
    EventFn a([p] { ++*p; });
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    EventFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
}

TEST(EventFn, ResumeFastPathIsRecognized)
{
    EventFn r = EventFn::resume(std::noop_coroutine());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_TRUE(r.isResume());
    r(); // resuming the noop coroutine is a no-op, must not crash
    EventFn plain([] {});
    EXPECT_FALSE(plain.isResume());
}

TEST(EventFn, NonTrivialCaptureDestroyedExactlyOnce)
{
    struct Probe
    {
        int *live;
        explicit Probe(int *l) : live(l) { ++*live; }
        Probe(Probe &&o) noexcept : live(o.live) { o.live = nullptr; }
        Probe(const Probe &) = delete;
        ~Probe()
        {
            if (live != nullptr)
                --*live;
        }
    };
    int live = 0;
    {
        EventFn fn([p = Probe(&live)] { (void)p; });
        EXPECT_EQ(live, 1);
        EventFn moved(std::move(fn));
        EXPECT_EQ(live, 1);
    }
    EXPECT_EQ(live, 0);
}

// ---------------------------------------------------------------- events

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(30, [&] { order.push_back(3); });
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(2); });
    Time t = 0;
    while (!q.empty())
        q.pop(t)();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(t, 30u);
}

TEST(EventQueue, StableAtSameTimestamp)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.scheduleAt(5, [&order, i] { order.push_back(i); });
    Time t = 0;
    while (!q.empty())
        q.pop(t)();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    EventQueue q;
    EXPECT_EQ(q.nextTime(), kTimeNever);
    q.scheduleAt(42, [] {});
    q.scheduleAt(7, [] {});
    EXPECT_EQ(q.nextTime(), 7u);
}

TEST(EventQueue, TiersSplitByDistance)
{
    EventQueue q;
    q.scheduleAt(10, [] {});        // near: calendar ring
    q.scheduleAt(1'000'000, [] {}); // far: heap
    EXPECT_EQ(q.ringTierSize(), 1u);
    EXPECT_EQ(q.heapTierSize(), 1u);
    Time t = 0;
    q.pop(t);
    EXPECT_EQ(t, 10u);
    q.pop(t);
    EXPECT_EQ(t, 1'000'000u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimestampFifoAcrossTiers)
{
    // Build a queue where two events share timestamp 5000 but live in
    // different tiers: A was far-future at insert time (heap), B was
    // scheduled later, after the ring window slid forward (ring). The
    // cross-tier compare must still run A before B (lower seq).
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(5000, [&] { order.push_back(1); }); // heap, seq 0
    // Slide the window up by popping a chain of near events.
    Time t = 0;
    for (Time step = 500; step <= 4500; step += 500) {
        q.scheduleAt(step, [] {});
        q.pop(t)();
        EXPECT_EQ(t, step);
    }
    q.scheduleAt(5000, [&] { order.push_back(2); }); // ring now
    EXPECT_EQ(q.heapTierSize(), 1u);
    EXPECT_EQ(q.ringTierSize(), 1u);
    q.pop(t)();
    EXPECT_EQ(t, 5000u);
    q.pop(t)();
    EXPECT_EQ(t, 5000u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, HeapQuietPeriodDoesNotStarveRing)
{
    // After a stretch where only far-future (heap) events exist, the
    // ring window must snap forward so near-future scheduling goes back
    // to the O(1) tier instead of spilling to the heap forever.
    EventQueue q;
    Time t = 0;
    q.scheduleAt(50, [] {});
    q.pop(t);
    q.scheduleAt(100'000, [] {}); // far beyond the ring window
    EXPECT_EQ(q.heapTierSize(), 1u);
    q.pop(t);
    EXPECT_EQ(t, 100'000u);
    q.scheduleAt(100'010, [] {}); // near again, relative to new "now"
    EXPECT_EQ(q.ringTierSize(), 1u);
    EXPECT_EQ(q.heapTierSize(), 0u);
    q.pop(t);
    EXPECT_EQ(t, 100'010u);
}

TEST(EventQueue, ReserveStorageKeepsOrdering)
{
    EventQueue q;
    q.reserveStorage(8, 64);
    std::vector<int> order;
    for (int i = 0; i < 12; ++i)
        q.scheduleAt(5, [&order, i] { order.push_back(i); });
    q.scheduleAt(1'000'000, [] {});
    Time t = 0;
    while (!q.empty())
        q.pop(t)();
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesWithEvents)
{
    Simulator sim;
    Time seen = 0;
    sim.schedule(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(100, [&] { ++fired; });
    sim.schedule(200, [&] { ++fired; });
    sim.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 150u);
    sim.runUntil(250);
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduledAtPastClampsToNow)
{
    Simulator sim;
    sim.schedule(50, [] {});
    sim.runUntil(50);
    int fired = 0;
    sim.scheduleAt(10, [&] { ++fired; }); // in the past
    sim.run();
    EXPECT_EQ(fired, 1);
}

// ----------------------------------------------------------------- tasks

namespace {

Task
delayTwice(Simulator &sim, Time d, int &counter)
{
    co_await sim.delay(d);
    ++counter;
    co_await sim.delay(d);
    ++counter;
}

Task
parentTask(Simulator &sim, int &counter)
{
    co_await delayTwice(sim, 5, counter);
    counter += 10;
}

} // namespace

TEST(Task, DelayResumesAtRightTime)
{
    Simulator sim;
    int counter = 0;
    sim.spawn(delayTwice(sim, 10, counter));
    sim.runUntil(9);
    EXPECT_EQ(counter, 0);
    sim.runUntil(10);
    EXPECT_EQ(counter, 1);
    sim.run();
    EXPECT_EQ(counter, 2);
    EXPECT_EQ(sim.now(), 20u);
}

TEST(Task, AwaitingChildRunsToCompletionFirst)
{
    Simulator sim;
    int counter = 0;
    sim.spawn(parentTask(sim, counter));
    sim.run();
    EXPECT_EQ(counter, 12);
}

TEST(Task, DetachedTasksSelfDestroy)
{
    Simulator sim;
    int counter = 0;
    for (int i = 0; i < 100; ++i)
        sim.spawnDetached(delayTwice(sim, 1, counter));
    sim.run();
    EXPECT_EQ(counter, 200);
}

// ------------------------------------------------------------- resources

namespace {

Task
useResource(Simulator &sim, Resource &res, Time hold, std::vector<int> &log,
            int id)
{
    co_await res.acquire();
    log.push_back(id);
    co_await sim.delay(hold);
    res.release();
}

} // namespace

TEST(Resource, SerializesCapacityOne)
{
    Simulator sim;
    Resource res(sim, 1);
    std::vector<int> log;
    for (int i = 0; i < 4; ++i)
        sim.spawn(useResource(sim, res, 10, log, i));
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(sim.now(), 40u); // fully serialized
    EXPECT_EQ(res.inUse(), 0u);
}

TEST(Resource, CapacityNOverlaps)
{
    Simulator sim;
    Resource res(sim, 3);
    std::vector<int> log;
    for (int i = 0; i < 6; ++i)
        sim.spawn(useResource(sim, res, 10, log, i));
    sim.run();
    EXPECT_EQ(sim.now(), 20u); // two waves of three
}

TEST(Resource, WaitersCountVisible)
{
    Simulator sim;
    Resource res(sim, 1);
    std::vector<int> log;
    for (int i = 0; i < 5; ++i)
        sim.spawn(useResource(sim, res, 100, log, i));
    sim.runUntil(50);
    EXPECT_EQ(res.inUse(), 1u);
    EXPECT_EQ(res.waiters(), 4u);
}

TEST(Gate, ReleasesAllWaiters)
{
    Simulator sim;
    Gate gate(sim);
    int done = 0;
    auto waiter = [](Gate &g, int &d) -> Task {
        co_await g.wait();
        ++d;
    };
    for (int i = 0; i < 3; ++i)
        sim.spawn(waiter(gate, done));
    sim.schedule(10, [&] { gate.fire(); });
    sim.run();
    EXPECT_EQ(done, 3);
    EXPECT_TRUE(gate.fired());
}

TEST(Gate, WaitAfterFireIsImmediate)
{
    Simulator sim;
    Gate gate(sim);
    gate.fire();
    int done = 0;
    auto waiter = [](Gate &g, int &d) -> Task {
        co_await g.wait();
        ++d;
    };
    sim.spawn(waiter(gate, done));
    sim.run();
    EXPECT_EQ(done, 1);
}

// -------------------------------------------------------------- simthread

namespace {

Task
computeLoop(SimThread &thr, int n, Time per, int &done)
{
    for (int i = 0; i < n; ++i)
        co_await thr.compute(per);
    ++done;
}

} // namespace

TEST(SimThread, CpuIsExclusivePerThread)
{
    Simulator sim;
    SimThread thr(sim, 0);
    int done = 0;
    sim.spawn(computeLoop(thr, 5, 10, done));
    sim.spawn(computeLoop(thr, 5, 10, done));
    sim.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(sim.now(), 100u); // two coroutines serialized on one CPU
}

TEST(SimThread, SeparateThreadsOverlap)
{
    Simulator sim;
    SimThread a(sim, 0);
    SimThread b(sim, 1);
    int done = 0;
    sim.spawn(computeLoop(a, 5, 10, done));
    sim.spawn(computeLoop(b, 5, 10, done));
    sim.run();
    EXPECT_EQ(sim.now(), 50u);
}

// ------------------------------------------------------------------- rng

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, UniformWithinBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = rng.uniform(37);
        EXPECT_LT(v, 37u);
    }
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = rng.uniformRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double d = rng.uniformDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Zipfian, UniformWhenThetaZero)
{
    ZipfianGenerator gen(100, 0.0, 3);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        counts[gen.next()]++;
    for (int c : counts)
        EXPECT_NEAR(c, 1000, 350);
}

TEST(Zipfian, SkewConcentratesOnHotKeys)
{
    ZipfianGenerator gen(1000000, 0.99, 3);
    std::uint64_t hot = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (gen.next() < 100)
            ++hot;
    }
    // With theta=0.99 the top-100 of 1M keys draw >30% of accesses.
    EXPECT_GT(hot, n * 3 / 10);
}

TEST(Zipfian, AllKeysInRange)
{
    ZipfianGenerator gen(50, 0.99, 5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(gen.next(), 50u);
}

TEST(ScatterKey, DeterministicAndInRange)
{
    EXPECT_EQ(scatterKey(42, 1000), scatterKey(42, 1000));
    for (std::uint64_t k = 0; k < 1000; ++k)
        EXPECT_LT(scatterKey(k, 123), 123u);
}

// ------------------------------------------------------------------ stats

TEST(Counter, ResetZeroesValue)
{
    Counter c;
    c.add(10);
    c.add(5);
    EXPECT_EQ(c.value(), 15u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(LatencyHistogram, ExactInFirstOctave)
{
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i)
        h.record(17);
    EXPECT_EQ(h.percentile(50), 17u);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.max(), 17u);
    EXPECT_EQ(h.min(), 17u);
}

TEST(LatencyHistogram, PercentilesOrdered)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 10000; ++v)
        h.record(v * 100);
    std::uint64_t p50 = h.percentile(50);
    std::uint64_t p90 = h.percentile(90);
    std::uint64_t p99 = h.percentile(99);
    EXPECT_LT(p50, p90);
    EXPECT_LT(p90, p99);
    // Log-linear buckets: relative error under ~2%.
    EXPECT_NEAR(static_cast<double>(p50), 500000.0, 500000.0 * 0.02);
    EXPECT_NEAR(static_cast<double>(p99), 990000.0, 990000.0 * 0.02);
}

TEST(LatencyHistogram, MergeCombines)
{
    LatencyHistogram a, b;
    a.record(100);
    b.record(300);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_GE(a.max(), 300u);
    EXPECT_LE(a.min(), 100u);
}

TEST(LatencyHistogram, LargeValuesDoNotOverflowBuckets)
{
    LatencyHistogram h;
    h.record(~std::uint64_t{0} >> 1);
    h.record(1ull << 45);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_GT(h.percentile(99), 0u);
}

TEST(Table, PrintsAligned)
{
    Table t({"a", "bb"});
    t.row().cell(std::uint64_t{1}).cell(2.5, 1);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(Types, CyclesToNs)
{
    // 2.4 GHz: 4096 cycles ~ 1706 ns (the paper's t0 ~ one roundtrip).
    EXPECT_EQ(cyclesToNs(4096), 1706u);
    EXPECT_EQ(cyclesToNs(0), 0u);
}

// ------------------------------------------------------------ determinism

namespace {

/**
 * A contended mini-workload over the raw kernel: seeded-random delays,
 * a shared resource, and instrumented counters/histograms. Returns the
 * metrics snapshot serialized to JSON plus the kernel's event count.
 */
std::pair<std::string, std::uint64_t>
runSeededKernelWorkload(std::uint64_t seed)
{
    Simulator sim;
    Rng rng(seed);
    Resource res(sim, 2, "dev");
    Counter ops;
    LatencyHistogram waits;
    sim.metrics().registerCounter(&ops, "test.ops", {}, &ops);
    sim.metrics().registerHistogram(&waits, "test.wait_ns", {}, &waits);

    auto worker = [&](int rounds) -> Task {
        for (int i = 0; i < rounds; ++i) {
            Time asked = sim.now();
            co_await res.acquire();
            waits.record(sim.now() - asked);
            co_await sim.delay(1 + rng.uniform(300));
            res.release();
            ops.add();
            co_await sim.delay(rng.uniform(2000)); // ring and heap mix
        }
    };
    for (int w = 0; w < 8; ++w)
        sim.spawn(worker(50));
    sim.run();
    return {sim.metrics().snapshot(sim.now()).toJson().dump(),
            sim.eventsProcessed()};
}

} // namespace

TEST(Determinism, SeededKernelWorkloadIsByteIdentical)
{
    auto [json_a, events_a] = runSeededKernelWorkload(7);
    auto [json_b, events_b] = runSeededKernelWorkload(7);
    EXPECT_EQ(json_a, json_b);
    EXPECT_EQ(events_a, events_b);
    EXPECT_GT(events_a, 0u);

    // A different seed must actually change the trajectory, or the
    // equality above is vacuous.
    auto [json_c, events_c] = runSeededKernelWorkload(8);
    EXPECT_NE(json_a, json_c);
    (void)events_c;
}

TEST(Determinism, SmartTestbedMetricsAreByteIdentical)
{
    auto run = [] {
        smart::harness::TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 2;
        cfg.threadsPerBlade = 2;
        cfg.bladeBytes = 1 << 20;
        cfg.smart = smart::presets::full();
        smart::harness::Testbed tb(cfg);
        for (std::uint32_t t = 0; t < 2; ++t) {
            tb.compute(0).spawnWorker(
                t, [&tb, t](smart::SmartCtx &ctx) -> Task {
                    Rng rng(100 + t);
                    std::uint64_t off = tb.memBlade(t % 2).alloc(256);
                    smart::RemotePtr p = ctx.runtime().ptr(t % 2, off);
                    for (int i = 0; i < 40; ++i) {
                        std::uint64_t v = rng.next64();
                        co_await ctx.access(
                            p, smart::AccessOp::write(
                                   smart::ConstMemSpan::of(v)));
                        std::uint64_t back = 0;
                        co_await ctx.access(
                            p,
                            smart::AccessOp::read(smart::MemSpan::of(back)));
                        EXPECT_EQ(back, v);
                    }
                });
        }
        tb.sim().runUntil(msec(20));
        return std::make_pair(
            tb.sim().metrics().snapshot(tb.sim().now()).toJson().dump(),
            tb.sim().eventsProcessed());
    };
    auto [json_a, events_a] = run();
    auto [json_b, events_b] = run();
    EXPECT_EQ(json_a, json_b);
    EXPECT_EQ(events_a, events_b);
    EXPECT_GT(events_a, 0u);
}

// ------------------------------------------------ wire delivery ordering

namespace {

struct Push
{
    std::vector<std::string> *log;
    const char *tag;

    void operator()() { log->push_back(tag); }
};

} // namespace

TEST(WireOrdering, DeliversByTimeThenSourceThenSeq)
{
    Simulator sim;
    // Construction order fixes the srcId order: a's id < b's id.
    WireEndpoint a(sim);
    WireEndpoint b(sim);
    ASSERT_LT(a.srcId(), b.srcId());

    std::vector<std::string> log;
    b.send(sim, 1000, Push{&log, "b1"});
    a.send(sim, 1000, Push{&log, "a1"});
    a.send(sim, 500, Push{&log, "a0"});
    b.send(sim, 1000, Push{&log, "b2"});
    sim.runUntil(2000);

    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], "a0"); // earliest dtime first
    EXPECT_EQ(log[1], "a1"); // same dtime: lower srcId wins
    EXPECT_EQ(log[2], "b1"); // same dtime + srcId: FIFO by seq
    EXPECT_EQ(log[3], "b2");
}

TEST(WireOrdering, SameSimDeliveryInterleavesWithLocalEvents)
{
    Simulator sim;
    WireEndpoint ep(sim);
    std::vector<std::string> log;
    sim.scheduleAt(999, [&log] { log.push_back("local999"); });
    sim.scheduleAt(1001, [&log] { log.push_back("local1001"); });
    ep.send(sim, 1000, Push{&log, "wire1000"});
    sim.runUntil(2000);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], "local999");
    EXPECT_EQ(log[1], "wire1000");
    EXPECT_EQ(log[2], "local1001");
}

namespace {

/** Wire payload whose capture is visible through the shared_ptr count. */
struct Hold
{
    std::shared_ptr<int> ref;

    void operator()() {}
};

} // namespace

TEST(WireOrdering, TeardownReleasesInFlightPayloads)
{
    auto ref = std::make_shared<int>(0);
    {
        // Still parked in the inbox when the Simulator dies.
        Simulator sim;
        WireEndpoint ep(sim);
        ep.send(sim, 1000, Hold{ref});
        sim.runUntil(500);
        EXPECT_EQ(ref.use_count(), 2);
    }
    EXPECT_EQ(ref.use_count(), 1);
    {
        // Popped into an injected event that never runs.
        EventQueue q;
        WireInbox inbox;
        inbox.push(WireMsg::make(1000, 0, 0, Hold{ref}));
        inbox.injectUpTo(1000, q);
        EXPECT_EQ(ref.use_count(), 2);
    }
    EXPECT_EQ(ref.use_count(), 1);
}

// The inbox injects unclamped, so these checks stay on in Release builds.
TEST(WireOrderingDeathTest, PastDatedSendAborts)
{
    Simulator sim;
    WireEndpoint ep(sim);
    std::vector<std::string> log;
    sim.runUntil(1000);
    EXPECT_DEATH(ep.send(sim, 999, Push{&log, "late"}),
                 "delivery time is in the past");
}

TEST(WireOrderingDeathTest, SendToAnotherSimulatorAborts)
{
    Simulator sim;
    Simulator other;
    WireEndpoint ep(sim);
    std::vector<std::string> log;
    EXPECT_DEATH(ep.send(other, 10, Push{&log, "stray"}),
                 "send to another Simulator");
}

// ------------------------------------------------------ perf introspection

TEST(PerfIntrospection, CountsEventsAndDepth)
{
    KernelPerf before = collectKernelPerf();

    Simulator sim;
    for (int i = 0; i < 32; ++i)
        sim.schedule(static_cast<Time>(i % 7), [] {});
    sim.run();

    EXPECT_EQ(sim.eventsScheduled(), 32u);
    EXPECT_EQ(sim.eventsProcessed(), 32u);
    EXPECT_GE(sim.peakQueueDepth(), 1u);
    EXPECT_LE(sim.peakQueueDepth(), 32u);
    // The process-wide tally aggregates this Simulator's work.
    KernelPerf after = collectKernelPerf();
    EXPECT_GE(after.eventsProcessed - before.eventsProcessed, 32u);
    EXPECT_GE(after.ringInserts - before.ringInserts, 32u);
    EXPECT_GE(after.peakQueueDepth, sim.peakQueueDepth());
}

// ------------------------------------------------------ allocation audit

// The SMART flusher's staging vectors and SmartCtx's retry-tracking
// vectors may grow while the pipeline warms up, but steady state must
// reuse the warm capacity: the debug growth counters have to stop
// moving once traffic is established.
TEST(GrowthAudit, StagingAndTrackingBuffersStopGrowingWhenWarm)
{
    smart::harness::TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 2;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = smart::presets::full();
    smart::harness::Testbed tb(cfg);

    bool stop = false;
    smart::SmartCtx *ctxs[2] = {nullptr, nullptr};
    for (std::uint32_t t = 0; t < 2; ++t) {
        tb.compute(0).spawnWorker(
            t, [&tb, &stop, &ctxs, t](smart::SmartCtx &ctx) -> Task {
                ctxs[t] = &ctx;
                std::uint64_t off = tb.memBlade(t % 2).alloc(256);
                smart::RemotePtr p = ctx.runtime().ptr(t % 2, off);
                Rng rng(7 + t);
                while (!stop) {
                    std::uint64_t v = rng.next64();
                    co_await ctx.access(
                        p,
                        smart::AccessOp::write(smart::ConstMemSpan::of(v)));
                    std::uint64_t back = 0;
                    co_await ctx.access(
                        p, smart::AccessOp::read(smart::MemSpan::of(back)));
                    EXPECT_EQ(back, v);
                }
            });
    }

    auto stage_growths = [&tb] {
        return tb.compute(0).thread(0).stageBufGrowths() +
               tb.compute(0).thread(1).stageBufGrowths();
    };

    tb.sim().runUntil(msec(10)); // warm-up traffic
    ASSERT_NE(ctxs[0], nullptr);
    ASSERT_NE(ctxs[1], nullptr);
    std::uint64_t stage_warm = stage_growths();
    std::uint64_t track_warm =
        ctxs[0]->trackBufGrowths() + ctxs[1]->trackBufGrowths();

    tb.sim().runUntil(msec(30)); // steady window, 2x the warm-up
    EXPECT_EQ(stage_growths(), stage_warm);
    EXPECT_EQ(ctxs[0]->trackBufGrowths() + ctxs[1]->trackBufGrowths(),
              track_warm);

    // Let the workers observe the flag and retire cleanly.
    stop = true;
    tb.sim().runUntil(msec(31));
}
