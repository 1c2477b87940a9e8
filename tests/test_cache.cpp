/**
 * @file
 * Tests of the compute-side buffer-managed cache tier: hit/miss/eviction
 * mechanics under capacity pressure, the coherence rules (CAS
 * invalidation, write-back ordering ahead of atomics, crash-restart
 * flush), RemoteRef pinning, and per-seed determinism of cached runs.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "harness/testbed.hpp"
#include "sim/fault.hpp"
#include "smart/cache/buffer_manager.hpp"
#include "smart/remote_ref.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;

namespace {

/** One compute blade, two memory blades, cache pool of @p cache_bytes. */
TestbedConfig
cachedConfig(std::uint64_t cache_bytes, std::uint32_t line_bytes = 256)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 1;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = presets::full();
    cfg.smart.cache.sizeBytes = cache_bytes;
    cfg.smart.cache.lineBytes = line_bytes;
    return cfg;
}

/** Fill @p n bytes at blade offset @p off with a seeded pattern. */
void
patternFill(Testbed &tb, std::uint32_t blade, std::uint64_t off,
            std::uint32_t n, std::uint8_t seed)
{
    std::uint8_t *bytes = tb.memBlade(blade).bytesAt(off);
    for (std::uint32_t i = 0; i < n; ++i)
        bytes[i] = static_cast<std::uint8_t>(seed + i * 13);
}

} // namespace

TEST(Cache, SecondReadOfLineIsAHit)
{
    Testbed tb(cachedConfig(16 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(256, 256);
        patternFill(tb, 0, off, 256, 7);
        RemotePtr p = ctx.runtime().ptr(0, off);
        cache::BufferManager *bm = ctx.runtime().cache();
        EXPECT_NE(bm, nullptr);
        if (bm == nullptr)
            co_return;

        std::uint8_t buf[64] = {};
        co_await ctx.access(p, AccessOp::read(MemSpan{buf, 64}));
        EXPECT_EQ(bm->missCount(), 1u);
        // A miss fills only the line it covers.
        EXPECT_EQ(bm->residentLines(), 1u);
        EXPECT_EQ(buf[3], static_cast<std::uint8_t>(7 + 3 * 13));

        // Different span, same line: served locally.
        std::uint8_t buf2[64] = {};
        co_await ctx.access(p + 64, AccessOp::read(MemSpan{buf2, 64}));
        EXPECT_EQ(bm->missCount(), 1u);
        EXPECT_GE(bm->hitCount(), 1u);
        EXPECT_EQ(buf2[0], static_cast<std::uint8_t>(7 + 64 * 13));
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, EvictionUnderCapacityPressure)
{
    // A 4-frame pool cycled through 12 distinct lines must evict, stay
    // within its capacity, and still return correct bytes every time.
    Testbed tb(cachedConfig(4 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t base = tb.memBlade(0).alloc(12 * 256, 256);
        for (std::uint32_t l = 0; l < 12; ++l)
            patternFill(tb, 0, base + l * 256, 256,
                        static_cast<std::uint8_t>(l * 11 + 1));
        cache::BufferManager *bm = ctx.runtime().cache();
        EXPECT_NE(bm, nullptr);
        if (bm == nullptr)
            co_return;

        for (int round = 0; round < 3; ++round) {
            for (std::uint32_t l = 0; l < 12; ++l) {
                std::uint8_t buf[32] = {};
                co_await ctx.access(
                    ctx.runtime().ptr(0, base + l * 256 + 32),
                    AccessOp::read(MemSpan{buf, 32}));
                EXPECT_FALSE(ctx.failed());
                if (ctx.failed())
                    co_return;
                EXPECT_EQ(buf[0], static_cast<std::uint8_t>(
                                      l * 11 + 1 + 32 * 13));
            }
        }
        EXPECT_GE(bm->evictionCount(), 12u);
        EXPECT_LE(bm->residentLines(), 4u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, CasInvalidatesCoveringLine)
{
    Testbed tb(cachedConfig(16 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(256, 256);
        std::uint64_t seed = 5;
        std::memcpy(tb.memBlade(0).bytesAt(off), &seed, 8);
        RemotePtr p = ctx.runtime().ptr(0, off);
        cache::BufferManager *bm = ctx.runtime().cache();

        std::uint64_t v = 0;
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, 5u);

        std::uint64_t old = 0;
        bool ok = false;
        co_await ctx.access(p, AccessOp::cas(5, 99, old, ok));
        EXPECT_TRUE(ok);
        EXPECT_GE(bm->invalidationCount(), 1u);

        // The cached line was dropped: this read refetches and sees the
        // CAS result, not the stale fill.
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, 99u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, DirtyLineIsFlushedBeforeAtomic)
{
    // FORD-style commit ordering: a CAS commit point on a line holding
    // buffered (dirty) cached writes must not overtake them.
    Testbed tb(cachedConfig(16 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(256, 256);
        std::memset(tb.memBlade(0).bytesAt(off), 0, 256);
        RemotePtr p = ctx.runtime().ptr(0, off);
        cache::BufferManager *bm = ctx.runtime().cache();

        // Fill the line, then buffer a cached write to word 1.
        std::uint64_t v = 0;
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        std::uint64_t payload = 0xabcdefull;
        co_await ctx.access(p + 8, AccessOp::write(ConstMemSpan::of(payload)),
                            CachePolicy::Cached);
        EXPECT_TRUE(bm->lineDirty(0, off));
        std::uint64_t host_word1 = 0;
        std::memcpy(&host_word1, tb.memBlade(0).bytesAt(off + 8), 8);
        EXPECT_EQ(host_word1, 0u); // still buffered, not written back

        // CAS word 0 of the same line: forces the write-back first.
        std::uint64_t old = 0;
        bool ok = false;
        co_await ctx.access(p, AccessOp::cas(0, 1, old, ok));
        EXPECT_TRUE(ok);
        EXPECT_GE(bm->writebackCount(), 1u);
        std::memcpy(&host_word1, tb.memBlade(0).bytesAt(off + 8), 8);
        EXPECT_EQ(host_word1, 0xabcdefull);
        EXPECT_FALSE(bm->lineDirty(0, off));
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, CachedWriteVisibleToCachedReadAndFlushable)
{
    Testbed tb(cachedConfig(16 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(256, 256);
        std::memset(tb.memBlade(0).bytesAt(off), 0, 256);
        RemotePtr p = ctx.runtime().ptr(0, off);

        std::uint64_t v = 0;
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        std::uint64_t nv = 1234;
        co_await ctx.access(p, AccessOp::write(ConstMemSpan::of(nv)),
                            CachePolicy::Cached);
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, 1234u); // served from the dirty frame

        co_await ctx.cacheFlush();
        std::uint64_t host = 0;
        std::memcpy(&host, tb.memBlade(0).bytesAt(off), 8);
        EXPECT_EQ(host, 1234u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, BladeCrashRestartDropsItsLines)
{
    // NVM contents survive a crash, the MR does not: after the restart
    // the next cached access must refetch, never serve the stale frame.
    TestbedConfig cfg = cachedConfig(16 * 256);
    Testbed tb(cfg);
    sim::FaultPlane &fp = tb.faultPlane(42);
    std::uint64_t off = tb.memBlade(0).alloc(256, 256);
    std::uint64_t seed = 111;
    std::memcpy(tb.memBlade(0).bytesAt(off), &seed, 8);
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        RemotePtr p = ctx.runtime().ptr(0, off);

        std::uint64_t v = 0;
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, 111u);

        // Wait out the crash/restart cycle (blade down for 1 ms), during
        // which the blade's NVM is mutated behind the cache's back.
        co_await ctx.sim().delay(sim::msec(3));
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_FALSE(ctx.failed());
        EXPECT_EQ(v, 222u);
        done = true;
    });
    fp.oneShot(sim::msec(1), sim::FaultKind::Crash, "mb0", sim::msec(1));
    tb.sim().schedule(sim::usec(1500), [&tb, off] {
        std::uint64_t nv = 222;
        std::memcpy(tb.memBlade(0).bytesAt(off), &nv, 8);
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, PinnedFrameSurvivesEvictionPressure)
{
    // Two-frame pool: pin one line, thrash the rest. The pinned view
    // must stay resident and byte-stable throughout.
    Testbed tb(cachedConfig(2 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t base = tb.memBlade(0).alloc(8 * 256, 256);
        std::uint64_t magic = 0xfeedface;
        std::memcpy(tb.memBlade(0).bytesAt(base), &magic, 8);
        for (std::uint32_t l = 1; l < 8; ++l)
            patternFill(tb, 0, base + l * 256, 256,
                        static_cast<std::uint8_t>(l));
        cache::BufferManager *bm = ctx.runtime().cache();

        RemoteRef<std::uint64_t> ref(ctx, ctx.runtime().ptr(0, base));
        co_await ref.pin();
        EXPECT_TRUE(ref.valid());
        if (!ref.valid())
            co_return;
        EXPECT_EQ(ref.load(), 0xfeedfaceull);

        for (int round = 0; round < 2; ++round) {
            for (std::uint32_t l = 1; l < 8; ++l) {
                std::uint8_t buf[16] = {};
                co_await ctx.access(ctx.runtime().ptr(0, base + l * 256),
                                    AccessOp::read(MemSpan{buf, 16}));
                EXPECT_EQ(buf[0], static_cast<std::uint8_t>(l));
            }
        }
        EXPECT_GE(bm->evictionCount(), 1u);
        EXPECT_EQ(ref.load(), 0xfeedfaceull); // never evicted
        ref.unpin();
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, ExhaustedPoolFallsBackToWire)
{
    // Pin both frames of a two-frame pool: further cached reads cannot
    // get a frame and must transparently bypass, still correct.
    Testbed tb(cachedConfig(2 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t base = tb.memBlade(0).alloc(4 * 256, 256);
        for (std::uint32_t l = 0; l < 4; ++l)
            patternFill(tb, 0, base + l * 256, 256,
                        static_cast<std::uint8_t>(40 + l));
        cache::BufferManager *bm = ctx.runtime().cache();

        RemoteRef<std::uint64_t> r0(ctx, ctx.runtime().ptr(0, base));
        RemoteRef<std::uint64_t> r1(ctx, ctx.runtime().ptr(0, base + 256));
        co_await r0.pin();
        co_await r1.pin();
        EXPECT_TRUE(r0.valid());
        EXPECT_TRUE(r1.valid());
        if (!r0.valid() || !r1.valid())
            co_return;

        std::uint8_t buf[16] = {};
        co_await ctx.access(ctx.runtime().ptr(0, base + 2 * 256),
                            AccessOp::read(MemSpan{buf, 16}));
        EXPECT_FALSE(ctx.failed());
        EXPECT_EQ(buf[0], 42u);
        EXPECT_GE(bm->poolExhausted(), 1u);

        // A pin with no frame available falls back to inline storage.
        RemoteRef<std::uint64_t> r2(ctx, ctx.runtime().ptr(0, base + 768));
        co_await r2.pin();
        EXPECT_TRUE(r2.valid());
        if (!r2.valid())
            co_return;
        std::uint64_t expect = 0;
        std::memcpy(&expect, tb.memBlade(0).bytesAt(base + 768), 8);
        EXPECT_EQ(r2.load(), expect);

        r0.unpin();
        r1.unpin();
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, CachedRunsAreDeterministicPerSeed)
{
    auto run = [](std::uint64_t cache_bytes) {
        TestbedConfig cfg = cachedConfig(cache_bytes);
        cfg.threadsPerBlade = 2;
        Testbed tb(cfg);
        for (std::uint32_t t = 0; t < 2; ++t) {
            tb.compute(0).spawnWorker(t, [&tb, t](SmartCtx &ctx) -> Task {
                sim::Rng rng(900 + t);
                std::uint64_t base = 0;
                for (int i = 0; i < 200; ++i) {
                    std::uint64_t off =
                        base + rng.uniform(64) * 64; // 16 hot lines
                    std::uint64_t v = 0;
                    co_await ctx.access(
                        ctx.runtime().ptr(t % 2, off),
                        AccessOp::read(MemSpan::of(v)));
                    if (i % 7 == 0) {
                        std::uint64_t nv = rng.next64();
                        co_await ctx.access(
                            ctx.runtime().ptr(t % 2, off),
                            AccessOp::write(ConstMemSpan::of(nv)));
                    }
                }
            });
        }
        tb.sim().runUntil(sim::msec(20));
        return std::make_pair(
            tb.sim().metrics().snapshot(tb.sim().now()).toJson().dump(),
            tb.sim().eventsProcessed());
    };

    // Cached runs replay byte-identically...
    auto [json_a, events_a] = run(16 * 256);
    auto [json_b, events_b] = run(16 * 256);
    EXPECT_EQ(json_a, json_b);
    EXPECT_EQ(events_a, events_b);

    // ...and so do cache-disabled runs (no BufferManager at all).
    auto [json_c, events_c] = run(0);
    auto [json_d, events_d] = run(0);
    EXPECT_EQ(json_c, json_d);
    EXPECT_EQ(events_c, events_d);
    // The cached and disabled streams differ (the cache is real).
    EXPECT_NE(events_a, events_c);
}

TEST(Cache, PinnedFrameHandoffDuringDrain)
{
    // A drain re-keys resident frames to the destination blade via
    // handoffRange. A pinned view must survive the move byte-stable,
    // and the re-keyed line must serve (hit) accesses addressed to the
    // destination without a refetch.
    Testbed tb(cachedConfig(8 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off0 = tb.memBlade(0).alloc(4 * 256, 256);
        std::uint64_t off1 = tb.memBlade(1).alloc(4 * 256, 256);
        EXPECT_EQ(off0, off1); // offset-preserving migration contract
        std::uint64_t magic = 0x1234abcd5678ull;
        std::memcpy(tb.memBlade(0).bytesAt(off0), &magic, 8);
        cache::BufferManager *bm = ctx.runtime().cache();

        RemoteRef<std::uint64_t> ref(ctx, ctx.runtime().ptr(0, off0));
        co_await ref.pin();
        EXPECT_TRUE(ref.valid());
        if (!ref.valid())
            co_return;
        EXPECT_EQ(ref.load(), magic);

        // The drain's copy step, then the cache handoff.
        std::memcpy(tb.memBlade(1).bytesAt(off1),
                    tb.memBlade(0).bytesAt(off0), 4 * 256);
        std::uint32_t moved = bm->handoffRange(0, 1, off0, 4 * 256);
        EXPECT_GE(moved, 1u);
        EXPECT_GE(bm->handoffCount(), 1u);

        // Pin survived the re-key, bytes unchanged.
        EXPECT_EQ(ref.load(), magic);

        // The frame now fronts blade 1: same-offset access there hits.
        std::uint64_t hits0 = bm->hitCount();
        std::uint64_t v = 0;
        co_await ctx.access(ctx.runtime().ptr(1, off1),
                            AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, magic);
        EXPECT_EQ(bm->hitCount(), hits0 + 1);
        ref.unpin();
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, DirtyLineHandoffWritesBackToDestination)
{
    // A line dirtied before the drain must write its (newer) bytes back
    // to the destination blade after the handoff, never to the source.
    Testbed tb(cachedConfig(8 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off0 = tb.memBlade(0).alloc(256, 256);
        std::uint64_t off1 = tb.memBlade(1).alloc(256, 256);
        EXPECT_EQ(off0, off1);
        std::memset(tb.memBlade(0).bytesAt(off0), 0, 256);
        std::memset(tb.memBlade(1).bytesAt(off1), 0, 256);
        cache::BufferManager *bm = ctx.runtime().cache();

        std::uint64_t v = 0;
        RemotePtr p0 = ctx.runtime().ptr(0, off0);
        co_await ctx.access(p0, AccessOp::read(MemSpan::of(v)));
        std::uint64_t nv = 4321;
        co_await ctx.access(p0, AccessOp::write(ConstMemSpan::of(nv)),
                            CachePolicy::Cached);

        bm->handoffRange(0, 1, off0, 256);

        co_await ctx.cacheFlush();
        std::uint64_t src_host = ~0ull, dst_host = 0;
        std::memcpy(&src_host, tb.memBlade(0).bytesAt(off0), 8);
        std::memcpy(&dst_host, tb.memBlade(1).bytesAt(off1), 8);
        EXPECT_EQ(src_host, 0u);    // source never re-written
        EXPECT_EQ(dst_host, 4321u); // write-back followed the handoff
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}
