/**
 * @file
 * Crash-recovery tests for the FORD-style transaction layer: crash a
 * memory blade through the fault plane at arbitrary instants (with
 * transactions in every phase of the commit protocol), run
 * DtxSystem::recover(), and check FORD's failure-atomicity guarantees —
 * committed transactions survive via the redo log, uncommitted ones
 * vanish entirely, stale locks are broken, replicas re-converge, and
 * money is conserved.
 */

#include <gtest/gtest.h>

#include "apps/ford/smallbank.hpp"
#include "harness/testbed.hpp"
#include "sim/fault.hpp"

using namespace smart;
using namespace smart::ford;
using namespace smart::harness;
using sim::Task;

namespace {

struct CrashRig
{
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<DtxSystem> sys;
    std::unique_ptr<SmallBank> bank;

    explicit CrashRig(std::uint32_t threads, std::uint64_t accounts)
    {
        TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 2;
        cfg.threadsPerBlade = threads;
        cfg.bladeBytes = 512ull << 20;
        cfg.smart = presets::full();
        tb = std::make_unique<Testbed>(cfg);
        std::vector<memblade::MemoryBlade *> blades;
        for (std::uint32_t i = 0; i < tb->numMemBlades(); ++i)
            blades.push_back(&tb->memBlade(i));
        sys = std::make_unique<DtxSystem>(blades, threads);
        bank = std::make_unique<SmallBank>(*sys, accounts);
    }

    /** Spawn payment workers that run until the "crash". */
    void
    spawnPaymentStorm(std::uint32_t threads)
    {
        for (std::uint32_t t = 0; t < threads; ++t) {
            tb->compute(0).spawnWorker(t, [this, t](SmartCtx &ctx) -> Task {
                sim::Rng rng(t * 31 + 5);
                for (;;) {
                    DtxResult res;
                    std::uint64_t a = rng.uniform(bank->numAccounts());
                    std::uint64_t b = rng.uniform(bank->numAccounts());
                    co_await bank->txSendPayment(ctx, a, b, 9, res);
                }
            });
        }
    }

    bool
    allUnlockedAndReplicated()
    {
        bool ok = true;
        for (std::uint64_t a = 0; a < bank->numAccounts(); ++a) {
            ok &= bank->checking().hostRecord(a)->lock == 0;
            ok &= bank->savings().hostRecord(a)->lock == 0;
            ok &= bank->replicasConsistent(a);
        }
        return ok;
    }
};

} // namespace

TEST(Recovery, CleanSystemRecoversToItself)
{
    CrashRig rig(1, 16);
    std::int64_t before = rig.bank->hostTotal();
    EXPECT_EQ(rig.sys->recover(), 0u); // nothing in the logs
    EXPECT_EQ(rig.bank->hostTotal(), before);
    EXPECT_TRUE(rig.allUnlockedAndReplicated());
}

TEST(Recovery, RecoverAfterQuiescentCommitIsNoOp)
{
    CrashRig rig(1, 16);
    rig.tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await rig.bank->txSendPayment(ctx, 1, 2, 100, res);
        EXPECT_TRUE(res.committed);
    });
    rig.tb->sim().runUntil(sim::msec(50)); // transaction fully done
    std::int64_t before = rig.bank->hostTotal();
    std::int64_t bal1 = recordBalance(*rig.bank->checking().hostRecord(1));
    rig.sys->recover(); // log still holds the txn; redo must be a no-op
    EXPECT_EQ(rig.bank->hostTotal(), before);
    EXPECT_EQ(recordBalance(*rig.bank->checking().hostRecord(1)), bal1);
    EXPECT_TRUE(rig.allUnlockedAndReplicated());
}

namespace {

class CrashInstant : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(CrashInstant, ConservationAndConvergenceAfterArbitraryCrash)
{
    // 8 threads hammer 12 accounts with conserving payments; the crash
    // lands mid-protocol for several transactions (locks held, logs
    // half-written, one replica updated...). The crash is delivered
    // through the fault plane: mb1 drops dead at the crash instant and
    // stays down, so in-flight transactions see error completions and
    // abort instead of the simulator simply halting around them.
    CrashRig rig(8, 12);
    std::int64_t initial = rig.bank->hostTotal();
    rig.spawnPaymentStorm(8);
    sim::FaultPlane &fp = rig.tb->faultPlane(GetParam());
    fp.oneShot(GetParam(), sim::FaultKind::Crash, "mb1"); // stays down
    rig.tb->sim().runUntil(GetParam() + sim::msec(20)); // aborts drain

    rig.sys->recover();

    // Failure atomicity: each payment conserves money, so the total must
    // equal the initial total no matter which subset committed.
    EXPECT_EQ(rig.bank->hostTotal(), initial);
    EXPECT_TRUE(rig.allUnlockedAndReplicated());

    // Versions stay sane: primary == backup everywhere.
    for (std::uint64_t a = 0; a < 12; ++a) {
        EXPECT_EQ(rig.bank->checking().hostRecord(a)->version,
                  rig.bank->checking().hostBackupRecord(a)->version)
            << a;
    }
}

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, CrashInstant,
    ::testing::Values(sim::usec(37), sim::usec(53), sim::usec(71),
                      sim::usec(113), sim::usec(211), sim::usec(409),
                      sim::usec(733), sim::msec(1) + 17,
                      sim::msec(2) + 331, sim::msec(5) + 7));

TEST(Recovery, RedoneTransactionsAreCountedAndIdempotent)
{
    CrashRig rig(4, 8);
    rig.spawnPaymentStorm(4);
    rig.tb->sim().runUntil(sim::usec(500));
    std::uint32_t first = rig.sys->recover();
    std::int64_t after_first = rig.bank->hostTotal();
    // Running recovery twice changes nothing (pure redo).
    std::uint32_t second = rig.sys->recover();
    EXPECT_EQ(second, 0u);
    EXPECT_EQ(rig.bank->hostTotal(), after_first);
    (void)first;
}

TEST(Recovery, CompleteLogIsRedoneOntoStaleReplicas)
{
    // Unit-level redo check: craft a committed transaction's log by hand
    // (as if the crash hit after the log persisted but before any data
    // write), then verify recover() installs the post-images on both
    // replicas.
    CrashRig rig(1, 8);
    Record *primary = rig.bank->checking().hostRecord(3);
    Record old_img = *primary;

    LogEntry e;
    e.txid = 0x7777;
    e.part = 0;
    e.nparts = 1;
    e.tableId = rig.bank->checking().id();
    e.key = 3;
    e.img = old_img;
    e.img.version = old_img.version + 1;
    setRecordBalance(e.img, 123456);
    std::memcpy(rig.tb->memBlade(rig.bank->checking().primaryBlade())
                    .bytesAt(rig.sys->logOffset(
                        rig.bank->checking().primaryBlade(), 0)),
                &e, sizeof(LogEntry));

    EXPECT_EQ(rig.sys->recover(), 1u);
    EXPECT_EQ(recordBalance(*rig.bank->checking().hostRecord(3)), 123456);
    EXPECT_EQ(recordBalance(*rig.bank->checking().hostBackupRecord(3)),
              123456);
    EXPECT_EQ(rig.bank->checking().hostRecord(3)->version,
              old_img.version + 1);
}

TEST(Recovery, CompleteLogOnOneReplicaIsRedone)
{
    // An Amalgamate-shaped log (three parts in consecutive slots, as one
    // WRITE lays it down) that reached only one replica's ring before
    // the crash is still complete, so the transaction is redone.
    CrashRig rig(1, 8);
    DtxTable &sav = rig.bank->savings();
    DtxTable &chk = rig.bank->checking();
    const struct
    {
        DtxTable &table;
        std::uint64_t key;
        std::int64_t balance;
    } parts[3] = {{sav, 2, 0}, {chk, 2, 0}, {chk, 6, 30000}};
    std::uint32_t blade = sav.backupBlade();
    std::uint8_t *ring = rig.tb->memBlade(blade).bytesAt(
        rig.sys->logOffset(blade, 0) + 5 * sizeof(LogEntry));
    for (std::uint32_t i = 0; i < 3; ++i) {
        LogEntry e;
        e.txid = 0x9999;
        e.part = i;
        e.nparts = 3;
        e.tableId = parts[i].table.id();
        e.key = parts[i].key;
        e.img = *parts[i].table.hostRecord(e.key);
        e.img.version++;
        setRecordBalance(e.img, parts[i].balance);
        std::memcpy(ring + i * sizeof(LogEntry), &e, sizeof(LogEntry));
    }
    std::int64_t before = rig.bank->hostTotal();

    EXPECT_EQ(rig.sys->recover(), 1u);
    for (const auto &p : parts) {
        EXPECT_EQ(recordBalance(*p.table.hostRecord(p.key)), p.balance);
        EXPECT_EQ(recordBalance(*p.table.hostBackupRecord(p.key)),
                  p.balance);
        EXPECT_EQ(p.table.hostRecord(p.key)->version, 2u);
    }
    EXPECT_EQ(rig.bank->hostTotal(), before);
    EXPECT_TRUE(rig.allUnlockedAndReplicated());
}

TEST(Recovery, IncompleteLogIsDiscarded)
{
    // Only part 0 of a 2-part transaction made it to NVM: the crash hit
    // mid-log, so the transaction never reached its commit point and
    // must leave no trace.
    CrashRig rig(1, 8);
    std::int64_t before = recordBalance(*rig.bank->checking().hostRecord(5));

    LogEntry e;
    e.txid = 0x8888;
    e.part = 0;
    e.nparts = 2; // part 1 missing
    e.tableId = rig.bank->checking().id();
    e.key = 5;
    e.img = *rig.bank->checking().hostRecord(5);
    e.img.version++;
    setRecordBalance(e.img, -999);
    std::memcpy(rig.tb->memBlade(rig.bank->checking().primaryBlade())
                    .bytesAt(rig.sys->logOffset(
                        rig.bank->checking().primaryBlade(), 0)),
                &e, sizeof(LogEntry));

    EXPECT_EQ(rig.sys->recover(), 0u);
    EXPECT_EQ(recordBalance(*rig.bank->checking().hostRecord(5)), before);
}

TEST(Recovery, FencedViewAbandonsInFlightDoorbellBatch)
{
    // A doorbell batch staged against a blade that dies before its
    // completions return must abandon through the cluster-view fence
    // (typed StaleView) instead of burning the whole per-verb retry
    // budget against a corpse.
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 1;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = presets::full();
    Testbed tb(cfg);
    // WR tracking (and with it the sync() fence) is armed only when a
    // fault plane exists — as it does in any run with membership events.
    tb.faultPlane();
    ClusterView view(tb.sim(), "fence0");
    view.set(0, BladeState::Active);
    view.set(1, BladeState::Active);
    tb.compute(0).setClusterView(&view);

    std::uint64_t off = tb.memBlade(1).alloc(4 * 64, 64);
    bool done = false;
    VerbError::Kind seen = VerbError::Kind::None;
    sim::Time t_start = 0, t_err = 0;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t *buf = ctx.scratch(256);
        // Stage a 4-WR batch, then fence the target before completions
        // can arrive: the blade crashes and the view marks it Dead.
        for (int i = 0; i < 4; ++i)
            ctx.read(ctx.runtime().ptr(1, off + i * 64),
                     MemSpan{buf + i * 64, 64});
        tb.memBlade(1).crash(0); // never restarts
        view.set(1, BladeState::Dead);
        t_start = ctx.sim().now();
        co_await ctx.postSend();
        co_await ctx.sync();
        EXPECT_TRUE(ctx.failed());
        seen = ctx.lastError().kind;
        t_err = ctx.sim().now();
        ctx.clearError();
        done = true;
    });
    tb.sim().runUntil(sim::msec(50));
    EXPECT_TRUE(done);
    EXPECT_EQ(seen, VerbError::Kind::StaleView);
    EXPECT_GE(view.fencedCount(), 1u);
    // Prompt abandon: well under the full retry budget (8 retries x
    // 1 ms verb timeout plus backoff).
    EXPECT_LT(t_err - t_start, sim::msec(4));
}
