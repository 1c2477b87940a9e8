/**
 * @file
 * Tests for the FORD-style transaction layer: table load/addressing,
 * single-transaction commit semantics, OCC aborts under conflicts,
 * replica consistency, money conservation under heavy concurrency, the
 * redo-log framing (WRs per profile, entry placement, per-coroutine
 * txids), and both application benchmarks (SmallBank, TATP).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/ford/smallbank.hpp"
#include "apps/ford/tatp.hpp"
#include "harness/testbed.hpp"

using namespace smart;
using namespace smart::ford;
using namespace smart::harness;
using sim::Task;

namespace {

struct DtxFixture : ::testing::Test
{
    TestbedConfig tcfg;
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<DtxSystem> sys;

    void
    build(const SmartConfig &smart, std::uint32_t threads)
    {
        tcfg.computeBlades = 1;
        tcfg.memoryBlades = 2;
        tcfg.threadsPerBlade = threads;
        tcfg.bladeBytes = 512ull << 20;
        tcfg.smart = smart;
        tb = std::make_unique<Testbed>(tcfg);
        std::vector<memblade::MemoryBlade *> blades;
        for (std::uint32_t i = 0; i < tb->numMemBlades(); ++i)
            blades.push_back(&tb->memBlade(i));
        sys = std::make_unique<DtxSystem>(blades, threads);
    }

    /** Copy of every log ring on memory blade @p blade. */
    std::vector<std::uint8_t>
    logRings(std::uint32_t blade)
    {
        const std::uint8_t *base =
            tb->memBlade(blade).bytesAt(sys->logOffset(blade, 0));
        return {base, base + sys->numThreads() * DtxSystem::kLogRingBytes};
    }
};

} // namespace

TEST_F(DtxFixture, TableLoadAndHostAccess)
{
    build(presets::full(), 1);
    DtxTable &t = sys->createTable(1024);
    std::uint64_t payload = 42;
    t.loadRecord(7, &payload, 8);
    Record *rec = t.hostRecord(7);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->key, 7u);
    EXPECT_EQ(rec->version, 1u);
    std::uint64_t read_back = 0;
    std::memcpy(&read_back, rec->payload, 8);
    EXPECT_EQ(read_back, 42u);
    // Backup replica matches.
    EXPECT_EQ(std::memcmp(rec, t.hostBackupRecord(7), sizeof(Record)), 0);
    // Distinct blades for the replicas.
    EXPECT_NE(t.primaryBlade(), t.backupBlade());
}

TEST_F(DtxFixture, CollidingKeysProbeToDistinctSlots)
{
    build(presets::full(), 1);
    DtxTable &t = sys->createTable(64);
    std::uint64_t p = 1;
    for (std::uint64_t k = 0; k < 40; ++k)
        t.loadRecord(k, &p, 8);
    std::set<std::uint64_t> offsets;
    for (std::uint64_t k = 0; k < 40; ++k)
        offsets.insert(t.slotOffset(k));
    EXPECT_EQ(offsets.size(), 40u);
}

TEST_F(DtxFixture, SimpleCommitUpdatesBothReplicas)
{
    build(presets::full(), 1);
    SmallBank bank(*sys, 100);
    int done = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txDepositChecking(ctx, 5, 250, res);
        EXPECT_TRUE(res.committed);
        EXPECT_EQ(res.aborts, 0u);
        ++done;
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(done, 1);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(5)),
              SmallBank::kInitialBalance + 250);
    EXPECT_TRUE(bank.replicasConsistent(5));
    // Version bumped exactly once.
    EXPECT_EQ(bank.checking().hostRecord(5)->version, 2u);
    // Lock released.
    EXPECT_EQ(bank.checking().hostRecord(5)->lock, 0u);
}

TEST_F(DtxFixture, SendPaymentMovesMoney)
{
    build(presets::full(), 1);
    SmallBank bank(*sys, 100);
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txSendPayment(ctx, 1, 2, 500, res);
        EXPECT_TRUE(res.committed);
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(1)),
              SmallBank::kInitialBalance - 500);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(2)),
              SmallBank::kInitialBalance + 500);
}

TEST_F(DtxFixture, MoneyConservedUnderConcurrentPayments)
{
    build(presets::full(), 8);
    SmallBank bank(*sys, 50); // few accounts: plenty of conflicts
    std::int64_t before = bank.hostTotal();
    int done = 0;
    std::uint32_t total_aborts = 0;
    for (std::uint32_t t = 0; t < 8; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            sim::Rng rng(t + 1);
            for (int i = 0; i < 30; ++i) {
                DtxResult res;
                std::uint64_t a = rng.uniform(50);
                std::uint64_t b = rng.uniform(50);
                co_await bank.txSendPayment(ctx, a, b, 7, res);
                EXPECT_TRUE(res.committed);
                total_aborts += res.aborts;
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(done, 8);
    EXPECT_EQ(bank.hostTotal(), before);
    for (std::uint64_t a = 0; a < 50; ++a)
        EXPECT_TRUE(bank.replicasConsistent(a)) << a;
}

TEST_F(DtxFixture, AmalgamateKeepsTotalAndZeroesSource)
{
    build(presets::full(), 1);
    SmallBank bank(*sys, 100);
    std::int64_t before = bank.hostTotal();
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txAmalgamate(ctx, 3, 4, res);
        EXPECT_TRUE(res.committed);
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(bank.hostTotal(), before);
    EXPECT_EQ(recordBalance(*bank.savings().hostRecord(3)), 0);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(3)), 0);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(4)),
              3 * SmallBank::kInitialBalance);
}

TEST_F(DtxFixture, ConflictsCauseAbortsButEventualCommit)
{
    build(presets::full(), 8);
    SmallBank bank(*sys, 2); // two accounts: extreme contention
    std::uint32_t total_aborts = 0;
    int done = 0;
    for (std::uint32_t t = 0; t < 8; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            for (int i = 0; i < 10; ++i) {
                DtxResult res;
                co_await bank.txSendPayment(ctx, 0, 1, 1, res);
                EXPECT_TRUE(res.committed);
                total_aborts += res.aborts;
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(done, 8);
    EXPECT_GT(total_aborts, 0u);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(0)),
              SmallBank::kInitialBalance - 80);
}

TEST_F(DtxFixture, ReadOnlyBalanceSeesConsistentSnapshots)
{
    build(presets::full(), 4);
    SmallBank bank(*sys, 4);
    bool stop = false;
    std::uint64_t balances_checked = 0;
    // Writers move money between savings and checking of account 0 in a
    // conserving way; readers must never observe a torn total.
    for (std::uint32_t t = 0; t < 2; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            sim::Rng rng(t + 77);
            while (!stop) {
                DtxResult res;
                // amalgamate(0 -> 1) then payment back keeps totals.
                co_await bank.txSendPayment(ctx, 0, 1, 3, res);
            }
        });
    }
    tb->compute(0).spawnWorker(2, [&](SmartCtx &ctx) -> Task {
        for (int i = 0; i < 50; ++i) {
            DtxResult res;
            co_await bank.txBalance(ctx, 0, res);
            EXPECT_TRUE(res.committed);
            ++balances_checked;
        }
        stop = true;
    });
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(balances_checked, 50u);
}

TEST_F(DtxFixture, TatpMixRunsAndKeepsReplicas)
{
    build(presets::full(), 4);
    Tatp tatp(*sys, 256);
    int done = 0;
    for (std::uint32_t t = 0; t < 4; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            sim::Rng rng(t + 5);
            for (int i = 0; i < 50; ++i) {
                DtxResult res;
                co_await tatp.runOne(ctx, rng, res);
                EXPECT_TRUE(res.committed);
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(done, 4);
    for (std::uint64_t s = 0; s < 256; ++s)
        EXPECT_TRUE(tatp.replicasConsistent(s)) << s;
}

TEST_F(DtxFixture, BaselineConfigCommitsToo)
{
    build(presets::baseline(), 2);
    SmallBank bank(*sys, 16);
    int done = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txWriteCheck(ctx, 3, 100, res);
        EXPECT_TRUE(res.committed);
        ++done;
    });
    tb->sim().runUntil(sim::msec(100));
    EXPECT_EQ(done, 1);
}

TEST_F(DtxFixture, UncontendedWrsPerSmallBankProfile)
{
    // fetch R+W, lock W, validate R+W, log one WRITE per replica, commit
    // 2W: Balance 4, DepositChecking 7, TransactSaving 7, Amalgamate 17,
    // WriteCheck 9, SendPayment 12.
    build(presets::full(), 1);
    SmallBank bank(*sys, 100);
    std::vector<DtxResult> res(6);
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        co_await bank.txBalance(ctx, 1, res[0]);
        co_await bank.txDepositChecking(ctx, 2, 10, res[1]);
        co_await bank.txTransactSaving(ctx, 3, 10, res[2]);
        co_await bank.txAmalgamate(ctx, 4, 5, res[3]);
        co_await bank.txWriteCheck(ctx, 6, 10, res[4]);
        co_await bank.txSendPayment(ctx, 7, 8, 10, res[5]);
    });
    tb->sim().runUntil(sim::msec(50));
    const std::uint32_t expected[6] = {4, 7, 7, 17, 9, 12};
    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(res[i].committed) << i;
        EXPECT_EQ(res[i].aborts, 0u) << i;
        EXPECT_EQ(res[i].rdmaOps, expected[i]) << i;
    }
}

TEST_F(DtxFixture, AmalgamateLogsConsecutiveEntriesOnBothReplicas)
{
    build(presets::full(), 1);
    SmallBank bank(*sys, 100);
    bool committed = false;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txAmalgamate(ctx, 3, 4, res);
        committed = res.committed;
    });
    tb->sim().runUntil(sim::msec(50));
    ASSERT_TRUE(committed);

    // The only transaction so far: its three entries are the only ones.
    std::vector<std::uint8_t> rings[2] = {logRings(0), logRings(1)};
    EXPECT_EQ(rings[0], rings[1]);
    std::vector<std::size_t> at;
    for (std::size_t off = 0; off + sizeof(LogEntry) <= rings[0].size();
         off += sizeof(LogEntry)) {
        LogEntry e;
        std::memcpy(&e, rings[0].data() + off, sizeof(LogEntry));
        if (e.txid != 0)
            at.push_back(off);
    }
    ASSERT_EQ(at.size(), 3u);
    const struct
    {
        DtxTable &table;
        std::uint64_t key;
    } parts[3] = {{bank.savings(), 3}, {bank.checking(), 3},
                  {bank.checking(), 4}};
    LogEntry first;
    std::memcpy(&first, rings[0].data() + at[0], sizeof(LogEntry));
    for (std::uint32_t i = 0; i < 3; ++i) {
        EXPECT_EQ(at[i], at[0] + i * sizeof(LogEntry));
        LogEntry e;
        std::memcpy(&e, rings[0].data() + at[i], sizeof(LogEntry));
        EXPECT_EQ(e.txid, first.txid);
        EXPECT_EQ(e.part, i);
        EXPECT_EQ(e.nparts, 3u);
        EXPECT_EQ(e.tableId, parts[i].table.id());
        EXPECT_EQ(e.key, parts[i].key);
        EXPECT_EQ(std::memcmp(&e.img, parts[i].table.hostRecord(e.key),
                              sizeof(Record)),
                  0)
            << i;
    }
}

namespace {

/** Run a short SmallBank mix on a fresh testbed; return its log rings. */
std::vector<std::uint8_t>
smallBankLogImage()
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 4;
    cfg.bladeBytes = 512ull << 20;
    cfg.smart = presets::full();
    cfg.smart.corosPerThread = 2;
    Testbed tb(cfg);
    std::vector<memblade::MemoryBlade *> blades = {&tb.memBlade(0),
                                                   &tb.memBlade(1)};
    DtxSystem sys(blades, 4);
    SmallBank bank(sys, 64);
    for (std::uint32_t t = 0; t < 4; ++t) {
        for (std::uint32_t k = 0; k < 2; ++k) {
            tb.compute(0).spawnWorker(t, [&, t, k](SmartCtx &ctx) -> Task {
                sim::Rng rng(t * 2 + k + 1);
                sim::ZipfianGenerator accounts(64, 0.5, t * 2 + k + 9);
                for (int i = 0; i < 40; ++i) {
                    DtxResult res;
                    co_await bank.runOne(ctx, rng, accounts, res);
                }
            });
        }
    }
    tb.sim().runUntil(sim::msec(20));
    std::vector<std::uint8_t> image;
    for (std::uint32_t b = 0; b < 2; ++b) {
        const std::uint8_t *base = tb.memBlade(b).bytesAt(sys.logOffset(b, 0));
        image.insert(image.end(), base, base + 4 * DtxSystem::kLogRingBytes);
    }
    return image;
}

} // namespace

TEST(DtxLog, IdenticalRunsInOneProcessLeaveIdenticalLogRings)
{
    // txids and log slots come from each coroutine's own sequence, not
    // from how many transactions ran earlier in the process.
    std::vector<std::uint8_t> first = smallBankLogImage();
    std::vector<std::uint8_t> second = smallBankLogImage();
    EXPECT_NE(std::count(first.begin(), first.end(), 0),
              static_cast<std::ptrdiff_t>(first.size()));
    EXPECT_TRUE(first == second);
}
