/**
 * @file
 * Open-loop knee curves: latency vs offered load for the hash-table and
 * B+Tree apps under multi-tenant arrival processes (DESIGN §13).
 *
 * For each app the bench first measures closed-loop capacity at the same
 * testbed shape, then sweeps offered load from 0.2x to 1.4x of it with
 * three tenants (web: Poisson / read-heavy / weight 2, batch: diurnal /
 * write-heavy, burst: spiky / insert-heavy), reporting the
 * p50/p99/p999-vs-offered-load curve, the knee (first point where p99
 * exceeds 3x its low-load value), and the overload point where requests
 * are shed or the per-blade degradation ladder engages.
 *
 * --churn adds an arm that runs a partitioned raw workload behind the
 * same driver at 0.9x capacity and drains + rejoins a memory blade
 * mid-measure through the MembershipPlane (fenced ops retried, never
 * surfaced as failed).
 *
 * Gates (exit 1 on violation):
 *  - per app, p99 is monotonically non-decreasing (5% tolerance) up to
 *    the knee;
 *  - the 1.4x point sheds load or engages the degradation ladder;
 *  - with --churn, zero ops surface as failed across the membership
 *    events.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/race/race.hpp"
#include "apps/sherman/btree.hpp"
#include "harness/bench_cli.hpp"
#include "harness/ht_bench.hpp"
#include "harness/open_loop.hpp"
#include "harness/testbed.hpp"
#include "smart/membership.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;
using sim::Time;

namespace {

struct Shape
{
    std::uint32_t threads = 8;
    std::uint32_t coros = 4;
    std::uint64_t numKeys = 100'000;
    Time warmupNs = sim::msec(2);
    Time measureNs = sim::msec(6);
};

/** One app instance on its own testbed, exposed as a ServiceFn. */
struct Rig
{
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<race::RaceTable> ht;
    std::unique_ptr<race::RaceClient> htClient;
    std::unique_ptr<sherman::BtreeIndex> bt;
    std::unique_ptr<sherman::BtreeClient> btClient;
    ServiceFn service;
};

Rig
makeRig(const std::string &app, const Shape &sh, BenchCli &cli,
        RunCapture *cap)
{
    Rig rig;
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = sh.threads;
    cfg.bladeBytes = app == "bt" ? (2ull << 30) : (1ull << 30);
    cfg.smart = presets::full();
    cfg.smart.withBenchTimescale();
    cfg.smart.withOverloadWatermarks(48, 96);
    cli.configureCache(cfg.smart);
    cfg.smart.corosPerThread = sh.coros;
    if (cap != nullptr) {
        cli.configureSpans(cfg);
        cli.configureTimeline(cfg);
    }
    configureCapture(cfg, cap);
    rig.tb = std::make_unique<Testbed>(cfg);
    Testbed &tb = *rig.tb;

    std::vector<memblade::MemoryBlade *> blades;
    for (std::uint32_t i = 0; i < tb.numMemBlades(); ++i)
        blades.push_back(&tb.memBlade(i));

    SmartRuntime *rt = &tb.compute(0);
    if (app == "ht") {
        rig.ht = std::make_unique<race::RaceTable>(
            blades, sizedRaceConfig(sh.numKeys));
        for (std::uint64_t k = 0; k < sh.numKeys; ++k)
            rig.ht->loadInsert(k, k);
        rig.htClient = std::make_unique<race::RaceClient>(*rig.ht, *rt);
        race::RaceClient *cl = rig.htClient.get();
        rig.service = [cl, rt](SmartCtx &ctx,
                               const workload::YcsbRequest &req,
                               std::uint32_t &retries) -> Task {
            Time start = ctx.sim().now();
            race::OpResult res;
            if (req.op == workload::YcsbOp::Lookup)
                co_await cl->lookup(ctx, req.key, res);
            else
                co_await cl->update(ctx, req.key, req.key ^ 0x5eedull, res);
            ctx.runtime().recordOp(ctx.sim().now() - start, res.retries);
            retries = res.retries;
        };
    } else {
        sherman::BtreeConfig bcfg;
        bcfg.speculativeLookup = true;
        rig.bt = std::make_unique<sherman::BtreeIndex>(blades, bcfg);
        rig.bt->loadSequential(sh.numKeys, 0x5a5aull);
        rig.btClient = std::make_unique<sherman::BtreeClient>(*rig.bt, *rt);
        sherman::BtreeClient *cl = rig.btClient.get();
        rig.service = [cl, rt](SmartCtx &ctx,
                               const workload::YcsbRequest &req,
                               std::uint32_t &retries) -> Task {
            Time start = ctx.sim().now();
            sherman::BtOpResult res;
            if (req.op == workload::YcsbOp::Lookup)
                co_await cl->lookup(ctx, req.key, res);
            else
                co_await cl->insert(ctx, req.key, req.key ^ 0x5eedull, res);
            ctx.runtime().recordOp(ctx.sim().now() - start, res.retries);
            retries = res.retries;
        };
    }
    return rig;
}

/** The three-tenant fleet at an aggregate offered rate (req/us). */
std::vector<TenantConfig>
makeTenants(double total_rate_per_us, Time slo_base_ns)
{
    TenantConfig web;
    web.name = "web";
    web.weight = 2.0;
    web.mix = workload::YcsbMix::readHeavy();
    web.arrival.kind = ArrivalKind::Poisson;
    web.arrival.ratePerUs = 0.5 * total_rate_per_us;
    web.sloP99Ns = 4 * slo_base_ns;
    web.sessions = 8;

    TenantConfig batch;
    batch.name = "batch";
    batch.weight = 1.0;
    batch.mix = workload::YcsbMix::writeHeavy();
    batch.arrival.kind = ArrivalKind::Diurnal;
    batch.arrival.diurnalAmp = 0.6;
    batch.arrival.diurnalPeriodNs = sim::msec(2);
    batch.arrival.ratePerUs = 0.3 * total_rate_per_us;
    batch.sloP99Ns = 8 * slo_base_ns;
    batch.sessions = 4;

    TenantConfig burst;
    burst.name = "burst";
    burst.weight = 1.0;
    burst.mix = workload::YcsbMix::insertHeavy();
    burst.arrival.kind = ArrivalKind::Spike;
    burst.arrival.spikeFactor = 6.0;
    burst.arrival.spikePeriodNs = sim::usec(500);
    burst.arrival.spikeLenNs = sim::usec(50);
    // Duty cycle 0.1 -> mean = 1.5x base; budget the *mean* to the share.
    burst.arrival.ratePerUs = 0.2 * total_rate_per_us / 1.5;
    burst.sloP99Ns = 8 * slo_base_ns;
    burst.sessions = 4;

    return {web, batch, burst};
}

/** Closed-loop capacity worker: always one request in flight. */
Task
closedWorker(SmartCtx &ctx, ServiceFn &svc, workload::YcsbGenerator gen)
{
    for (;;) {
        workload::YcsbRequest req = gen.next();
        std::uint32_t retries = 0;
        co_await svc(ctx, req, retries);
    }
}

/** Closed-loop capacity (ops/us) and service p99 at the same shape. */
void
measureCapacity(const std::string &app, const Shape &sh, BenchCli &cli,
                double &mops, Time &p99_ns)
{
    Rig rig = makeRig(app, sh, cli, nullptr);
    Testbed &tb = *rig.tb;
    SmartRuntime &rt = tb.compute(0);
    const workload::YcsbMix mixes[3] = {workload::YcsbMix::readHeavy(),
                                        workload::YcsbMix::writeHeavy(),
                                        workload::YcsbMix::insertHeavy()};
    double zetan = sim::ZipfianGenerator::zeta(sh.numKeys, 0.99);
    for (std::uint32_t t = 0; t < sh.threads; ++t) {
        for (std::uint32_t k = 0; k < sh.coros; ++k) {
            std::uint64_t seed = 0xca9ac1 + t * 971ull + k * 13ull +
                                 cli.seed() * 0x9e3779b97f4a7c15ull;
            workload::YcsbGenerator gen(sh.numKeys, 0.99,
                                        mixes[(t + k) % 3], seed, zetan);
            rt.spawnWorker(t, [&rig, gen](SmartCtx &ctx) {
                return closedWorker(ctx, rig.service, gen);
            });
        }
    }
    tb.runUntil(sh.warmupNs);
    std::uint64_t ops0 = rt.appOps.value();
    rt.opLatency.reset();
    tb.runUntil(sh.warmupNs + sh.measureNs);
    std::uint64_t ops = rt.appOps.value() - ops0;
    mops = static_cast<double>(ops) /
           (static_cast<double>(sh.measureNs) / 1000.0);
    p99_ns = rt.opLatency.p99();
}

/** One measured sweep point. */
struct PointResult
{
    double offeredX = 0;      ///< nominal fraction of capacity
    double offeredMops = 0;   ///< measured arrivals per us
    double completedMops = 0; ///< measured completions per us
    std::uint64_t p50 = 0, p99 = 0, p999 = 0; ///< end-to-end, merged
    std::uint64_t queueP99 = 0;               ///< admission wait, merged
    std::uint64_t rejected = 0;
    double violMax = 0;        ///< worst tenant violation fraction
    std::uint64_t ladder = 0;  ///< degradation engagements in window
    sim::Json slo;
};

PointResult
runPoint(const std::string &app, const Shape &sh, double frac,
         double capacity_mops, Time slo_base, BenchCli &cli)
{
    char label[32];
    std::snprintf(label, sizeof label, "%s/%.1fx", app.c_str(), frac);
    RunCapture *cap = cli.nextCapture(label);
    Rig rig = makeRig(app, sh, cli, cap);
    Testbed &tb = *rig.tb;
    SmartRuntime &rt = tb.compute(0);

    OpenLoopConfig ocfg;
    ocfg.tenants = makeTenants(frac * capacity_mops, slo_base);
    ocfg.numKeys = sh.numKeys;
    ocfg.queueCap = 512;
    ocfg.seed = cli.seed();
    OpenLoopDriver driver(tb, ocfg, rig.service);
    driver.start(sh.coros);

    tb.runUntil(sh.warmupNs);
    driver.resetWindow();
    rt.opLatency.reset();
    std::uint64_t ladder0 = rt.chunkedPostCount() + rt.opDelayCount();
    tb.runUntil(sh.warmupNs + sh.measureNs);

    PointResult r;
    r.offeredX = frac;
    sim::LatencyHistogram e2e, qwait;
    std::uint64_t offered = 0, completed = 0;
    for (std::size_t i = 0; i < driver.numTenants(); ++i) {
        const OpenLoopDriver::TenantStats &s = driver.stats(i);
        offered += s.offered.value();
        completed += s.completed.value();
        r.rejected += s.rejected.value();
        e2e.merge(s.latency);
        qwait.merge(s.queueWait);
        if (s.completed.value() != 0) {
            double vf = static_cast<double>(s.sloViolations.value()) /
                        static_cast<double>(s.completed.value());
            r.violMax = std::max(r.violMax, vf);
        }
    }
    double us = static_cast<double>(sh.measureNs) / 1000.0;
    r.offeredMops = static_cast<double>(offered) / us;
    r.completedMops = static_cast<double>(completed) / us;
    r.p50 = e2e.p50();
    r.p99 = e2e.p99();
    r.p999 = e2e.p999();
    r.queueP99 = qwait.p99();
    r.ladder = rt.chunkedPostCount() + rt.opDelayCount() - ladder0;
    r.slo = driver.sloJson();
    captureRun(tb, cap);
    return r;
}

// ------------------------------------------------------------ churn arm

/** Raw partitioned service resolving placement through the plane. */
ServiceFn
churnService(MembershipPlane &plane, std::uint64_t *failed_ops)
{
    return [&plane, failed_ops](SmartCtx &ctx,
                                const workload::YcsbRequest &req,
                                std::uint32_t &retries) -> Task {
        SmartRuntime &rt = ctx.runtime();
        const std::uint64_t slots = plane.config().partBytes / 64;
        std::uint32_t part = static_cast<std::uint32_t>(
            req.key % plane.numPartitions());
        std::uint64_t off = (req.key / plane.numPartitions()) % slots * 64;
        bool is_write = req.op != workload::YcsbOp::Lookup;
        std::uint8_t *buf = ctx.scratch(64);
        Time start = ctx.sim().now();
        co_await ctx.opBegin();
        bool done = false;
        for (int attempt = 0; attempt < 256 && !done; ++attempt) {
            while (plane.migrating(part))
                co_await ctx.sim().delay(sim::cyclesToNs(8192));
            std::uint32_t blade = plane.bladeOf(part);
            if (blade == MembershipPlane::kNoBlade) {
                co_await ctx.sim().delay(sim::cyclesToNs(8192));
                continue;
            }
            RemotePtr p = rt.ptr(blade, plane.partitionOffset(part) + off);
            if (is_write)
                co_await ctx.access(p,
                                    AccessOp::write(ConstMemSpan{buf, 64}));
            else
                co_await ctx.access(p, AccessOp::read(MemSpan{buf, 64}));
            if (!ctx.failed()) {
                done = true;
                break;
            }
            ++retries;
            ctx.clearError();
        }
        ctx.opEnd();
        if (done)
            rt.recordOp(ctx.sim().now() - start, 0);
        else
            ++*failed_ops;
    };
}

/** Closed-loop capacity (ops/us) of the raw partitioned service on the
 *  churn shape, with a quiescent membership plane. */
double
measureChurnCapacity(const Shape &sh, BenchCli &cli)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 3;
    cfg.threadsPerBlade = sh.threads;
    cfg.bladeBytes = 8ull << 20;
    cfg.smart = presets::full();
    cfg.smart.withBenchTimescale();
    cfg.smart.withOverloadWatermarks(48, 96);
    cli.configureCache(cfg.smart);
    cfg.smart.corosPerThread = sh.coros + 1;
    Testbed tb(cfg);
    SmartRuntime &rt = tb.compute(0);

    MembershipPlane::Config pc;
    pc.partitions = 24;
    pc.partBytes = 128ull << 10;
    pc.settleNs = sim::usec(100);
    pc.healthCheckNs = sim::usec(200);
    MembershipPlane plane(tb.sim(), pc, "olprobe");
    plane.addRuntime(rt);
    for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m)
        plane.addBlade(tb.memBlade(m));
    plane.seedPartitions();

    std::uint64_t failed_ops = 0;
    ServiceFn svc = churnService(plane, &failed_ops);
    workload::YcsbMix mix{0.75, 0.25, 0.0};
    for (std::uint32_t t = 0; t < sh.threads; ++t) {
        for (std::uint32_t k = 0; k < sh.coros; ++k) {
            std::uint64_t seed = 0xc4a9 + t * 971ull + k * 13ull +
                                 cli.seed() * 0x9e3779b97f4a7c15ull;
            workload::YcsbGenerator gen(sh.numKeys, 0.0, mix, seed);
            rt.spawnWorker(t, [&svc, gen](SmartCtx &ctx) {
                return closedWorker(ctx, svc, gen);
            });
        }
    }
    const Time warm = sim::msec(1);
    const Time measure = sim::msec(2);
    tb.sim().runUntil(warm);
    std::uint64_t ops0 = rt.appOps.value();
    tb.sim().runUntil(warm + measure);
    std::uint64_t ops = rt.appOps.value() - ops0;
    return static_cast<double>(ops) /
           (static_cast<double>(measure) / 1000.0);
}

} // namespace

int
main(int argc, char **argv)
{
    // --churn is this bench's own flag; strip it before BenchCli (which
    // exits on flags it does not know).
    bool churn = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--churn")
            churn = true;
        else
            args.push_back(argv[i]);
    }
    BenchCli cli(static_cast<int>(args.size()), args.data(), "open_loop");
    bool quick = cli.quick();

    Shape sh;
    sh.threads = quick ? 4 : 8;
    sh.coros = 4;
    sh.numKeys = quick ? 20'000 : 100'000;
    sh.warmupNs = sim::msec(2);
    sh.measureNs = quick ? sim::msec(3) : sim::msec(6);

    std::vector<double> fracs =
        quick ? std::vector<double>{0.2, 0.6, 1.0, 1.2, 1.4}
              : std::vector<double>{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4};

    sim::Json slo = sim::Json::object();
    bool bad = false;

    sim::Table knee_table(
        {"app", "capacity_mops", "closed_p99_ns", "knee_x", "overload_x"});

    for (const std::string &app : {std::string("ht"), std::string("bt")}) {
        double capacity = 0;
        Time closed_p99 = 0;
        measureCapacity(app, sh, cli, capacity, closed_p99);
        std::cout << "== open_loop " << app << ": closed-loop capacity "
                  << capacity << " mops, service p99 " << closed_p99
                  << " ns ==\n";

        std::vector<PointResult> pts;
        for (double f : fracs)
            pts.push_back(runPoint(app, sh, f, capacity, closed_p99, cli));

        sim::Table t({"offered_x", "offered_mops", "completed_mops",
                      "p50_ns", "p99_ns", "p999_ns", "queue_wait_p99_ns",
                      "rejected", "slo_viol_max", "ladder"});
        for (const PointResult &p : pts) {
            t.row()
                .cell(p.offeredX, 1)
                .cell(p.offeredMops, 3)
                .cell(p.completedMops, 3)
                .cell(p.p50)
                .cell(p.p99)
                .cell(p.p999)
                .cell(p.queueP99)
                .cell(p.rejected)
                .cell(p.violMax, 4)
                .cell(p.ladder);
        }
        cli.addTable("open_loop_" + app, t);

        // Knee: first point whose p99 exceeds 3x the low-load p99.
        // Overload: first point that sheds or engages the ladder.
        double knee_x = fracs.back();
        for (const PointResult &p : pts) {
            if (p.p99 > 3 * pts.front().p99) {
                knee_x = p.offeredX;
                break;
            }
        }
        double overload_x = 0;
        for (const PointResult &p : pts) {
            if (p.rejected > 0 || p.ladder > 0) {
                overload_x = p.offeredX;
                break;
            }
        }
        knee_table.row()
            .cell(app)
            .cell(capacity, 3)
            .cell(static_cast<std::uint64_t>(closed_p99))
            .cell(knee_x, 1)
            .cell(overload_x, 1);

        // Gate: p99 monotonically non-decreasing (5% tolerance) up to
        // the knee.
        for (std::size_t i = 1; i < pts.size(); ++i) {
            if (pts[i].offeredX > knee_x)
                break;
            if (static_cast<double>(pts[i].p99) <
                0.95 * static_cast<double>(pts[i - 1].p99)) {
                std::cerr << "open_loop: " << app << " p99 dips at "
                          << pts[i].offeredX << "x (" << pts[i].p99
                          << " < " << pts[i - 1].p99 << ")\n";
                bad = true;
            }
        }
        // Gate: the 1.4x point visibly overloads.
        const PointResult &top = pts.back();
        if (top.rejected == 0 && top.ladder == 0) {
            std::cerr << "open_loop: " << app
                      << " 1.4x point neither sheds nor engages the "
                         "degradation ladder\n";
            bad = true;
        }

        for (std::size_t i = 0; i < fracs.size(); ++i) {
            char key[32];
            std::snprintf(key, sizeof key, "%s/%.1fx", app.c_str(),
                          fracs[i]);
            slo.set(key, pts[i].slo);
        }
    }
    cli.addTable("open_loop_knee", knee_table);

    // ---------------------------------------------------------- churn
    if (churn) {
        const std::uint32_t partitions = 24;
        TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 3;
        cfg.threadsPerBlade = sh.threads;
        cfg.bladeBytes = 8ull << 20;
        cfg.smart = presets::full();
        cfg.smart.withBenchTimescale();
        cfg.smart.withOverloadWatermarks(48, 96);
        cli.configureCache(cfg.smart);
        // +1 slot on thread 0 for the plane's migration worker.
        cfg.smart.corosPerThread = sh.coros + 1;
        RunCapture *cap = cli.nextCapture("churn/0.9x");
        if (cap != nullptr) {
            cli.configureSpans(cfg);
            cli.configureTimeline(cfg);
        }
        configureCapture(cfg, cap);
        Testbed tb(cfg);
        SmartRuntime &rt = tb.compute(0);

        MembershipPlane::Config pc;
        pc.partitions = partitions;
        pc.partBytes = 128ull << 10;
        pc.settleNs = sim::usec(100);
        pc.healthCheckNs = sim::usec(200);
        MembershipPlane plane(tb.sim(), pc, "olchurn");
        plane.addRuntime(rt);
        for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m)
            plane.addBlade(tb.memBlade(m));
        plane.seedPartitions();
        plane.startHealthMonitor();

        std::uint64_t failed_ops = 0;
        ServiceFn svc = churnService(plane, &failed_ops);

        double est_capacity = measureChurnCapacity(sh, cli);
        std::cout << "== open_loop churn: raw closed-loop capacity "
                  << est_capacity << " mops ==\n";

        OpenLoopConfig ocfg;
        workload::YcsbMix churn_mix{0.75, 0.25, 0.0};
        TenantConfig raw;
        raw.name = "raw";
        raw.weight = 1.0;
        raw.mix = churn_mix;
        raw.zipfTheta = 0.0; // uniform over the partition space
        raw.arrival.kind = ArrivalKind::Poisson;
        raw.arrival.ratePerUs = 0.9 * est_capacity;
        raw.sloP99Ns = 0;
        raw.sessions = 8;
        ocfg.tenants = {raw};
        ocfg.numKeys = sh.numKeys;
        ocfg.queueCap = 2048;
        ocfg.seed = cli.seed();
        OpenLoopDriver driver(tb, ocfg, svc);
        driver.start(sh.coros);

        const Time warm = sim::msec(2);
        const Time drain_at = warm + sim::msec(2);
        const Time rejoin_at = warm + sim::msec(5);
        const Time end = warm + sim::msec(8);
        // Drive the drain/rejoin cycle through the fault plane's churn
        // target: same virtual times as scheduling plane.drain/rejoin
        // directly, but the event is now a first-class injected fault
        // (counted, recorded, and annotated on the time series).
        plane.enableChurnTargets();
        tb.faultPlane().oneShot(drain_at, sim::FaultKind::Crash,
                                "drain.mb2", rejoin_at - drain_at);

        tb.runUntil(warm);
        driver.resetWindow();

        struct Phase
        {
            const char *name;
            Time a, b;
        };
        std::vector<Phase> phases = {{"pre", warm, drain_at},
                                     {"drain", drain_at, rejoin_at},
                                     {"rejoin", rejoin_at, end}};
        sim::Table ct({"phase", "completed_kops", "p99_ns", "rejected"});
        for (const Phase &ph : phases) {
            driver.resetWindow();
            tb.runUntil(ph.b);
            const OpenLoopDriver::TenantStats &s = driver.stats(0);
            double kops = static_cast<double>(s.completed.value()) /
                          (static_cast<double>(ph.b - ph.a) / 1e6);
            ct.row()
                .cell(std::string(ph.name))
                .cell(kops, 1)
                .cell(s.latency.p99())
                .cell(s.rejected.value());
        }
        cli.addTable("open_loop_churn", ct);
        captureRun(tb, cap);

        if (failed_ops != 0) {
            std::cerr << "open_loop: churn surfaced " << failed_ops
                      << " failed ops (want 0)\n";
            bad = true;
        }
    }

    cli.setSlo(slo);
    cli.note("Expected shape: flat p50/p99 below the knee, sharp p99 "
             "rise past it, shedding + degradation ladder at 1.2-1.4x; "
             "weighted-fair admission keeps web p99 bounded while burst "
             "spikes absorb their own queue.");

    if (bad)
        return 1;
    return cli.finish();
}
