/**
 * @file
 * The repo benchmark program: runs one closed-loop workload over the
 * simulated cluster (one host thread, one shard), times each host phase
 * separately, checks the applications' outputs and prints every metric
 * with its unit. perfbench/run.py builds and invokes it; see
 * perfbench/README.md for the metrics and what each one should move.
 *
 * One run = repetitions of (SMART arm, baseline arm), cycling over the
 * workload's sub-seeds (derived from --seed) until the host-time budget
 * is spent. The first repetition of each sub-seed supplies the simulated
 * metrics; later ones must reproduce its measure-window digest exactly
 * and add host-time samples, which are reported as medians. With
 * --trace 1 one more SMART arm runs with span sampling on; it must do
 * the same simulated work as the untraced arm.
 */

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "apps/ford/dtx.hpp"
#include "apps/ford/smallbank.hpp"
#include "apps/race/race.hpp"
#include "apps/sherman/btree.hpp"
#include "harness/ht_bench.hpp"
#include "harness/testbed.hpp"
#include "sim/event_queue.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/span.hpp"
#include "smart/smart_config.hpp"
#include "smart/smart_ctx.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace smart;
using harness::Testbed;
using harness::TestbedConfig;
using sim::Task;
using sim::Time;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Keeps hostProbe()'s work from being optimised away. */
volatile std::uint64_t probeSink = 0;

/**
 * A fixed piece of host work that leans on the memory system the way
 * set-up does: page faults on fresh memory, node allocation with hashing,
 * and heap sifts. It uses no simulator code, so a change to the program
 * cannot change its time. On a shared host, set-up time follows the
 * host's memory-system speed, which changes within seconds; set-up
 * samples are scaled by this probe, timed just before each one.
 */
void
hostProbe()
{
    std::uint64_t sink = 0;
    constexpr std::size_t kMapBytes = 8u << 20; // small: leaves peak RSS
    for (int i = 0; i < 4; ++i) {
        void *m = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (m == MAP_FAILED)
            continue;
        auto *bytes = static_cast<volatile char *>(m);
        for (std::size_t off = 0; off < kMapBytes; off += 4096)
            bytes[off] = 1;
        munmap(m, kMapBytes);
    }
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 100'000; ++i)
        map[i * 0x9e3779b97f4a7c15ull] = i;
    sink += map.size();
    std::priority_queue<std::uint64_t> heap;
    std::uint64_t x = 7;
    for (int i = 0; i < 300'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        heap.push(x >> 20);
        if (heap.size() > 1000)
            heap.pop();
    }
    sink += heap.top();
    probeSink = sink;
}

/**
 * Probe time the set-up metrics are scaled to: about the probe's time on
 * a shared 4-core x86 VM (2.0 GHz) in its faster periods.
 */
constexpr double kProbeRefS = 0.030;

// ---------------------------------------------------------------------
// Command line

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool quick = false;   ///< short virtual windows (self-test)
    std::string spansOut; ///< host-span trace file ("" = none)
    std::string runId = "0";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "smartbench: %s\n"
                 "usage: smartbench --workload "
                 "hash-write-skew|btree-read|dtx-smallbank --seed N\n"
                 "                  [--seconds S] [--trace 0|1] [--quick]\n"
                 "                  [--spans-out FILE] [--run-id ID]\n",
                 msg);
    std::exit(2);
}

/** Strict decimal parse: the whole string must be digits. */
std::uint64_t
parseUint(const std::string &flag, const char *s)
{
    if (*s == '\0')
        usage((flag + " needs a number").c_str());
    for (const char *p = s; *p != '\0'; ++p)
        if (*p < '0' || *p > '9')
            usage((flag + " must be a non-negative integer, got '" + s +
                   "'").c_str());
    errno = 0;
    unsigned long long v = std::strtoull(s, nullptr, 10);
    if (errno == ERANGE)
        usage((flag + " out of range").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseUint(a, value());
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseUint(a, value()));
        } else if (a == "--trace") {
            std::uint64_t t = parseUint(a, value());
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
        } else if (a == "--quick") {
            o.quick = true;
        } else if (a == "--spans-out") {
            o.spansOut = value();
        } else if (a == "--run-id") {
            o.runId = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!have_seed)
        usage("--seed is required");
    return o;
}

// ---------------------------------------------------------------------
// Host spans: the benchmark's own phases, kept in memory and written
// once at exit as Chrome trace events. All spans of one run share its id.

struct HostSpan
{
    std::string name;
    std::string arm;
    std::uint32_t rep = 0;
    double startUs = 0;
    double durUs = 0;
};

class HostSpans
{
  public:
    HostSpans() : origin_(Clock::now()) {}

    /** Time @p fn as span @p name of (@p arm, @p rep); @return seconds. */
    double
    time(const std::string &name, const std::string &arm, std::uint32_t rep,
         const std::function<void()> &fn)
    {
        Clock::time_point t0 = Clock::now();
        fn();
        Clock::time_point t1 = Clock::now();
        spans_.push_back(
            {name, arm, rep, usBetween(origin_, t0), usBetween(t0, t1)});
        return std::chrono::duration<double>(t1 - t0).count();
    }

    bool
    write(const std::string &path, const std::string &run_id,
          const std::string &workload) const
    {
        sim::Json events = sim::Json::array();
        for (const HostSpan &s : spans_) {
            sim::Json e = sim::Json::object();
            e.set("name", s.name);
            e.set("cat", s.arm);
            e.set("ph", "X");
            e.set("ts", s.startUs);
            e.set("dur", s.durUs);
            e.set("pid", 1);
            e.set("tid", static_cast<std::uint64_t>(s.rep));
            sim::Json args = sim::Json::object();
            args.set("run_id", run_id);
            args.set("workload", workload);
            args.set("arm", s.arm);
            args.set("rep", static_cast<std::uint64_t>(s.rep));
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
        sim::Json root = sim::Json::object();
        root.set("traceEvents", std::move(events));
        root.set("displayTimeUnit", "ms");
        std::ofstream f(path);
        f << root.dump(1) << "\n";
        return static_cast<bool>(f);
    }

  private:
    static double
    usBetween(Clock::time_point a, Clock::time_point b)
    {
        return std::chrono::duration<double, std::micro>(b - a).count();
    }

    Clock::time_point origin_;
    std::vector<HostSpan> spans_;
};

// ---------------------------------------------------------------------
// Workloads

enum class App { Race, Sherman, Ford };

/** One arm's virtual time: warm up, then measure. */
struct Window
{
    Time warmupNs;
    Time measureNs;
};

struct WorkloadSpec
{
    std::string name;
    App app;
    std::uint32_t memoryBlades;
    std::uint64_t bladeBytes;
    std::uint64_t keys;  ///< keys (RACE, Sherman) or accounts (FORD)
    double theta;
    Window smart;
    Window baseline;
    /** Measure-window slices, each timed on the host on its own. */
    std::uint32_t slices;
    /**
     * Independent workload seeds derived from --seed: more than one where
     * a single window's tail latency swings too much from seed to seed.
     * Counts and latency samples pool over them.
     */
    std::uint32_t subSeeds;
};

WorkloadSpec
workloadSpec(const std::string &name, bool quick)
{
    // Virtual windows. The warmup covers the credit controller's first
    // probe phase (bench timescale: 1 ms per candidate, 5 candidates).
    // On the hash workload SMART's conflict avoidance needs about 10 ms
    // more to settle, so its window starts at 14 ms and ends before the
    // next probe phase (at 25 ms). The baseline arm has no controller.
    const Window quick_win = {sim::msec(1), sim::usec(500)};
    if (name == "hash-write-skew")
        return {name, App::Race, 2, 3ull << 30, 200'000, 0.99,
                quick ? quick_win : Window{sim::msec(14), sim::msec(10)},
                quick ? quick_win : Window{sim::msec(6), sim::msec(10)},
                10, quick ? 2u : 10u};
    if (name == "btree-read")
        return {name, App::Sherman, 1, 2ull << 30, 200'000, 0.99,
                quick ? quick_win : Window{sim::msec(6), sim::msec(4)},
                quick ? quick_win : Window{sim::msec(6), sim::msec(4)}, 10,
                quick ? 1u : 4u};
    if (name == "dtx-smallbank")
        return {name, App::Ford, 2, 2ull << 30, 100'000, 0.2,
                quick ? quick_win : Window{sim::msec(6), sim::msec(2)},
                quick ? quick_win : Window{sim::msec(6), sim::msec(2)}, 10,
                quick ? 1u : 3u};
    usage(("unknown workload '" + name + "'").c_str());
}

constexpr std::uint32_t kThreads = 96;
constexpr std::uint32_t kCoros = 8;
constexpr std::uint64_t kBtValueMask = 0x5a5a;
/** Span sampling stride of the traced arm (every Nth op per coroutine). */
constexpr std::uint32_t kSpanEvery = 16;
/** Cap on repetitions per run, whatever the --seconds budget. */
constexpr std::uint32_t kMaxReps = 50;
/** Set-up time samples per run (extra set-up-only repetitions). */
constexpr std::size_t kSetupSamples = 7;

/**
 * What the FORD workers know of the money: one entry per account a
 * committed transaction changed, with the transaction's host-visible
 * interval. Amalgamate moves an amount the caller does not see, and
 * WriteCheck may charge a penalty of 1 it does not report; the check after
 * the arm bounds both from the intervals (see checkFordMoney).
 */
struct FordTouch
{
    enum Kind : std::uint8_t {
        Credit,     ///< + amount
        Debit,      ///< - amount
        WriteCheck, ///< - amount, and - 1 if the total was below amount
        Drain,      ///< Amalgamate source: the total goes to its target
        Fill,       ///< Amalgamate target: + the source's total
    };
    static constexpr Time kNever = ~Time{0};

    std::uint64_t account;
    Time start;
    Time end;
    Kind kind;
    std::int64_t amount;
    std::uint64_t peer = 0; ///< the other account of an Amalgamate
};

/** Bookkeeping shared by every worker coroutine of one arm. */
struct Workers
{
    bool stop = false;     ///< set after the measure window: drain
    bool measuring = false;
    std::uint32_t live = 0;
    // Whole-arm outcome counts (warmup, measure and drain).
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** RACE updates that exhausted the table's CAS retries (a starved
     *  update may end after the measure window). */
    std::uint64_t giveups = 0;
    std::vector<FordTouch> ledger;
    /** Lookups of a loaded key that missed or read a wrong value. */
    std::uint64_t badLookups = 0;
    // Measure-window samples.
    std::vector<std::uint64_t> latencies;
    std::uint64_t verbs = 0;
    std::uint64_t specHits = 0;
    std::uint64_t lookups = 0;
    std::uint64_t aborts = 0;
    /** Failed ops in the measure window (not counted as throughput). */
    std::uint64_t windowFailed = 0;

    void
    finish(SmartRuntime &rt, Time latency, bool ok, std::uint32_t retries,
           std::uint32_t verbs_used)
    {
        rt.recordOp(latency, retries);
        ++attempted;
        if (!ok)
            ++failed;
        if (measuring) {
            windowFailed += ok ? 0 : 1;
            latencies.push_back(latency);
            verbs += verbs_used;
        }
    }
};

Task
raceWorker(SmartCtx &ctx, race::RaceClient &client, Workers &w,
           const WorkloadSpec &spec, std::uint64_t seed, double zetan)
{
    SmartRuntime &rt = ctx.runtime();
    workload::YcsbGenerator gen(spec.keys, spec.theta,
                                workload::YcsbMix::writeHeavy(), seed, zetan);
    std::uint64_t value_seq = seed;
    ++w.live;
    while (!w.stop) {
        workload::YcsbRequest req = gen.next();
        Time start = ctx.sim().now();
        race::OpResult res;
        if (req.op == workload::YcsbOp::Lookup) {
            co_await client.lookup(ctx, req.key, res);
            w.badLookups += res.ok ? 0 : 1;
            w.finish(rt, ctx.sim().now() - start, res.ok, res.retries,
                     res.rdmaOps);
            continue;
        }
        // An update that used up RACE's CAS retry budget returns !ok and
        // has not taken effect: a failed op.
        co_await client.update(ctx, req.key, ++value_seq, res);
        w.giveups += res.ok ? 0 : 1;
        w.finish(rt, ctx.sim().now() - start, res.ok, res.retries,
                 res.rdmaOps);
    }
    --w.live;
}

Task
shermanWorker(SmartCtx &ctx, sherman::BtreeClient &client, Workers &w,
              const WorkloadSpec &spec, std::uint64_t seed, double zetan)
{
    SmartRuntime &rt = ctx.runtime();
    workload::YcsbGenerator gen(spec.keys, spec.theta,
                                workload::YcsbMix::readOnly(), seed, zetan);
    ++w.live;
    while (!w.stop) {
        workload::YcsbRequest req = gen.next();
        Time start = ctx.sim().now();
        sherman::BtOpResult res;
        co_await client.lookup(ctx, req.key, res);
        bool ok = res.ok && res.value == (req.key ^ kBtValueMask);
        w.badLookups += ok ? 0 : 1;
        w.finish(rt, ctx.sim().now() - start, ok, res.retries, res.rdmaOps);
        if (w.measuring) {
            ++w.lookups;
            w.specHits += res.specHit ? 1 : 0;
        }
    }
    --w.live;
}

/**
 * SmallBank with the transaction mix of ford::SmallBank::runOne (same
 * draws in the same order), calling each profile directly so the money
 * each committed transaction adds is known.
 */
Task
fordWorker(SmartCtx &ctx, ford::SmallBank &bank, Workers &w,
           const WorkloadSpec &spec, std::uint64_t seed, double zetan)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(seed);
    sim::ZipfianGenerator accounts(spec.keys, spec.theta, seed ^ 0xacc,
                                   zetan);
    ++w.live;
    while (!w.stop) {
        Time start = ctx.sim().now();
        ford::DtxResult res;
        co_await ctx.opBegin();
        std::uint64_t a = accounts.next();
        std::uint64_t b = accounts.next();
        double p = rng.uniformDouble();
        // Amalgamate and SendPayment redirect b the same way.
        const std::uint64_t b2 = a == b ? (b + 1) % spec.keys : b;
        std::vector<FordTouch> touches;
        if (p < 0.15) {
            co_await bank.txBalance(ctx, a, res);
        } else if (p < 0.30) {
            co_await bank.txDepositChecking(ctx, a, 130, res);
            touches = {{a, start, 0, FordTouch::Credit, 130}};
        } else if (p < 0.45) {
            co_await bank.txTransactSaving(ctx, a, 20, res);
            touches = {{a, start, 0, FordTouch::Credit, 20}};
        } else if (p < 0.60) {
            co_await bank.txAmalgamate(ctx, a, b, res);
            touches = {{a, start, 0, FordTouch::Drain, 0, b2},
                       {b2, start, 0, FordTouch::Fill, 0, a}};
        } else if (p < 0.85) {
            co_await bank.txWriteCheck(ctx, a, 50, res);
            touches = {{a, start, 0, FordTouch::WriteCheck, 50}};
        } else {
            co_await bank.txSendPayment(ctx, a, b, 5, res);
            touches = {{a, start, 0, FordTouch::Debit, 5},
                       {b2, start, 0, FordTouch::Credit, 5}};
        }
        if (res.committed) {
            for (FordTouch &t : touches) {
                t.end = ctx.sim().now();
                w.ledger.push_back(t);
            }
        }
        ctx.opEnd();
        w.finish(rt, ctx.sim().now() - start, res.committed, res.aborts,
                 res.rdmaOps);
        if (w.measuring)
            w.aborts += res.aborts;
    }
    --w.live;
}

// ---------------------------------------------------------------------
// One arm: build, load, spawn, warm up, measure, drain, check.

struct ArmResult
{
    // Set-up phases (host seconds).
    double testbedS = 0;
    double loadS = 0;
    double genS = 0;
    double probeS = 0; ///< hostProbe() just before set-up
    /** Host ns per op and per event of each measure-window slice. */
    std::vector<double> sliceNsPerOp;
    std::vector<double> sliceNsPerEvent;
    // Measure window.
    std::uint64_t ops = 0;
    std::vector<std::uint64_t> latencies;
    std::uint64_t events = 0;
    std::uint64_t ringInserts = 0;
    std::uint64_t heapInserts = 0;
    std::uint64_t peakQueueDepth = 0; ///< process-wide maximum so far
    sim::MetricsSnapshot window;      ///< counters as window deltas
    sim::MetricsSnapshot end;         ///< gauges at the window's end
    std::uint64_t digest = 0;
    Time finalVirtualNs = 0;
    Workers workers;
    // Correctness.
    std::uint64_t checkFailures = 0;
    std::vector<std::string> checkMessages;
    // Traced arm only.
    sim::Json spans;
};

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
workerSeed(const WorkloadSpec &spec, std::uint64_t seed, std::uint32_t t,
           std::uint32_t k)
{
    // The per-coroutine seed formulas of the harness runners, so a seed
    // here drives the same request streams as the figure benches.
    const std::uint64_t mix = seed * 0x9e3779b97f4a7c15ull;
    switch (spec.app) {
      case App::Race: return 0xf00d + t * 971ull + k * 13ull + mix;
      case App::Sherman: return 0xbee5 + t * 977ull + k * 17ull + mix;
      case App::Ford: return 0xd7 + t * 911ull + k * 31ull + mix;
    }
    return mix;
}

void
checkFail(ArmResult &r, const std::string &msg)
{
    ++r.checkFailures;
    if (r.checkMessages.size() < 8)
        r.checkMessages.push_back(msg);
}

std::int64_t
accountTotal(ford::SmallBank &bank, std::uint64_t a)
{
    return ford::recordBalance(*bank.savings().hostRecord(a)) +
           ford::recordBalance(*bank.checking().hostRecord(a));
}

/**
 * Whether WriteCheck @p wc may have found its account's total below its
 * amount, given the account's other touches [@p first, @p last).
 * Conflicting FORD transactions commit in the order of their host-visible
 * intervals where these do not overlap. Without a drain that may precede
 * it (one that began before it ended), the account still holds at least
 * its initial total less all debits, which the caller has checked. After
 * the last drain the total was 0; it rises by the credits that certainly
 * came between (began after every such drain ended and ended before @p wc
 * began) and falls at most by the debits that may have come between. An
 * Amalgamate into the account adds at least @p fill_floor of its source.
 */
bool
possiblePenalty(const FordTouch &wc, const FordTouch *first,
                const FordTouch *last,
                const std::vector<std::int64_t> &fill_floor)
{
    Time drains_start = FordTouch::kNever, drains_end = 0;
    for (const FordTouch *t = first; t != last; ++t) {
        if (t->kind == FordTouch::Drain && t->start < wc.end) {
            drains_start = std::min(drains_start, t->start);
            drains_end = std::max(drains_end, t->end);
        }
    }
    if (drains_start == FordTouch::kNever)
        return false;
    std::int64_t lowest = 0;
    for (const FordTouch *t = first; t != last; ++t) {
        if (t == &wc)
            continue;
        const bool certainly_between =
            t->start > drains_end && t->end < wc.start;
        const bool maybe_between = t->end > drains_start && t->start < wc.end;
        switch (t->kind) {
          case FordTouch::Credit:
            lowest += certainly_between ? t->amount : 0;
            break;
          case FordTouch::Debit:
            lowest -= maybe_between ? t->amount : 0;
            break;
          case FordTouch::WriteCheck:
            lowest -= maybe_between ? t->amount + 1 : 0;
            break;
          case FordTouch::Fill:
            if (maybe_between && fill_floor[t->peer] < 0)
                return true;
            lowest += certainly_between ? fill_floor[t->peer] : 0;
            break;
          case FordTouch::Drain: break;
        }
    }
    return lowest < wc.amount;
}

/**
 * Money conservation, from the committed transactions' touches of each
 * account. An account no Amalgamate touched, and whose debits cannot have
 * taken it below 50, ends at exactly its initial total plus its known
 * net. The others are checked together, since Amalgamate moves money only
 * among them: their total falls short of the known net by the WriteCheck
 * penalties P, and P is at most the WriteChecks that may have found their
 * account below 50 (possiblePenalty).
 */
void
checkFordMoney(ArmResult &r, ford::SmallBank &bank,
               std::vector<FordTouch> ledger)
{
    const std::int64_t initial = 2 * ford::SmallBank::kInitialBalance;
    std::sort(ledger.begin(), ledger.end(),
              [](const FordTouch &x, const FordTouch &y) {
                  return std::tie(x.account, x.start, x.end) <
                         std::tie(y.account, y.start, y.end);
              });
    // Per account: known net, most taken out by debits, and whether an
    // Amalgamate touched it.
    const std::uint64_t n = bank.numAccounts();
    std::vector<std::int64_t> known(n, 0), debits(n, 0);
    std::vector<std::uint32_t> drains(n, 0), fills(n, 0);
    for (const FordTouch &t : ledger) {
        switch (t.kind) {
          case FordTouch::Credit: known[t.account] += t.amount; break;
          case FordTouch::Debit:
            known[t.account] -= t.amount;
            debits[t.account] += t.amount;
            break;
          case FordTouch::WriteCheck:
            known[t.account] -= t.amount;
            debits[t.account] += t.amount + 1;
            break;
          case FordTouch::Drain: ++drains[t.account]; break;
          case FordTouch::Fill: ++fills[t.account]; break;
        }
    }
    // The least an Amalgamate drawing from an account moves: the account
    // never drained before and never filled keeps at least its initial
    // total less its debits. Otherwise the amount is unknown (-1 stands
    // for "may be negative").
    std::vector<std::int64_t> fill_floor(n, -1);
    for (std::uint64_t a = 0; a < n; ++a)
        if (drains[a] == 1 && fills[a] == 0)
            fill_floor[a] = std::max<std::int64_t>(initial - debits[a], -1);

    std::uint64_t wrong = 0;
    std::int64_t pooled_expected = 0, pooled_final = 0, max_penalties = 0;
    std::size_t i = 0;
    for (std::uint64_t a = 0; a < n; ++a) {
        std::size_t j = i;
        while (j < ledger.size() && ledger[j].account == a)
            ++j;
        const FordTouch *first = ledger.data() + i;
        const FordTouch *last = ledger.data() + j;
        i = j;
        const std::int64_t final_total = accountTotal(bank, a);
        const bool may_empty = initial - debits[a] < 50;
        if (drains[a] + fills[a] == 0 && !may_empty) {
            wrong += final_total != initial + known[a] ? 1 : 0;
            continue;
        }
        pooled_expected += initial + known[a];
        pooled_final += final_total;
        for (const FordTouch *t = first; t != last; ++t)
            if (t->kind == FordTouch::WriteCheck &&
                (may_empty ||
                 possiblePenalty(*t, first, last, fill_floor)))
                ++max_penalties;
    }
    if (wrong > 0)
        checkFail(r, "ford: " + std::to_string(wrong) +
                         " accounts' totals differ from their committed "
                         "transactions");
    const std::int64_t penalties = pooled_expected - pooled_final;
    if (penalties < 0 || penalties > max_penalties)
        checkFail(r, "ford: money not conserved among amalgamated "
                     "accounts (" + std::to_string(penalties) +
                         " short, at most " +
                         std::to_string(max_penalties) +
                         " penalties possible)");
}

/**
 * Run one arm. With @p setup_only the arm stops once its workers are
 * spawned (a set-up time sample; nothing is simulated).
 */
ArmResult
runArm(const WorkloadSpec &spec, bool smart_arm, std::uint64_t seed,
       std::uint32_t span_every, std::uint32_t rep, HostSpans &hs,
       bool setup_only = false)
{
    const std::string arm = smart_arm ? "smart" : "baseline";
    ArmResult r;
    Workers &w = r.workers;

    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = spec.memoryBlades;
    cfg.threadsPerBlade = kThreads;
    cfg.bladeBytes = spec.bladeBytes;
    cfg.smart = smart_arm ? presets::full() : presets::baseline();
    cfg.smart.corosPerThread = kCoros;
    cfg.smart.withBenchTimescale();
    cfg.shards = 1;
    cfg.spanSampleEvery = span_every;

    r.probeS = hs.time("probe", arm, rep, [] { hostProbe(); });
    std::unique_ptr<Testbed> tb;
    r.testbedS = hs.time("setup.testbed", arm, rep, [&] {
        tb = std::make_unique<Testbed>(cfg);
    });
    std::vector<memblade::MemoryBlade *> blades;
    for (std::uint32_t i = 0; i < tb->numMemBlades(); ++i)
        blades.push_back(&tb->memBlade(i));
    SmartRuntime &rt = tb->compute(0);

    std::unique_ptr<race::RaceTable> table;
    std::unique_ptr<race::RaceClient> race_client;
    std::unique_ptr<sherman::BtreeIndex> index;
    std::unique_ptr<sherman::BtreeClient> bt_client;
    std::unique_ptr<ford::DtxSystem> dtx;
    std::unique_ptr<ford::SmallBank> bank;

    r.loadS = hs.time("setup.load", arm, rep, [&] {
        switch (spec.app) {
          case App::Race:
            table = std::make_unique<race::RaceTable>(
                blades, harness::sizedRaceConfig(spec.keys));
            for (std::uint64_t k = 0; k < spec.keys; ++k)
                table->loadInsert(k, k);
            race_client = std::make_unique<race::RaceClient>(*table, rt);
            break;
          case App::Sherman: {
            sherman::BtreeConfig bcfg;
            // The baseline arm is Sherman+: full-leaf reads.
            bcfg.speculativeLookup = smart_arm;
            index = std::make_unique<sherman::BtreeIndex>(blades, bcfg);
            index->loadSequential(spec.keys, kBtValueMask);
            bt_client = std::make_unique<sherman::BtreeClient>(*index, rt);
            break;
          }
          case App::Ford:
            dtx = std::make_unique<ford::DtxSystem>(blades, kThreads);
            bank = std::make_unique<ford::SmallBank>(*dtx, spec.keys);
            break;
        }
    });

    r.genS = hs.time("setup.generators", arm, rep, [&] {
        double zetan = sim::ZipfianGenerator::zeta(spec.keys, spec.theta);
        for (std::uint32_t t = 0; t < kThreads; ++t) {
            for (std::uint32_t k = 0; k < kCoros; ++k) {
                std::uint64_t s = workerSeed(spec, seed, t, k);
                rt.spawnWorker(t, [&, s, zetan](SmartCtx &ctx) {
                    switch (spec.app) {
                      case App::Race:
                        return raceWorker(ctx, *race_client, w, spec, s,
                                          zetan);
                      case App::Sherman:
                        return shermanWorker(ctx, *bt_client, w, spec, s,
                                             zetan);
                      case App::Ford:
                        break;
                    }
                    return fordWorker(ctx, *bank, w, spec, s, zetan);
                });
            }
        }
    });

    if (setup_only)
        return r;

    const Window win = smart_arm ? spec.smart : spec.baseline;
    hs.time("warmup", arm, rep, [&] { tb->runUntil(win.warmupNs); });

    sim::MetricsSnapshot start;
    sim::KernelPerf kp0;
    hs.time("snapshot", arm, rep, [&] {
        start = tb->snapshot();
        kp0 = sim::collectKernelPerf();
    });
    rt.opLatency.reset();
    w.measuring = true;
    w.latencies.reserve(1u << 18);

    std::uint64_t slice_events = kp0.eventsProcessed;
    for (std::uint32_t i = 1; i <= spec.slices; ++i) {
        const std::size_t ops_before = w.latencies.size();
        const double host_s = hs.time("measure", arm, rep, [&] {
            tb->runUntil(win.warmupNs + win.measureNs * i / spec.slices);
        });
        const std::uint64_t events = sim::collectKernelPerf().eventsProcessed;
        r.sliceNsPerOp.push_back(ratio(
            host_s * 1e9,
            static_cast<double>(w.latencies.size() - ops_before)));
        r.sliceNsPerEvent.push_back(
            ratio(host_s * 1e9, static_cast<double>(events - slice_events)));
        slice_events = events;
    }

    w.measuring = false;
    hs.time("snapshot", arm, rep, [&] {
        sim::KernelPerf kp1 = sim::collectKernelPerf();
        r.events = kp1.eventsProcessed - kp0.eventsProcessed;
        r.ringInserts = kp1.ringInserts - kp0.ringInserts;
        r.heapInserts = kp1.heapInserts - kp0.heapInserts;
        r.peakQueueDepth = kp1.peakQueueDepth;
        r.end = tb->snapshot();
        r.window = r.end.deltaSince(start);
    });
    r.ops = r.window.sumCounters("app.ops");
    r.latencies = std::move(w.latencies);
    r.finalVirtualNs = tb->sim().now();
    r.digest = fnv1a(r.window.toJson().dump());

    if (span_every > 0) {
        sim::SpanTracer *sp = tb->mergedSpanTracer();
        r.spans = sp->attribution();
    }

    // Drain: let every in-flight op finish, then check the outputs.
    hs.time("drain", arm, rep, [&] {
        w.stop = true;
        const Time limit = tb->sim().now() + sim::msec(200);
        while (w.live > 0 && tb->sim().now() < limit)
            tb->runUntil(tb->sim().now() + sim::usec(50));
    });
    if (w.live > 0)
        checkFail(r, std::to_string(w.live) + " workers did not drain");
    if (w.badLookups > 0)
        checkFail(r, std::to_string(w.badLookups) +
                         " lookups of loaded keys missed or read a wrong "
                         "value");
    if (r.ops != r.latencies.size())
        checkFail(r, "app.ops delta " + std::to_string(r.ops) +
                         " != recorded ops " +
                         std::to_string(r.latencies.size()));

    hs.time("check", arm, rep, [&] {
        switch (spec.app) {
          case App::Race: {
            std::uint64_t missing = 0;
            for (std::uint64_t k = 0; k < spec.keys; ++k) {
                std::uint64_t v = 0;
                if (!table->hostLookup(k, v))
                    ++missing;
            }
            if (missing > 0)
                checkFail(r, "race: " + std::to_string(missing) +
                                 " loaded keys not found by hostLookup");
            break;
          }
          case App::Sherman:
            if (index->hostCount() != spec.keys)
                checkFail(r, "sherman: hostCount " +
                                 std::to_string(index->hostCount()) +
                                 " != loaded " + std::to_string(spec.keys));
            break;
          case App::Ford: {
            std::uint64_t bad = 0;
            for (std::uint64_t a = 0; a < spec.keys; ++a)
                bad += bank->replicasConsistent(a) ? 0 : 1;
            if (bad > 0)
                checkFail(r, "ford: " + std::to_string(bad) +
                                 " accounts with diverged replicas");
            checkFordMoney(r, *bank, std::move(w.ledger));
            break;
          }
        }
    });
    return r;
}

// ---------------------------------------------------------------------
// Metrics

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median of (value, weight) pairs: the value at half the total weight. */
double
weightedMedian(std::vector<std::pair<double, double>> v)
{
    std::sort(v.begin(), v.end());
    double total = 0;
    for (const auto &[value, weight] : v)
        total += weight;
    double seen = 0;
    for (const auto &[value, weight] : v) {
        seen += weight;
        if (seen >= total / 2)
            return value;
    }
    return 0;
}

/** Exact nearest-rank percentile of a sorted vector. */
std::uint64_t
percentile(const std::vector<std::uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double
gaugeMean(const sim::MetricsSnapshot &s, const std::string &name)
{
    double sum = 0;
    std::uint64_t n = 0;
    for (const sim::SnapshotEntry &e : s.entries) {
        if (e.id.name == name && e.kind == sim::MetricKind::Gauge) {
            sum += e.gauge;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

/** Measure-window sums of one arm over the sub-seed runs. */
struct Totals
{
    double windowUs = 0;
    std::uint32_t runs = 0;
    std::uint64_t ops = 0;
    std::uint64_t okOps = 0; ///< ops that did not fail
    /** Window op latencies (ns) of every run. */
    std::vector<std::uint64_t> latencies;
    std::uint64_t events = 0;
    std::uint64_t ringInserts = 0;
    std::uint64_t heapInserts = 0;
    std::map<std::string, double> counters;
    double creditCmax = 0; ///< sum over runs of the per-thread mean
    double coroCmax = 0;
    std::uint64_t verbs = 0;
    std::uint64_t specHits = 0;
    std::uint64_t lookups = 0;
    std::uint64_t aborts = 0;
    std::uint64_t giveups = 0;
    std::uint64_t attempted = 0; ///< whole-arm ops, for giveups
    std::uint64_t digest = 0;

    void
    add(ArmResult &r, Time window_ns, std::uint32_t sub_seeds)
    {
        static const char *const kCounters[] = {
            "rnic.wrs_completed",       "rnic.doorbell_rings",
            "rnic.doorbell_wait_ns",    "rnic.dram_bytes",
            "rnic.wqe_refetches",       "rnic.mtt_refetches",
            "smart.thread.cas_attempts", "smart.thread.cas_fails",
            "app.retries",              "smart.retry.exhausted",
            "smart.fault.wr_errors"};
        windowUs += static_cast<double>(window_ns) / 1000.0;
        ++runs;
        ops += r.ops;
        okOps += r.ops - r.workers.windowFailed;
        // Room for every sub-seed at the first one's rate, so the pooled
        // samples are not copied as they grow.
        if (latencies.empty())
            latencies.reserve(r.latencies.size() * sub_seeds * 5 / 4);
        latencies.insert(latencies.end(), r.latencies.begin(),
                         r.latencies.end());
        events += r.events;
        ringInserts += r.ringInserts;
        heapInserts += r.heapInserts;
        for (const char *c : kCounters)
            counters[c] += static_cast<double>(r.window.sumCounters(c));
        creditCmax += gaugeMean(r.end, "smart.ctrl.credit_cmax");
        coroCmax += gaugeMean(r.end, "smart.ctrl.coro_cmax");
        verbs += r.workers.verbs;
        specHits += r.workers.specHits;
        lookups += r.workers.lookups;
        aborts += r.workers.aborts;
        giveups += r.workers.giveups;
        attempted += r.workers.attempted;
        char buf[40];
        std::snprintf(buf, sizeof buf, "%016llx:%016llx",
                      static_cast<unsigned long long>(digest),
                      static_cast<unsigned long long>(r.digest));
        digest = fnv1a(buf);
    }

    double counter(const char *name) const { return counters.at(name); }
    double
    mops() const
    {
        return ratio(static_cast<double>(okOps), windowUs);
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

const char *const kSpanStages[] = {
    "gate_wait", "verb",      "credit_wait",   "doorbell_wait",
    "wqe_fetch", "dma",       "pcie",          "link",
    "mtt_fetch", "atomic",    "cqe_poll",      "backoff_sleep",
    "retry_round", "unattributed"};

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const WorkloadSpec spec = workloadSpec(opt.workload, opt.quick);
    HostSpans hs;
    Clock::time_point t_start = Clock::now();
    const std::uint32_t subs = spec.subSeeds;
    auto sub_seed = [&](std::uint32_t i) { return opt.seed * subs + i; };

    std::vector<std::string> problems;
    std::vector<double> setup_s, testbed_s, load_s, gen_s, probe_s;
    std::vector<double> host_ns_per_op, host_ns_per_event;
    std::vector<double> sub0_ns_per_op; // the traced arm's reference
    Totals smart_t;
    Totals base_t;
    // Sub-seed 0's SMART arm: the reference for the traced arm.
    std::uint64_t ref_ops = 0, ref_events = 0, ref_digest = 0;
    Time ref_end = 0;
    std::uint64_t peak_queue_depth = 0;
    std::vector<std::uint64_t> smart_digests, base_digests;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint32_t reps = 0;

    // Each arm's set-up phases, scaled by the probe timed just before.
    auto add_setup = [&](const ArmResult &s, const ArmResult &b) {
        const double ks = kProbeRefS / s.probeS, kb = kProbeRefS / b.probeS;
        testbed_s.push_back(s.testbedS * ks + b.testbedS * kb);
        load_s.push_back(s.loadS * ks + b.loadS * kb);
        gen_s.push_back(s.genS * ks + b.genS * kb);
        setup_s.push_back(testbed_s.back() + load_s.back() + gen_s.back());
        probe_s.push_back(0.5 * (s.probeS + b.probeS));
    };
    auto add_checks = [&](const ArmResult &a, const std::string &what) {
        for (const std::string &m : a.checkMessages)
            problems.push_back(what + ": " + m);
        failed += a.checkFailures;
    };

    // Repetition r runs sub-seed r % subs. The first repetition of each
    // sub-seed gives the simulated metrics; later ones, run while the
    // host-time budget lasts, must reproduce it exactly and add host
    // samples.
    for (; reps < kMaxReps; ++reps) {
        if (reps >= subs && secondsSince(t_start) >= opt.seconds)
            break;
        const std::uint32_t sub = reps % subs;
        ArmResult s = runArm(spec, true, sub_seed(sub), 0, reps, hs);
        ArmResult b = runArm(spec, false, sub_seed(sub), 0, reps, hs);
        add_setup(s, b);
        host_ns_per_op.insert(host_ns_per_op.end(), s.sliceNsPerOp.begin(),
                              s.sliceNsPerOp.end());
        host_ns_per_event.insert(host_ns_per_event.end(),
                                 s.sliceNsPerEvent.begin(),
                                 s.sliceNsPerEvent.end());
        if (sub == 0)
            sub0_ns_per_op.insert(sub0_ns_per_op.end(),
                                  s.sliceNsPerOp.begin(),
                                  s.sliceNsPerOp.end());
        const std::string tag = " rep " + std::to_string(reps);
        add_checks(s, "smart" + tag);
        add_checks(b, "baseline" + tag);
        if (reps < subs) {
            if (reps == 0) {
                ref_ops = s.ops;
                ref_events = s.events;
                ref_digest = s.digest;
                ref_end = s.finalVirtualNs;
                // Process-wide maximum; exact here, before any other arm.
                peak_queue_depth = s.peakQueueDepth;
            }
            attempted += s.workers.attempted + b.workers.attempted;
            failed += s.workers.failed + b.workers.failed;
            smart_digests.push_back(s.digest);
            base_digests.push_back(b.digest);
            smart_t.add(s, spec.smart.measureNs, subs);
            base_t.add(b, spec.baseline.measureNs, subs);
        } else if (s.digest != smart_digests[sub] ||
                   b.digest != base_digests[sub]) {
            problems.push_back("rep" + tag +
                               ": simulated output differs from rep " +
                               std::to_string(sub) + " at the same seed");
            ++failed;
        }
    }
    // Set-up is short next to a repetition: sample it a few more times
    // so its median is steady.
    for (std::uint32_t i = 0; setup_s.size() < kSetupSamples; ++i) {
        ArmResult s = runArm(spec, true, sub_seed(0), 0, reps + i, hs, true);
        ArmResult b = runArm(spec, false, sub_seed(0), 0, reps + i, hs, true);
        add_setup(s, b);
    }

    // Traced arm: sub-seed 0 again, with span sampling on.
    ArmResult traced;
    if (opt.trace) {
        traced = runArm(spec, true, sub_seed(0), kSpanEvery, reps, hs);
        add_checks(traced, "traced");
        if (traced.ops != ref_ops || traced.events != ref_events ||
            traced.finalVirtualNs != ref_end || traced.digest != ref_digest) {
            problems.push_back("traced run did different simulated work "
                               "than the untraced run");
            ++failed;
        }
    }

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    const double ops = static_cast<double>(smart_t.ops);
    std::vector<std::uint64_t> &lat = smart_t.latencies;
    std::sort(lat.begin(), lat.end());
    auto lat_us = [&](double p) {
        return static_cast<double>(percentile(lat, p)) / 1000.0;
    };

    std::vector<Metric> e2e = {
        {"sim_mops", smart_t.mops(), "op/us"},
        {"sim_speedup", ratio(smart_t.mops(), base_t.mops()), "x"},
        {"sim_p50_us", lat_us(50), "us"},
        {"sim_p99_us", lat_us(99), "us"},
        {"sim_p999_us", lat_us(99.9), "us"},
        // The simulator's work per simulated op: the deterministic factor
        // of host cost. Host time itself drifts too much on a shared host
        // to gate, so it is reported per layer (sim.host_ns_per_op).
        {"sim_events_per_op", ratio(static_cast<double>(smart_t.events), ops),
         "event/op"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        // Set-up seconds at the probe's reference speed (kProbeRefS).
        {"setup_s", median(setup_s), "s"},
    };

    const Totals &t = smart_t;
    const double wrs = t.counter("rnic.wrs_completed");
    const double rings = t.counter("rnic.doorbell_rings");
    const double cas = t.counter("smart.thread.cas_attempts");
    const double runs = static_cast<double>(t.runs);
    // Initiator pipeline occupancy per WR: post + completion.
    const rnic::RnicConfig hw;
    const double pipe_ns_per_wr =
        static_cast<double>(hw.pipeIssueNs + hw.pipeCompletionNs);
    const bool ford = spec.app == App::Ford;
    const double thread_ns = kThreads * t.windowUs * 1000.0;

    std::vector<Metric> layer = {
        {"failed_op_ratio",
         ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
        {"sim.latency_samples", ops, "count"},
        {"sim.host_ns_per_op", median(host_ns_per_op), "ns"},
        {"sim.host_ns_per_event", median(host_ns_per_event), "ns"},
        {"sim.heap_insert_share",
         ratio(static_cast<double>(t.heapInserts),
               static_cast<double>(t.ringInserts + t.heapInserts)),
         "ratio"},
        {"sim.peak_queue_depth", static_cast<double>(peak_queue_depth),
         "count"},
        {"setup.testbed_s", median(testbed_s), "s"},
        {"setup.load_s", median(load_s), "s"},
        {"setup.generators_s", median(gen_s), "s"},
        {"setup.probe_s", median(probe_s), "s"},
        {"rnic.wrs_per_op", ratio(wrs, ops), "wr/op"},
        {"rnic.pipeline_util",
         ratio(wrs * pipe_ns_per_wr, t.windowUs * 1000.0), "ratio"},
        {"rnic.dram_bytes_per_op", ratio(t.counter("rnic.dram_bytes"), ops),
         "B/op"},
        {"rnic.wqe_refetch_per_kwr",
         ratio(1000.0 * t.counter("rnic.wqe_refetches"), wrs), "1/kwr"},
        {"rnic.mtt_refetch_per_kwr",
         ratio(1000.0 * t.counter("rnic.mtt_refetches"), wrs), "1/kwr"},
        // Waits are reported as shares of thread time, not in ns: a wait
        // the model never incurs would read the same 0 ns at every seed.
        {"rnic.doorbell_wait_share",
         ratio(t.counter("rnic.doorbell_wait_ns"), thread_ns), "ratio"},
        {"verbs.wrs_per_doorbell", ratio(wrs, rings), "wr"},
        // No CAS posted means none was wasted.
        {"smart.cas_success_ratio",
         cas > 0 ? (cas - t.counter("smart.thread.cas_fails")) / cas : 1.0,
         "ratio"},
        {"smart.cas_per_op", ratio(cas, ops), "1/op"},
        {"smart.retries_per_op", ratio(t.counter("app.retries"), ops),
         "1/op"},
        {"smart.credit_cmax_mean", ratio(t.creditCmax, runs), "credit"},
        {"smart.coro_cmax_mean", ratio(t.coroCmax, runs), "coro"},
        {"smart.retry_exhausted", t.counter("smart.retry.exhausted"),
         "count"},
        {"smart.wr_errors", t.counter("smart.fault.wr_errors"), "count"},
        // A layer a workload does not run reports zero work.
        {"race.verbs_per_op",
         spec.app == App::Race ? ratio(static_cast<double>(t.verbs), ops)
                               : 0.0,
         "verb/op"},
        {"race.giveups_per_kop",
         ratio(1000.0 * static_cast<double>(t.giveups),
               static_cast<double>(t.attempted)),
         "1/kop"},
        {"sherman.spec_hit_ratio",
         ratio(static_cast<double>(t.specHits),
               static_cast<double>(t.lookups)),
         "ratio"},
        {"ford.abort_ratio",
         ford ? ratio(static_cast<double>(t.aborts),
                      static_cast<double>(t.aborts) + ops)
              : 0.0,
         "ratio"},
        // The baseline arm, where the paper's bottlenecks (shared
        // doorbells, WQE-cache thrashing) show.
        {"baseline.sim_mops", base_t.mops(), "op/us"},
        {"baseline.rnic.doorbell_wait_share",
         ratio(base_t.counter("rnic.doorbell_wait_ns"),
               kThreads * base_t.windowUs * 1000.0),
         "ratio"},
        {"baseline.rnic.wqe_refetch_per_kwr",
         ratio(1000.0 * base_t.counter("rnic.wqe_refetches"),
               base_t.counter("rnic.wrs_completed")),
         "1/kwr"},
        {"baseline.race.giveups_per_kop",
         ratio(1000.0 * static_cast<double>(base_t.giveups),
               static_cast<double>(base_t.attempted)),
         "1/kop"},
    };

    if (opt.trace) {
        const sim::Json *cov = traced.spans.find("coverage");
        const double op_total = cov->find("op_total_ns")->asDouble();
        // attribution() gives each stage's total and exact p99 per
        // thread. A stage's p99 is the count-weighted median of its
        // per-thread p99s, given as a fraction of the op p99: stages whose
        // duration the model fixes (link, dma) have the same p99 at every
        // seed.
        std::sort(traced.latencies.begin(), traced.latencies.end());
        const double op_p99 =
            static_cast<double>(percentile(traced.latencies, 99));
        std::map<std::string, double> totals;
        std::map<std::string, std::vector<std::pair<double, double>>> p99s;
        for (const sim::Json &e : traced.spans.find("stages")->asArray()) {
            const std::string &stage = e.find("stage")->asString();
            totals[stage] += e.find("total_ns")->asDouble();
            p99s[stage].emplace_back(e.find("p99_ns")->asDouble(),
                                     e.find("count")->asDouble());
        }
        for (const char *stage : kSpanStages) {
            layer.push_back({std::string("span.") + stage + ".share",
                             ratio(totals[stage], op_total), "ratio"});
            layer.push_back({std::string("span.") + stage + ".p99_frac",
                             ratio(weightedMedian(p99s[stage]), op_p99),
                             "ratio"});
        }
        layer.push_back(
            {"span.coverage", cov->find("ratio")->asDouble(), "ratio"});
        layer.push_back({"trace.overhead",
                         ratio(median(traced.sliceNsPerOp),
                               median(sub0_ns_per_op)),
                         "x"});
    }

    // Human-readable report.
    std::printf("workload %s seed %llu: %u repetitions over %u sub-seeds, "
                "%.1f s host\n",
                spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
                reps, subs, secondsSince(t_start));
    std::printf("sim_digest %s %016llx\n", spec.name.c_str(),
                static_cast<unsigned long long>(smart_t.digest));
    std::printf("sim window per sub-seed: %.3f ms warmup, %.3f ms measure "
                "(baseline %.3f + %.3f ms), %llu events measured\n",
                static_cast<double>(spec.smart.warmupNs) / 1e6,
                static_cast<double>(spec.smart.measureNs) / 1e6,
                static_cast<double>(spec.baseline.warmupNs) / 1e6,
                static_cast<double>(spec.baseline.measureNs) / 1e6,
                static_cast<unsigned long long>(t.events));
    for (const std::vector<Metric> *l : {&e2e, &layer})
        for (const Metric &m : *l)
            std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    for (const std::string &p : problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());

    if (!opt.spansOut.empty() &&
        !hs.write(opt.spansOut, opt.runId, spec.name)) {
        std::fprintf(stderr, "smartbench: cannot write %s\n",
                     opt.spansOut.c_str());
        return 1;
    }

    // Last line: the result object.
    sim::Json metrics = sim::Json::object();
    bool finite = true;
    for (const Metric &m : opt.trace ? layer : e2e) {
        finite = finite && std::isfinite(m.value);
        sim::Json v = sim::Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        metrics.set(m.name, std::move(v));
    }
    sim::Json result = sim::Json::object();
    result.set("correct", problems.empty() && finite);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
