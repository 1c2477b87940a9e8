/**
 * @file
 * Distributed-transaction benchmark harness (paper §6.2.2): SmallBank
 * and TATP over the FORD-style layer, FORD+ baseline vs SMART-DTX.
 */

#ifndef SMART_HARNESS_DTX_BENCH_HPP
#define SMART_HARNESS_DTX_BENCH_HPP

#include <cstdint>
#include <functional>

#include "harness/testbed.hpp"

namespace smart::ford {
class DtxSystem;
}

namespace smart::harness {

enum class DtxWorkload { SmallBank, Tatp };

inline const char *
dtxWorkloadName(DtxWorkload w)
{
    return w == DtxWorkload::SmallBank ? "SmallBank" : "TATP";
}

struct DtxBenchParams
{
    DtxWorkload workload = DtxWorkload::SmallBank;
    bool smartOn = true; ///< false = FORD+ baseline config
    std::uint64_t numAccounts = 100'000;
    /** SmallBank account skew (standard SmallBank is mostly uniform). */
    double zipfTheta = 0.2;
    std::uint32_t threads = 96;
    std::uint32_t corosPerThread = 8;
    sim::Time warmupNs = sim::msec(8);
    sim::Time measureNs = sim::msec(4);
    sim::Time interTxnDelayNs = 0; ///< Fig. 11 throughput throttling
    /** Workload RNG seed (from BenchCli --seed); 0 = default stream. */
    std::uint64_t seed = 0;
    /** Span sampling stride (BenchCli --trace-spans); used only for
     *  captured runs, 0 = off. */
    std::uint32_t spanSampleEvery = 0;
};

struct DtxBenchResult
{
    double mtps = 0;       ///< committed transactions per microsecond
    double medianNs = 0;   ///< commit latency percentiles
    double p99Ns = 0;
    double abortRate = 0;  ///< aborts per committed transaction
    double rdmaMops = 0;
    /** Transactions that used up their attempts in the window: they did
     *  not take effect and count in no other field. */
    std::uint64_t giveups = 0;
};

/**
 * @param capture when non-null, filled with the run's full metrics
 *        snapshot and time series (sampled every kCaptureWindowNs).
 * @param prepare when set, called on the loaded database before any
 *        transaction runs (tests use it to plant held locks).
 */
DtxBenchResult
runDtxBench(const DtxBenchParams &params, RunCapture *capture = nullptr,
            const std::function<void(ford::DtxSystem &)> &prepare = {});

} // namespace smart::harness

#endif // SMART_HARNESS_DTX_BENCH_HPP
