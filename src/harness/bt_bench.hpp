/**
 * @file
 * End-to-end B+Tree benchmark harness (paper §6.2.3). Each "server"
 * contributes a memory blade and a compute blade (the paper emulates
 * both on one machine: 2 cores serve memory, up to 94 run clients).
 * Variants: Sherman+ (baseline), Sherman+ w/ SL, SMART-BT.
 */

#ifndef SMART_HARNESS_BT_BENCH_HPP
#define SMART_HARNESS_BT_BENCH_HPP

#include <cstdint>

#include "apps/sherman/btree.hpp"
#include "harness/testbed.hpp"
#include "workload/ycsb.hpp"

namespace smart::harness {

/** Which refactoring stage of §6.2.3 to run. */
enum class BtVariant
{
    ShermanPlus,   ///< baseline config, full-leaf lookups
    ShermanPlusSl, ///< baseline config + speculative lookup
    SmartBt        ///< full SMART + speculative lookup
};

inline const char *
btVariantName(BtVariant v)
{
    switch (v) {
      case BtVariant::ShermanPlus: return "Sherman+";
      case BtVariant::ShermanPlusSl: return "Sherman+ w/ SL";
      case BtVariant::SmartBt: return "SMART-BT";
    }
    return "?";
}

struct BtBenchParams
{
    BtVariant variant = BtVariant::SmartBt;
    std::uint64_t numKeys = 1'000'000;
    double zipfTheta = 0.99;
    workload::YcsbMix mix = workload::YcsbMix::readOnly();
    std::uint32_t servers = 1;          ///< memory+compute blade pairs
    std::uint32_t threadsPerServer = 94;
    std::uint32_t corosPerThread = 8;
    sim::Time warmupNs = sim::msec(8);
    sim::Time measureNs = sim::msec(4);
    /** Workload RNG seed (from BenchCli --seed); 0 = default stream. */
    std::uint64_t seed = 0;
    /** Span sampling stride (BenchCli --trace-spans); used only for
     *  captured runs, 0 = off. */
    std::uint32_t spanSampleEvery = 0;
};

struct BtBenchResult
{
    double mops = 0;
    double medianNs = 0;
    double p99Ns = 0;
    double specHitRate = 0; ///< fraction of lookups on the fast path
    double rdmaMops = 0;
};

/**
 * Run one B+Tree benchmark configuration.
 * @param capture when non-null, filled with the run's full metrics
 *        snapshot and time series (sampled every kCaptureWindowNs).
 */
BtBenchResult runBtBench(const BtBenchParams &params,
                         RunCapture *capture = nullptr);

} // namespace smart::harness

#endif // SMART_HARNESS_BT_BENCH_HPP
