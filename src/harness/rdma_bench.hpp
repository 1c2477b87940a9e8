/**
 * @file
 * The raw READ/WRITE micro-benchmark from §3.1 (the artifact's
 * `test_rdma`): each thread repeatedly stages `depth` work requests,
 * rings the doorbell, and waits for all acknowledgments. Reports MOPS,
 * per-WR DRAM traffic, and batch latency percentiles.
 */

#ifndef SMART_HARNESS_RDMA_BENCH_HPP
#define SMART_HARNESS_RDMA_BENCH_HPP

#include <cstdint>

#include "harness/testbed.hpp"
#include "rnic/rnic.hpp"

namespace smart::harness {

/** Parameters of one micro-benchmark run. */
struct RdmaBenchParams
{
    rnic::Op op = rnic::Op::Read;
    std::uint32_t blockSize = 8;      ///< payload bytes per WR
    std::uint32_t depth = 8;          ///< WRs per thread per batch (OWRs)
    sim::Time warmupNs = sim::msec(1);
    sim::Time measureNs = sim::msec(4);
    std::uint64_t regionBytes = 1ull << 30; ///< random-access footprint
    /** Workload RNG seed (from BenchCli --seed); 0 = default stream. */
    std::uint64_t seed = 0;
};

/** Results of one micro-benchmark run. */
struct RdmaBenchResult
{
    double mops = 0;            ///< completed WRs per microsecond
    double dramBytesPerWr = 0;  ///< initiator RNIC<->DRAM bytes per WR
    double medianBatchNs = 0;   ///< median post..all-acked latency
    double p99BatchNs = 0;
    double wqeHitRatio = 0;     ///< WQE-cache hits / lookups in window
    double avgDoorbellWaitNs = 0;
};

/**
 * Run the micro-benchmark on a fresh testbed built from @p cfg.
 * All compute-blade threads target memory blade 0 (like the artifact's
 * client/server pair).
 *
 * @param capture when non-null, filled with the run's full metrics
 *        snapshot and time series (window cfg.tsWindowNs, else
 *        kCaptureWindowNs).
 */
RdmaBenchResult runRdmaBench(const TestbedConfig &cfg,
                             const RdmaBenchParams &params,
                             RunCapture *capture = nullptr);

} // namespace smart::harness

#endif // SMART_HARNESS_RDMA_BENCH_HPP
