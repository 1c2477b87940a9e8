/**
 * @file
 * Neo-Host-style performance counters exposed by the RNIC model.
 */

#ifndef SMART_RNIC_PERF_COUNTERS_HPP
#define SMART_RNIC_PERF_COUNTERS_HPP

#include <cstdint>

#include "sim/metrics.hpp"
#include "sim/stats.hpp"

namespace smart::rnic {

/**
 * Counters the paper reads through Mellanox Neo-Host / PCIe counters:
 * completed work requests, RNIC<->host-DRAM traffic, and doorbell waits.
 */
struct PerfCounters
{
    /** Work requests completed by this RNIC as initiator. */
    smart::sim::Counter wrsCompleted;
    /** Inbound requests served by this RNIC as responder. */
    smart::sim::Counter wrsServed;
    /** Bytes moved between this RNIC and host DRAM (PCIe DMA traffic). */
    smart::sim::Counter dramBytes;
    /** Cumulative virtual ns spent waiting for doorbell locks. */
    smart::sim::Counter doorbellWaitNs;
    /** Doorbell rings performed. */
    smart::sim::Counter doorbellRings;
    /** WQE-cache refetches (misses) as initiator. */
    smart::sim::Counter wqeRefetches;
    /** MTT/MPT translation refetches. */
    smart::sim::Counter mttRefetches;

    /** Register every counter under "rnic.*" with @p labels. */
    void
    registerWith(smart::sim::MetricsRegistry &m, const void *owner,
                 const smart::sim::Labels &labels)
    {
        m.registerCounter(owner, "rnic.wrs_completed", labels,
                          &wrsCompleted);
        m.registerCounter(owner, "rnic.wrs_served", labels, &wrsServed);
        m.registerCounter(owner, "rnic.dram_bytes", labels, &dramBytes);
        m.registerCounter(owner, "rnic.doorbell_wait_ns", labels,
                          &doorbellWaitNs);
        m.registerCounter(owner, "rnic.doorbell_rings", labels,
                          &doorbellRings);
        m.registerCounter(owner, "rnic.wqe_refetches", labels,
                          &wqeRefetches);
        m.registerCounter(owner, "rnic.mtt_refetches", labels,
                          &mttRefetches);
    }
};

} // namespace smart::rnic

#endif // SMART_RNIC_PERF_COUNTERS_HPP
