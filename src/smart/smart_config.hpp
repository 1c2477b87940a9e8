/**
 * @file
 * Feature toggles and tuning constants of the SMART framework. Every
 * paper technique can be switched independently, which is what the
 * breakdown experiments (Figs. 8, 13, 14) sweep.
 */

#ifndef SMART_SMART_CONFIG_HPP
#define SMART_SMART_CONFIG_HPP

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace smart {

/** Queue-pair / doorbell allocation policies compared in §3.1. */
enum class QpPolicy : std::uint8_t
{
    SharedQp,        ///< one QP per blade shared by all threads
    MultiplexedQp,   ///< each QP shared by a group of 4 threads
    PerThreadQp,     ///< per-thread QPs, default driver doorbell mapping
    PerThreadDb,     ///< SMART: per-thread QPs bound to private doorbells
    PerThreadContext ///< per-thread device contexts (X-RDMA style)
};

/** @return a short human-readable policy name. */
inline const char *
qpPolicyName(QpPolicy p)
{
    switch (p) {
      case QpPolicy::SharedQp: return "shared-qp";
      case QpPolicy::MultiplexedQp: return "multiplexed-qp";
      case QpPolicy::PerThreadQp: return "per-thread-qp";
      case QpPolicy::PerThreadDb: return "per-thread-db";
      case QpPolicy::PerThreadContext: return "per-thread-ctx";
    }
    return "?";
}

/**
 * Compute-side buffer-managed cache tier (ScaleStore-style). Disabled by
 * default (sizeBytes == 0): every event stream stays byte-identical to a
 * cache-less build unless a bench/test opts in.
 */
struct CacheConfig
{
    /** Frame pool capacity in bytes; 0 disables the cache entirely. */
    std::uint64_t sizeBytes = 0;
    /** Cache line (frame) size; remote offsets are line-aligned. */
    std::uint32_t lineBytes = 256;

    bool enabled() const { return sizeBytes != 0; }

    /** @return frame count this configuration yields. */
    std::uint32_t
    numFrames() const
    {
        return static_cast<std::uint32_t>(sizeBytes / lineBytes);
    }
};

/** Configuration of one SmartRuntime (one compute blade process). */
struct SmartConfig
{
    // ---- §4.1 thread-aware resource allocation ----
    QpPolicy qpPolicy = QpPolicy::PerThreadDb;

    // ---- §4.2 adaptive work request throttling (Algorithm 1) ----
    bool workReqThrottle = true;
    /** Initial / fallback per-thread credit limit C_max. */
    std::uint32_t initialCmax = 8;
    /** Candidate C_max values probed each epoch. */
    std::vector<std::uint32_t> cmaxCandidates = {4, 6, 8, 10, 12};
    /** Probe duration per candidate (paper: Δ = 8 ms). */
    sim::Time probeIntervalNs = sim::msec(8);
    /** Stable-phase duration (paper: T = 60·Δ = 480 ms). */
    sim::Time stableIntervalNs = sim::msec(480);

    // ---- §4.3 conflict avoidance ----
    bool backoff = true;
    bool dynBackoffLimit = true;
    bool coroThrottle = true;
    /** Backoff unit t0 in CPU cycles (~ one RDMA round-trip). */
    std::uint64_t backoffUnitCycles = 4096;
    /** Longest backoff: t_M = 2^10 · t0 by default. */
    std::uint64_t backoffMaxFactor = 1024;
    /** Retry-rate high water mark γ_H. */
    double gammaHigh = 0.5;
    /** Retry-rate low water mark γ_L. */
    double gammaLow = 0.1;
    /** Retry-rate sampling period (paper: every millisecond). */
    sim::Time retryWindowNs = sim::msec(1);

    /** Coroutines spawned per thread (concurrency depth upper bound). */
    std::uint32_t corosPerThread = 8;

    // ---- Verb-level failure policy (active only under a FaultPlane) ----
    /**
     * How many times a sync round re-posts failed work requests (with
     * truncated-exponential spacing and transparent QP reconnects)
     * before SmartCtx surfaces a typed VerbError to the application.
     */
    std::uint32_t maxVerbRetries = 8;
    /**
     * Per-sync timeout: a round whose completions never arrive is
     * abandoned and its WRs treated as failed. Only armed when a
     * FaultPlane is installed, so healthy runs schedule no extra
     * events. 0 disables timeouts even under faults.
     */
    sim::Time verbTimeoutNs = sim::msec(1);

    // ---- Overload-side graceful degradation (off unless set) ----
    /**
     * Per-blade outstanding-WR watermark at which the first degradation
     * level engages. Level 1 only annotates the timeline (an early
     * warning); it sheds nothing. 0 disables the whole ladder (the
     * default; healthy benches are untouched).
     */
    std::uint32_t overloadLowWm = 0;
    /**
     * Second level: doorbell batches to an overloaded blade are posted
     * in overloadChunkWrs-sized chunks instead of one coalesced ring,
     * pacing the blade at the cost of extra doorbells.
     */
    std::uint32_t overloadHighWm = 0;
    /** Chunk size used while the second level is active. */
    std::uint32_t overloadChunkWrs = 4;

    // ---- Compute-side cache tier (off unless sizeBytes > 0) ----
    CacheConfig cache;

    // ---- Fluent builder: chainable tweaks over a preset ----

    /** Set the QP/doorbell allocation policy. */
    SmartConfig &
    withQpPolicy(QpPolicy p)
    {
        qpPolicy = p;
        return *this;
    }

    /** Enable/disable retry backoff and its dynamic t_max (§4.3). */
    SmartConfig &
    withBackoff(bool on, bool dyn_limit)
    {
        backoff = on;
        dynBackoffLimit = dyn_limit;
        return *this;
    }

    /** Set coroutines per thread. */
    SmartConfig &
    withCoros(std::uint32_t n)
    {
        corosPerThread = n;
        return *this;
    }

    /** Set the verb retry budget and per-sync timeout (fault runs). */
    SmartConfig &
    withVerbRetryPolicy(std::uint32_t max_retries, sim::Time timeout_ns)
    {
        maxVerbRetries = max_retries;
        verbTimeoutNs = timeout_ns;
        return *this;
    }

    /** Arm the overload degradation ladder (@p low annotates an early
     *  warning, @p high chunks doorbell batches, 2 * @p high delays user
     *  ops). */
    SmartConfig &
    withOverloadWatermarks(std::uint32_t low, std::uint32_t high,
                           std::uint32_t chunk_wrs = 4)
    {
        overloadLowWm = low;
        overloadHighWm = high;
        overloadChunkWrs = chunk_wrs;
        return *this;
    }

    /** Enable the cache tier with a pool of @p mb megabytes. */
    SmartConfig &
    withCacheMb(std::uint32_t mb)
    {
        cache.sizeBytes = static_cast<std::uint64_t>(mb) << 20;
        return *this;
    }

    /**
     * Shrink the Algorithm-1 epochs so adaptation is observable inside a
     * few simulated milliseconds. The paper's Δ=8ms / T=480ms epochs
     * would leave every bench's measurement window inside one epoch;
     * scaling both by ~8x preserves the probe/stable ratio while letting
     * --quick runs cross several epochs.
     */
    SmartConfig &
    withBenchTimescale()
    {
        probeIntervalNs = sim::msec(1);
        stableIntervalNs = sim::msec(20);
        return *this;
    }
};

/** Convenience presets used throughout benches and tests. */
namespace presets {

/** Baseline: what existing apps do (per-thread QP, nothing else). */
inline SmartConfig
baseline()
{
    SmartConfig c;
    c.qpPolicy = QpPolicy::PerThreadQp;
    c.workReqThrottle = false;
    c.backoff = false;
    c.dynBackoffLimit = false;
    c.coroThrottle = false;
    return c;
}

/** Full SMART: all three techniques enabled. */
inline SmartConfig
full()
{
    return SmartConfig{};
}

/** Baseline + thread-aware resource allocation only. */
inline SmartConfig
thdResAlloc()
{
    SmartConfig c = baseline();
    c.qpPolicy = QpPolicy::PerThreadDb;
    return c;
}

/** ThdResAlloc + adaptive work request throttling. */
inline SmartConfig
workReqThrot()
{
    SmartConfig c = thdResAlloc();
    c.workReqThrottle = true;
    return c;
}

} // namespace presets

} // namespace smart

#endif // SMART_SMART_CONFIG_HPP
