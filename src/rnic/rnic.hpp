/**
 * @file
 * The RNIC hardware model: processing pipeline, on-chip caches, DMA
 * engines, PCIe interface, link egress, memory registration (MTT/MPT),
 * and one-sided operation execution against real host bytes.
 *
 * One Rnic instance models one ConnectX-6-class adapter plus the host
 * resources it contends on (PCIe link). Doorbell registers (UARs) are
 * *driver* objects allocated per device context and live in the verbs
 * layer; the Rnic only sees batches of work requests arriving after a
 * doorbell ring.
 */

#ifndef SMART_RNIC_RNIC_HPP
#define SMART_RNIC_RNIC_HPP

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rnic/cache_model.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "rnic/perf_counters.hpp"
#include "rnic/rnic_config.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/task.hpp"

namespace smart::rnic {

/** One-sided verb opcodes supported by the model. */
enum class Op : std::uint8_t { Read, Write, Cas, Faa };

/** CQE status, mirroring the ibverbs wc_status values we model. */
enum class WcStatus : std::uint8_t
{
    Success,
    /** Responder NAK: invalid rkey or out-of-bounds access. */
    RemoteAccessError,
    /** Transport retry budget exhausted (unreachable responder). */
    RetryExceeded,
    /** QP left RTS (error state / device reset) with the WR queued. */
    FlushedInError,
};

/** @return a short stable name for @p s (logs, test diagnostics). */
const char *wcStatusName(WcStatus s);

class Rnic;
struct WorkReq;
struct WirePacket;
struct PacketDelivery;

/** Receives the completion of a work request (implemented by verbs::Cq). */
class CompletionSink
{
  public:
    virtual ~CompletionSink() = default;

    /**
     * Called exactly once per work request when its CQE lands.
     * @param wr the completed request
     * @param oldValue prior memory value for CAS/FAA (0 otherwise)
     * @param status Success, or why the WR failed; on failure the local
     *        buffer is NOT written (partial results never land)
     */
    virtual void complete(const WorkReq &wr, std::uint64_t oldValue,
                          WcStatus status) = 0;
};

/** A registered memory region record (the MPT entry). */
struct MrRecord
{
    std::uint32_t id = 0;
    std::uint32_t rkey = 0;
    std::uint8_t *base = nullptr;
    std::uint64_t length = 0;
};

/** One work request as seen by the hardware. */
struct WorkReq
{
    std::uint64_t uid = 0;   ///< globally unique (WQE cache key)
    std::uint64_t wrId = 0;  ///< application wr_id (carried to the CQE)
    Op op = Op::Read;
    std::uint32_t length = 0;
    std::uint32_t rkey = 0;        ///< remote MR
    std::uint64_t remoteOffset = 0; ///< byte offset within the remote MR
    std::uint8_t *localBuf = nullptr; ///< payload source/landing (may be null)
    std::uint64_t localTransKey = 0;  ///< initiator-side MTT key
    std::uint64_t compare = 0; ///< CAS compare value / FAA addend
    std::uint64_t swap = 0;    ///< CAS swap value
    /** ICM base of the issuing device context (context footprint model). */
    std::uint64_t icmBase = 0;
    CompletionSink *sink = nullptr;
    bool signaled = true;
    /**
     * Optional initiator-side attribution: bumped when this WR's WQE
     * state must be refetched (cache miss). Lets the SMART layer keep
     * per-thread refetch counts the aggregate RNIC counter cannot.
     */
    sim::Counter *wqeMissCounter = nullptr;
    /**
     * Opaque retry-policy cookie: identifies this WR within its issuing
     * SmartCtx sync round so failed WRs can be re-staged individually.
     */
    std::uint64_t appTag = 0;
    /** Sync-round epoch; CQEs from abandoned rounds are ignored. */
    std::uint32_t syncEpoch = 0;
    /** Connected-blade index this WR targets (set at stage time; the
     *  completion path uses it for per-blade outstanding accounting). */
    std::uint32_t bladeIdx = 0;
    /**
     * Compute-side cache-tier routing cookie (0 for ordinary WRs).
     * Encodes a fill / write-back / invalidation action plus a frame
     * generation so stale or duplicate CQEs are rejected; routed to the
     * owning BufferManager even for abandoned sync rounds.
     */
    std::uint64_t cacheCookie = 0;
    /**
     * Parent span (the issuing coroutine's verb/retry span) when this
     * WR belongs to a sampled operation of an installed SpanTracer;
     * 0 (the common case) disables all device-side span recording.
     */
    sim::SpanId traceSpan = 0;
    /** Initiator device epoch at post time (set by postBatch); a
     *  mismatch at completion means the RNIC reset under the WR. */
    std::uint64_t initEpoch = 0;
};

/**
 * The RNIC model. All latencies/capacities come from RnicConfig; see
 * DESIGN.md §5 for the calibration rationale.
 *
 * The device is also a fault target (name "<blade>.rnic"): it absorbs
 * injected completion errors, doorbell stalls, resets and crash windows
 * from an installed FaultPlane. All fault state defaults to "healthy",
 * so runs without a plane take the exact same paths as before.
 */
class Rnic : public sim::FaultTarget
{
  public:
    Rnic(sim::Simulator &sim, const RnicConfig &cfg, std::string name);
    ~Rnic();

    Rnic(const Rnic &) = delete;
    Rnic &operator=(const Rnic &) = delete;

    /** @return the owning simulator. */
    sim::Simulator &sim() { return sim_; }

    /** @return the hardware configuration. */
    const RnicConfig &config() const { return cfg_; }

    /** @return diagnostic name ("mb0", "cb1", ...). */
    const std::string &name() const { return name_; }

    /** @return performance counters (mutable: the verbs layer adds
     *  doorbell waits and rings). */
    PerfCounters &perf() { return perf_; }

    /** @return performance counters, read-only. */
    const PerfCounters &perf() const { return perf_; }

    /**
     * Device-side span track of this adapter, interned in @p sp on first
     * use. Only called from instrumentation sites already gated on a
     * traced WR, so untraced runs never reach it.
     */
    sim::TrackId
    spanTrack(sim::SpanTracer &sp)
    {
        if (spanTrack_ == 0)
            spanTrack_ = sp.internTrack(name_ + ".rnic", "", true);
        return spanTrack_;
    }

    /** @return posted-but-uncompleted work requests (the paper's OWRs). */
    std::uint64_t owrNow() const { return owrNow_; }

    /**
     * @return probability that a completing WR still has its WQE state
     * on chip. With random replacement and a cyclic reference stream the
     * steady-state hit ratio is capacity / working-set.
     */
    double
    wqeHitProb() const
    {
        if (owrNow_ <= cfg_.wqeCacheCapacity)
            return 1.0;
        return static_cast<double>(cfg_.wqeCacheCapacity) /
               static_cast<double>(owrNow_);
    }

    /**
     * Register host memory with the RNIC (creates the MPT/MTT entries).
     * @return the MR record; rkey can be shipped to remote initiators.
     */
    const MrRecord &registerMemory(std::uint8_t *base, std::uint64_t length);

    /** Look up a registered MR by rkey (nullptr if unknown). */
    const MrRecord *findMr(std::uint32_t rkey) const;

    /**
     * Drop the MPT entry for @p rkey. Accesses with the stale rkey then
     * complete with RemoteAccessError (blade restart semantics).
     */
    void invalidateMr(std::uint32_t rkey);

    /** ---- Fault-target interface (see sim/fault.hpp) ---- */
    const std::string &faultTargetName() const override
    {
        return faultName_;
    }
    void applyFault(sim::FaultKind kind, sim::Time duration) override;
    void setInjectedErrorRate(double per_op_prob, sim::Rng *rng) override
    {
        completionErrorProb_ = per_op_prob;
        faultRng_ = rng;
    }
    bool faultedNow() const override
    {
        return down_ || sim_.now() < stallUntil_;
    }

    /**
     * Power the device down/up. Going up bumps the device epoch so WRs
     * and QPs from before the outage flush in error / must reconnect.
     */
    void
    setDown(bool down)
    {
        if (down_ && !down)
            ++epoch_;
        down_ = down;
    }

    /** @return true while crashed/powered down. */
    bool down() const { return down_; }

    /** @return device epoch; bumped by resets and crash recoveries. */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Reserve the ICM footprint for a new device context.
     * @return the context's ICM base key
     */
    std::uint64_t
    allocContextIcm()
    {
        std::uint64_t base =
            kIcmTag + nextContext_ * cfg_.icmEntriesPerContext;
        ++nextContext_;
        return base;
    }

    /**
     * Hand a rung batch of work requests to the hardware. Called by the
     * verbs layer right after the doorbell MMIO; processing is
     * asynchronous.
     * @param target the responder RNIC (the memory blade's adapter)
     */
    void postBatch(Rnic *target, std::vector<WorkReq> batch);

    /** MTT translation key for an (mr, byte offset) pair. */
    static std::uint64_t
    transKey(std::uint32_t mr_id, std::uint64_t offset)
    {
        return (static_cast<std::uint64_t>(mr_id) << 32) |
               (offset >> 21); // 2 MB pages
    }

    /** Total inbound DRAM bytes divided by completed WRs (Fig. 4b). */
    double dramBytesPerWr() const;

    /**
     * Borrow an empty WorkReq vector with warm capacity. The flusher and
     * doorbell paths churn one batch vector per ring; recycling through
     * this pool keeps the steady state allocation-free.
     */
    std::vector<WorkReq>
    takeBatchBuffer()
    {
        if (batchPool_.empty())
            return {};
        std::vector<WorkReq> v = std::move(batchPool_.back());
        batchPool_.pop_back();
        return v;
    }

    /** Return a batch vector to the pool (cleared, capacity kept). */
    void
    recycleBatchBuffer(std::vector<WorkReq> &&v)
    {
        if (v.capacity() == 0 || batchPool_.size() >= kBatchPoolCap)
            return;
        v.clear();
        batchPool_.push_back(std::move(v));
    }

  private:
    friend struct PacketDelivery;

    /** Fetch the batch's WQEs via PCIe, then issue each WR. */
    sim::Task processBatch(Rnic *target, std::vector<WorkReq> batch);

    /**
     * Initiator half of one WR: issue pipeline, ICM/MTT lookups, egress
     * serialization, then hand the request to the wire as a timestamped
     * WirePacket. The WR continues in serveRequest() on delivery; this
     * frame dies at the wire.
     */
    sim::Task processOne(Rnic *target, WorkReq wr);

    /**
     * Responder half (this == the responder): pipeline, MR check,
     * translation, the operation itself against host bytes, egress — and
     * the response packet back over the wire. Runs inside the delivery
     * event.
     */
    sim::Task serveRequest(WirePacket *p);

    /**
     * Completion half (this == the initiator): WQE-cache model,
     * completion pipeline, CQE/payload landing, CQE delivery. Runs when
     * the response packet arrives.
     */
    sim::Task finishOne(WirePacket *p);

    /** Start a detached task inline (wire deliveries; no extra event). */
    static void
    startDetached(sim::Task t)
    {
        t.detach().resume();
    }

    /*
     * The per-WR leaf stages below are frameless awaitables, not child
     * coroutines: each runs 2-4 times per WR, and a Task would cost a
     * frame-pool round-trip plus actor dispatch per call. They chain
     * EventFn callbacks through the same resources and delays the old
     * coroutine bodies awaited, so the event sequence (count, timestamps,
     * FIFO seq) is bit-identical to the coroutine formulation — metric
     * output does not change.
     */

    /** Awaitable: occupy host PCIe for @p bytes, add the DMA latency. */
    struct DmaAwaiter
    {
        Rnic &nic;
        std::uint32_t bytes;

        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h) const
        {
            nic.dmaStart(bytes, h);
        }
        void await_resume() const noexcept {}
    };

    DmaAwaiter pcieDma(std::uint32_t bytes) { return {*this, bytes}; }
    void dmaStart(std::uint32_t bytes, std::coroutine_handle<> h);
    void dmaOccupy(std::uint32_t bytes, std::coroutine_handle<> h);

    /**
     * Awaitable: occupy the egress link for the serialization time of
     * @p bytes. Resumes when the last byte leaves the sender; wire
     * propagation is *not* included — it is carried by the WirePacket's
     * delivery timestamp (sender now + propagationNs), so the crossing
     * itself is a wire delivery, never a direct peer event.
     */
    struct SendAwaiter
    {
        Rnic &nic; // the sending side: its egress link is occupied
        std::uint32_t bytes;

        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h) const
        {
            nic.sendStart(bytes, h);
        }
        void await_resume() const noexcept {}
    };

    SendAwaiter sendTo(std::uint32_t bytes) { return {*this, bytes}; }

    /** Send @p pkt over the wire for delivery at absolute @p dtime. */
    void sendPacket(sim::Time dtime, WirePacket *pkt);
    void sendStart(std::uint32_t bytes, std::coroutine_handle<> h);
    void sendOccupy(std::uint32_t bytes, std::coroutine_handle<> h);

    /**
     * Awaitable: touch the MTT/MPT cache. A hit completes synchronously
     * — no suspension, no event; a miss pays the refetch pipeline pass
     * plus the host-DRAM latency.
     */
    struct TranslateAwaiter
    {
        Rnic &nic;
        std::uint64_t key;

        bool
        await_ready() const
        {
            return nic.mttCache_.access(key);
        }
        void
        await_suspend(std::coroutine_handle<> h) const
        {
            nic.translateStart(h);
        }
        void await_resume() const noexcept {}
    };

    TranslateAwaiter translate(std::uint64_t key) { return {*this, key}; }
    void translateStart(std::coroutine_handle<> h);
    void translatePipe(std::coroutine_handle<> h);

    /** Deliver an error CQE for @p wr (no payload lands). */
    void completeError(const WorkReq &wr, WcStatus status);

    sim::Simulator &sim_;
    RnicConfig cfg_;
    std::string name_;
    std::string faultName_;
    /** This adapter's wire identity: fixes same-time delivery
     *  tie-breaks (see wire.hpp). */
    sim::WireEndpoint wire_;

    sim::Resource pipeline_;
    sim::Resource atomicUnits_;
    sim::Resource dmaEngines_;
    sim::Resource pcie_;
    sim::Resource egress_;

    LruCache mttCache_;

    std::uint64_t owrNow_ = 0;
    sim::Counter wqeHits_;
    sim::Counter wqeMisses_;
    sim::Rng rng_;
    sim::TrackId spanTrack_ = 0; // interned lazily by spanTrack()

    // Fault state (defaults = healthy; only a FaultPlane mutates these).
    bool down_ = false;
    std::uint64_t epoch_ = 0;
    sim::Time stallUntil_ = 0;
    std::uint64_t pendingCompletionErrors_ = 0;
    double completionErrorProb_ = 0.0;
    sim::Rng *faultRng_ = nullptr;
    sim::Counter wrErrors_;

    PerfCounters perf_;

    /**
     * MPT, indexed by MR id - 1 (ids are dense, from 1). A deque keeps
     * the records registerMemory() hands out at stable addresses as the
     * table grows; an invalidated entry keeps its slot with rkey 0.
     */
    std::deque<MrRecord> mrs_;
    std::uint64_t nextUid_ = 1;

    /** Key-space tag separating ICM entries from MTT page entries. */
    static constexpr std::uint64_t kIcmTag = 1ull << 62;
    std::uint64_t nextContext_ = 0;

    /** Borrow a byte vector for READ snapshots (warm capacity). */
    std::vector<std::uint8_t>
    takeByteBuffer()
    {
        if (bytePool_.empty())
            return {};
        std::vector<std::uint8_t> v = std::move(bytePool_.back());
        bytePool_.pop_back();
        return v;
    }

    /** Return a snapshot vector to the pool. */
    void
    recycleByteBuffer(std::vector<std::uint8_t> &&v)
    {
        if (v.capacity() == 0 || bytePool_.size() >= kBytePoolCap)
            return;
        v.clear();
        bytePool_.push_back(std::move(v));
    }

    /**
     * Borrow a reset WirePacket for one WR; it travels request ->
     * response -> completion and then comes back via recyclePacket().
     * Allocates only while the pool grows.
     */
    WirePacket *takePacket();

    /** Return @p pkt and its payload buffer to their pools. */
    void recyclePacket(WirePacket *pkt);

    static constexpr std::size_t kBatchPoolCap = 64;
    static constexpr std::size_t kBytePoolCap = 256;
    std::vector<std::vector<WorkReq>> batchPool_;
    std::vector<std::vector<std::uint8_t>> bytePool_;
    /**
     * Every WirePacket this adapter made, owned here so that a delivery
     * carries a plain pointer: it fits EventFn's inline budget and moves
     * as a memcpy. Uncapped: it holds the peak number of WRs in flight.
     */
    std::vector<std::unique_ptr<WirePacket>> packets_;
    std::vector<WirePacket *> packetPool_; ///< the packets not in flight
};

} // namespace smart::rnic

#endif // SMART_RNIC_RNIC_HPP
