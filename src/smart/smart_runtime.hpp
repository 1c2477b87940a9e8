/**
 * @file
 * SmartRuntime: one compute blade running the SMART framework.
 *
 * Owns the simulated hardware threads, allocates RDMA resources according
 * to the configured QP policy (§4.1 thread-aware allocation is the SMART
 * policy; the others are the baselines of Fig. 3), and runs the adaptive
 * controllers: the Algorithm-1 credit epochs (§4.2) and the retry-rate
 * water-mark controller (§4.3).
 */

#ifndef SMART_SMART_RUNTIME_HPP
#define SMART_SMART_RUNTIME_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "memblade/memory_blade.hpp"
#include "rnic/rnic.hpp"
#include "sim/resource.hpp"
#include "smart/cluster_view.hpp"
#include "sim/sim_thread.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "smart/backoff.hpp"
#include "smart/remote_ptr.hpp"
#include "smart/smart_config.hpp"
#include "verbs/verbs.hpp"

namespace smart {

class SmartRuntime;
class SmartCtx;

namespace cache {
class BufferManager;
}

/**
 * Bookkeeping for one in-flight sync group: every posted WR carries a
 * pointer to its coroutine's SyncState in wr_id (the paper packs metadata
 * into wr_id the same way).
 */
struct SyncState
{
    std::uint32_t pending = 0;
    bool done = true;
    class SmartThread *thread = nullptr;
    /** Owning coroutine context (failure bookkeeping lives there). */
    SmartCtx *ctx = nullptr;
    /** Coroutine parked in sync(), resumed when pending hits zero. */
    std::coroutine_handle<> waiter{};
    /** CQEs dispatched since the owner last paid polling costs. */
    std::uint32_t sinceCharge = 0;
    /**
     * Sync-round epoch. A round abandoned by the verb timeout bumps
     * this; CQEs stamped with an older epoch still replenish credits
     * but no longer touch the round's bookkeeping.
     */
    std::uint32_t epoch = 0;
};

/**
 * Adjustable-capacity FIFO semaphore: implements §4.3 coroutine
 * concurrency throttling (at most c_max application operations in flight
 * per thread).
 */
class DynSemaphore
{
  public:
    DynSemaphore(sim::Simulator &sim, std::uint32_t capacity)
        : sim_(sim), capacity_(capacity)
    {
    }

    /** Awaitable: admits the coroutine once active < capacity. */
    auto
    acquire()
    {
        struct Awaiter
        {
            DynSemaphore &s;

            bool
            await_ready() const noexcept
            {
                if (s.active_ < s.capacity_) {
                    ++s.active_;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                s.waiters_.push_back(h);
            }

            // Re-acquired by the wakeup path before resuming.
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    void
    release()
    {
        --active_;
        admit();
    }

    /** Change capacity on the fly (the c_max controller calls this). */
    void
    setCapacity(std::uint32_t c)
    {
        capacity_ = c;
        admit();
    }

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t active() const { return active_; }

  private:
    void
    admit()
    {
        while (active_ < capacity_ && !waiters_.empty()) {
            ++active_;
            sim_.post(waiters_.front());
            waiters_.pop_front();
        }
    }

    sim::Simulator &sim_;
    std::uint32_t capacity_;
    std::uint32_t active_ = 0;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Per-hardware-thread SMART state: the thread's QPs (one per connected
 * blade), its CQ, the credit pool of Algorithm 1, and the conflict
 * controller.
 */
class SmartThread
{
  public:
    SmartThread(SmartRuntime &rt, std::uint32_t id);
    ~SmartThread();

    SmartThread(const SmartThread &) = delete;
    SmartThread &operator=(const SmartThread &) = delete;

    sim::SimThread &simThread() { return simThread_; }
    std::uint32_t id() const { return id_; }
    SmartRuntime &runtime() { return rt_; }

    /** @return this thread's RNG (backoff randomization). */
    sim::Rng &rng() { return rng_; }

    /** @return coroutine-throttling gate (c_max admissions). */
    DynSemaphore &coroGate() { return coroGate_; }

    /** @return conflict-avoidance controller. */
    ConflictController &conflictCtrl() { return ctrl_; }

    // ---- Algorithm 1: credit-based work request throttling ----

    /**
     * Take between 1 and @p want credits, waiting if none are available.
     * Only called when throttling is enabled.
     */
    sim::Task acquireCredit(std::uint32_t want, std::uint32_t &granted);

    /** Return @p n credits and wake throttled posters. */
    void replenish(std::uint32_t n);

    /** UPDATECMAX(target) from Algorithm 1. */
    void updateCmax(std::uint32_t target);

    /** @return current C_max. */
    std::uint32_t cmax() const { return cmax_; }

    /** @return currently available credits (can be negative mid-update). */
    std::int64_t credit() const { return credit_; }

    // ---- thread-local work request buffers (§5.1) ----
    // read()/write()/cas()/faa() stage into these; postSend() schedules a
    // flush. A flush drains *everything* staged for a blade in one
    // doorbell ring, so sibling coroutines' requests coalesce naturally
    // under load (Sherman-style doorbell batching).

    /** Stage a WR for @p blade_idx (called by SmartCtx verbs). */
    void stageWr(std::uint32_t blade_idx, rnic::WorkReq wr);

    /** Ensure a flusher is draining the buffer of @p blade_idx. */
    void kickFlush(std::uint32_t blade_idx);

    /** WRs staged but not yet handed to the RNIC (introspection). */
    std::size_t stagedCount(std::uint32_t blade_idx) const;

    /**
     * Times the staging buffer's capacity grew (allocation audit). The
     * buffer swaps with pooled batch vectors rather than being replaced,
     * so after warm-up this must stop moving — tests assert it.
     */
    std::uint64_t stageBufGrowths() const { return stageBufGrowths_; }

    // ---- statistics ----
    /** RDMA WRs completed by coroutines of this thread. */
    sim::Counter completedWrs;
    /** backoffCasSync invocations / failures (γ computation). */
    sim::Counter casAttempts;
    sim::Counter casFails;
    /** Doorbell spin time / rings attributed to this thread's QPs
     *  (per-thread QP policies only; shared QPs cannot attribute). */
    sim::Counter doorbellWaitNs;
    sim::Counter doorbellRings;
    /** WQE-cache refetches paid by this thread's work requests. */
    sim::Counter wqeRefetches;
    // ---- failure/retry statistics (stay zero in healthy runs) ----
    /** Error CQEs observed by this thread's coroutines. */
    sim::Counter wrErrors;
    /** Verb retry rounds (failed WRs re-posted after spacing). */
    sim::Counter verbRetries;
    /** Sync rounds abandoned by the verb timeout. */
    sim::Counter verbTimeouts;
    /** Retry budgets exhausted (a typed VerbError surfaced). */
    sim::Counter verbExhausted;
    /** QP Reset->Init->RTR->RTS reconnects driven by retries. */
    sim::Counter qpReconnects;

  private:
    friend class SmartRuntime;

    auto
    parkForCredit()
    {
        struct Awaiter
        {
            SmartThread &t;
            bool await_ready() const noexcept { return t.credit_ > 0; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                t.creditWaiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    void wakeCreditWaiters();

    SmartRuntime &rt_;
    std::uint32_t id_;
    sim::SimThread simThread_;
    sim::Rng rng_;
    DynSemaphore coroGate_;
    ConflictController ctrl_;

    sim::Task flushLoop(std::uint32_t blade_idx);

    struct StagedQueue
    {
        std::vector<rnic::WorkReq> wrs;
        bool flushing = false;
    };
    // Per blade. A deque, not a vector: a live blade join grows it
    // mid-run, and flushLoop holds a reference to its element across
    // suspension points — deque growth never moves existing elements.
    std::deque<StagedQueue> staged_;
    std::uint64_t stageBufGrowths_ = 0;

    std::int64_t credit_;
    std::uint32_t cmax_;
    std::deque<std::coroutine_handle<>> creditWaiters_;

    // Resources owned per-thread under the per-thread policies.
    std::unique_ptr<verbs::Context> ownContext_; // PerThreadContext only
    std::unique_ptr<verbs::Cq> cq_;
    std::vector<std::unique_ptr<verbs::Qp>> qps_; // index = blade id
    std::uint32_t localMrId_ = 0; // MR covering the runtime scratch buffer
    std::uint32_t cacheMrId_ = 0; // MR covering the cache frame pool
};

/** One compute blade running SMART (or a baseline configuration). */
class SmartRuntime
{
  public:
    SmartRuntime(sim::Simulator &sim, const rnic::RnicConfig &hw_cfg,
                 const SmartConfig &cfg, std::uint32_t num_threads,
                 std::string name);
    ~SmartRuntime();

    /** Per-coroutine local scratch buffer bytes. */
    static constexpr std::uint32_t kScratchBytesPerCoro = 8192;

    sim::Simulator &sim() { return sim_; }
    rnic::Rnic &rnic() { return rnic_; }
    const rnic::Rnic &rnic() const { return rnic_; }
    /** @return diagnostic name ("cb0", ...), used as the blade label. */
    const std::string &name() const { return name_; }
    const SmartConfig &config() const { return cfg_; }
    std::uint32_t numThreads() const { return threads_.size(); }
    SmartThread &thread(std::uint32_t i) { return *threads_[i]; }

    /**
     * Connect every thread to @p blade, allocating QPs/CQs/doorbells per
     * the configured policy.
     * @return the blade index used with ptr()
     */
    std::uint32_t connect(memblade::MemoryBlade &blade);

    /** @return fat pointer to @p offset in connected blade @p blade_idx. */
    RemotePtr
    ptr(std::uint32_t blade_idx, std::uint64_t offset) const
    {
        const memblade::MemoryBlade *b = blades_[blade_idx];
        return RemotePtr{const_cast<rnic::Rnic *>(&bladeRnic(blade_idx)),
                         b->rkey(), offset};
    }

    /** @return number of connected memory blades. */
    std::uint32_t numBlades() const { return blades_.size(); }

    /**
     * @return restart incarnation of connected blade @p blade_idx. A
     * crash-restart bumps it; the cache flushes all lines of the blade
     * when it observes a change (the MRs backing them were invalidated).
     */
    std::uint64_t
    bladeIncarnation(std::uint32_t blade_idx) const
    {
        return blades_[blade_idx]->incarnation();
    }

    /**
     * @return the compute-side cache tier, or nullptr when the cache is
     * disabled (SmartConfig::cache.sizeBytes == 0). With no BufferManager
     * object at all, the disabled configuration is byte-identical to the
     * pre-cache code paths.
     */
    cache::BufferManager *cache() { return cache_.get(); }

    /**
     * Translation key addressing @p p inside the cache frame pool for
     * WRs posted by thread @p tid (per-thread device contexts register
     * the pool separately, so the MR id is thread-dependent).
     */
    std::uint64_t cacheTransKey(std::uint32_t tid,
                                const std::uint8_t *p) const;

    /**
     * Install the cluster membership view (owned by the MembershipPlane,
     * shared across runtimes). SmartCtx::access fences against it;
     * nullptr (the default) keeps every pre-membership code path.
     */
    void setClusterView(ClusterView *v) { clusterView_ = v; }

    /** @return the installed membership view, or nullptr. */
    ClusterView *clusterView() const { return clusterView_; }

    // ---- overload-side graceful degradation (§SmartConfig watermarks).
    //      Levels: 1 is an annotated early warning that sheds nothing,
    //      2 chunks doorbell batches, 3 delays user-op admission. All 0
    //      unless watermarks are set.

    /** @return this runtime's WRs currently outstanding to @p blade. */
    std::int64_t
    bladeOutstanding(std::uint32_t blade_idx) const
    {
        return blade_idx < bladeOutstanding_.size()
                   ? bladeOutstanding_[blade_idx]
                   : 0;
    }

    /** @return degradation level 0..3 for @p blade_idx. */
    std::uint32_t
    overloadLevel(std::uint32_t blade_idx) const
    {
        if (cfg_.overloadLowWm == 0)
            return 0;
        std::int64_t out = bladeOutstanding(blade_idx);
        if (out >= 2 * static_cast<std::int64_t>(cfg_.overloadHighWm))
            return 3;
        if (out >= static_cast<std::int64_t>(cfg_.overloadHighWm))
            return 2;
        if (out >= static_cast<std::int64_t>(cfg_.overloadLowWm))
            return 1;
        return 0;
    }

    /** @return doorbell-batch post cap for @p blade_idx (0 = no cap). */
    std::uint32_t
    overloadPostCap(std::uint32_t blade_idx) const
    {
        return overloadLevel(blade_idx) >= 2 ? cfg_.overloadChunkWrs : 0;
    }

    /** Degradation bookkeeping (called from the shedding sites). */
    void noteChunkedPost() { chunkedPosts_.add(); }
    void noteOpDelay() { opDelays_.add(); }

    /** Ladder engagement counts (benches, tests). */
    std::uint64_t chunkedPostCount() const { return chunkedPosts_.value(); }
    std::uint64_t opDelayCount() const { return opDelays_.value(); }

    /** Kick off the adaptive controller coroutines (idempotent). */
    void start();

    /**
     * Spawn an application coroutine on thread @p tid. The factory
     * receives a SmartCtx that stays valid for the coroutine's lifetime.
     */
    void spawnWorker(std::uint32_t tid,
                     std::function<sim::Task(SmartCtx &)> body);

    // ---- routing used by SmartCtx ----
    verbs::Qp &qpFor(std::uint32_t tid, std::uint32_t blade_idx);
    verbs::Cq &cqFor(std::uint32_t tid);

    /** @return scratch slice for coroutine @p coro_idx of thread @p tid. */
    std::uint8_t *scratchFor(std::uint32_t tid, std::uint32_t coro_idx,
                             std::uint64_t &trans_key);

    // ---- application-level statistics (filled by app glue code) ----
    sim::Counter appOps;
    sim::LatencyHistogram opLatency;
    /** retryHist[min(n, 63)]++ for an op that needed n retries. */
    std::vector<std::uint64_t> retryHist = std::vector<std::uint64_t>(64, 0);
    sim::Counter totalRetries;

    /** Record a finished application operation with @p retries retries. */
    void
    recordOp(sim::Time latency_ns, std::uint32_t retries)
    {
        appOps.add();
        opLatency.record(latency_ns);
        totalRetries.add(retries);
        retryHist[std::min<std::uint32_t>(retries, 63)]++;
    }

  private:
    friend class SmartThread;
    friend class SmartCtx;

    const rnic::Rnic &
    bladeRnic(std::uint32_t idx) const
    {
        return *bladeRnics_[idx];
    }

    /** Current rkey of connected blade @p idx (fresh after restarts). */
    std::uint32_t bladeRkey(std::uint32_t idx) const
    {
        return blades_[idx]->rkey();
    }

    sim::Task creditEpochLoop(SmartThread &t);
    sim::Task conflictLoop(SmartThread &t);
    static void dispatchCqe(const verbs::Wc &wc, const rnic::WorkReq &wr);
    void installDispatch(verbs::Cq &cq);
    /** Timeline annotation when @p blade_idx crosses a ladder level. */
    void noteOverloadTransition(std::uint32_t blade_idx);

    sim::Simulator &sim_;
    SmartConfig cfg_;
    rnic::Rnic rnic_;
    std::string name_;

    std::vector<std::unique_ptr<SmartThread>> threads_;
    std::vector<memblade::MemoryBlade *> blades_;
    std::vector<rnic::Rnic *> bladeRnics_;

    // Shared-context policies use one device context for the whole blade.
    std::unique_ptr<verbs::Context> sharedContext_;

    // SharedQp policy: one QP per blade, one CQ for everything.
    std::unique_ptr<verbs::Cq> sharedCq_;
    std::vector<std::unique_ptr<verbs::Qp>> sharedQps_;

    // PerThreadDb: unused QPs that consume the low-latency UARs so the
    // medium-latency round-robin aligns with thread ids.
    std::vector<std::unique_ptr<verbs::Qp>> dummyQps_;

    // MultiplexedQp policy: per group-of-q-threads CQ and QPs.
    std::vector<std::unique_ptr<verbs::Cq>> groupCqs_;
    std::vector<std::vector<std::unique_ptr<verbs::Qp>>> groupQps_;

    // Registered local scratch memory.
    std::vector<std::uint8_t> localBuf_;
    std::uint32_t sharedLocalMrId_ = 0;

    // Compute-side cache tier (null when cfg_.cache is disabled).
    std::unique_ptr<cache::BufferManager> cache_;
    std::uint32_t sharedCacheMrId_ = 0;

    // Membership view (owned by the MembershipPlane; null by default).
    ClusterView *clusterView_ = nullptr;

    // Per-blade outstanding-WR accounting (degradation ladder inputs):
    // +1 at stage, -1 at CQE dispatch; grown at connect().
    std::vector<std::int64_t> bladeOutstanding_;
    /** Last observed ladder level per blade (timeline annotations). */
    std::vector<std::uint32_t> lastOverloadLevel_;
    sim::Counter chunkedPosts_;
    sim::Counter opDelays_;

    std::vector<std::unique_ptr<SmartCtx>> workers_;
    bool started_ = false;
};

} // namespace smart

#endif // SMART_SMART_RUNTIME_HPP
