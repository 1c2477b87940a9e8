/**
 * @file
 * SmartCtx: the per-coroutine programming interface of SMART (§5.1).
 *
 * Two layers:
 *  - The verb-like staging API mirrors one-sided RDMA: read/write/cas/faa
 *    stage work requests into a local buffer, postSend() submits them
 *    (with Algorithm-1 credit throttling), sync() suspends the coroutine
 *    until all its posted WRs complete, and backoffCasSync() adds §4.3
 *    conflict avoidance. Use it when an operation wants to batch several
 *    WRs under one doorbell ring.
 *  - The unified awaitable access API (access()/accessMany(), plus typed
 *    RemoteRef<T> pin handles in remote_ref.hpp) is the preferred
 *    single-op surface: one co_await per remote access, with an explicit
 *    per-op CachePolicy deciding whether the compute-side cache tier
 *    (smart/cache/) may serve it. With the cache disabled the Cached and
 *    Bypass paths are identical staged-verb sequences, so event streams
 *    stay byte-identical to cache-less builds.
 *
 * With a ClusterView installed (membership runs), access()/accessMany()
 * fence at entry: an access addressing a Dead blade re-resolves a bounded
 * number of jittered polls and then surfaces VerbError::Kind::StaleView,
 * and a sync round whose failed WRs target a fenced blade gives up
 * immediately instead of burning its retry budget against a dead blade.
 */

#ifndef SMART_SMART_CTX_HPP
#define SMART_SMART_CTX_HPP

#include <cstdint>
#include <vector>

#include "sim/task.hpp"
#include "smart/access.hpp"
#include "smart/remote_ptr.hpp"
#include "smart/smart_runtime.hpp"
#include "verbs/mem_span.hpp"

namespace smart {

namespace cache {
class BufferManager;
}

/**
 * Typed verb failure surfaced to applications after SmartCtx's retry
 * policy gives up. kind == None means "no error" (the common case).
 */
struct VerbError
{
    enum class Kind : std::uint8_t
    {
        None,
        /** maxVerbRetries re-posts all failed. */
        RetriesExhausted,
        /** A sync round was abandoned by the verb timeout and its
         *  retries then failed too. */
        Timeout,
        /** The target blade is fenced by the cluster view (Dead): the
         *  access was never (re-)issued. Re-resolve placement and
         *  redirect instead of retrying the same blade. */
        StaleView,
    };

    Kind kind = Kind::None;
    /** Status of the last failed completion. */
    rnic::WcStatus status = rnic::WcStatus::Success;

    explicit operator bool() const { return kind != Kind::None; }
};

/** @return a short stable name for @p k. */
const char *verbErrorKindName(VerbError::Kind k);

/**
 * Handle held by one application coroutine. Not thread-safe (it belongs
 * to exactly one coroutine, which belongs to exactly one thread).
 *
 * Failure semantics: with a FaultPlane installed, every staged WR is
 * tracked; error completions are transparently retried (bounded by
 * SmartConfig::maxVerbRetries, spaced by backoff.hpp's truncated
 * exponential, with QP reconnects and rkey refreshes in between) and a
 * typed VerbError is surfaced through failed()/lastError() only when
 * the budget is exhausted. Without a plane, none of this bookkeeping
 * runs and the staging hot path is unchanged.
 */
class SmartCtx
{
  public:
    SmartCtx(SmartRuntime &rt, std::uint32_t tid, std::uint32_t coro_idx);

    SmartRuntime &runtime() { return rt_; }
    SmartThread &thread() { return thr_; }
    sim::Simulator &sim() { return rt_.sim(); }
    std::uint32_t coroIndex() const { return coroIdx_; }

    // ---- unified awaitable access API ----

    /**
     * Perform one remote access and wait for it. Reads/writes with
     * CachePolicy::Cached may be served by the compute-side cache tier
     * (when the runtime has one); CAS/FAA always go to the wire and
     * invalidate the covering cache line at completion. A CAS that finds
     * dirty cached data on its line forces a write-back round first, so
     * commit points never overtake buffered writes.
     */
    sim::Task access(RemotePtr p, AccessOp op,
                     CachePolicy pol = CachePolicy::Cached);

    /**
     * Batched reads: all parts are staged/served together (one doorbell
     * batch + one sync round for every wire op in the batch). With the
     * cache disabled or CachePolicy::Bypass this lowers to exactly the
     * classic stage-all + postSend + sync sequence.
     */
    sim::Task accessMany(const ReadPart *parts, std::uint32_t nparts,
                         CachePolicy pol = CachePolicy::Cached);

    /**
     * Drain every dirty cache frame to its blade (commit/shutdown
     * barrier). No-op without a cache tier.
     */
    sim::Task cacheFlush();

    /**
     * Pin the cache line covering @p p and expose a read-only view of
     * its bytes (used by RemoteRef<T>). When the line cannot be pinned
     * (cache disabled, span crosses lines, pool exhausted), the bytes
     * are read into @p fallback instead and @p frame is cache::kNoFrame.
     * On verb failure view stays nullptr.
     */
    sim::Task cachePin(RemotePtr p, MemSpan fallback,
                       const std::uint8_t *&view, std::uint32_t &frame);

    /** Release one cachePin() pin (no-op for cache::kNoFrame). */
    void cacheUnpin(std::uint32_t frame);

    // ---- verb-like staging API ----

    /** Stage a READ from @p src into @p dst. */
    void read(RemotePtr src, MemSpan dst);

    /**
     * Stage a WRITE of @p src to @p dst. The payload is copied into
     * coroutine scratch at staging time, so the caller may reuse its
     * buffer immediately. Resident cache lines are patched so cached
     * readers never observe older bytes than the wire.
     */
    void write(RemotePtr dst, ConstMemSpan src);

    /**
     * Stage an 8-byte compare-and-swap on @p dst. The old value lands in
     * @p result (must stay valid until sync()). The covering cache line
     * is invalidated when the completion arrives.
     */
    void cas(RemotePtr dst, std::uint64_t expect, std::uint64_t desired,
             std::uint64_t *result);

    /** Stage an 8-byte fetch-and-add on @p dst (invalidates like cas). */
    void faa(RemotePtr dst, std::uint64_t add, std::uint64_t *result);

    /** Post all staged WRs (SMARTPOSTSEND: waits for credits if needed). */
    sim::Task postSend();

    /** Suspend until every WR this coroutine posted has completed. */
    sim::Task sync();

    // ---- convenience combinations ----

    /**
     * CAS + sync with §4.3 conflict avoidance: on failure, delays the
     * coroutine by the truncated exponential backoff before returning, so
     * the caller can reload the expected value and retry.
     *
     * @param[out] old_value the value found at @p dst
     * @param[out] success   true if the swap was installed
     */
    sim::Task backoffCasSync(RemotePtr dst, std::uint64_t expect,
                             std::uint64_t desired, std::uint64_t &old_value,
                             bool &success);

    /** Charge @p d ns of CPU work on this coroutine's thread. */
    sim::Task compute(sim::Time d);

    /**
     * Admission gate for one application-level operation (coroutine
     * throttling, §4.3). Call opBegin() before starting an operation and
     * opEnd() after it completes.
     */
    sim::Task opBegin();
    void opEnd();

    /** @return scratch bytes private to this coroutine (ring-allocated). */
    std::uint8_t *scratch(std::uint32_t bytes);

    /** Consecutive failed-CAS streak (drives the backoff exponent). */
    std::uint32_t casFailStreak() const { return casFailStreak_; }

    /** @return connected-blade index addressed by @p p. */
    std::uint32_t bladeIndex(const RemotePtr &p) const;

    // ---- failure surface ----

    /** @return true if the last sync() gave up after retries. */
    bool failed() const { return error_.kind != VerbError::Kind::None; }

    /** @return the surfaced error (kind None when healthy). */
    const VerbError &lastError() const { return error_; }

    /** Acknowledge the error so the next operation starts clean. */
    void clearError() { error_ = VerbError{}; }

    /**
     * Completion bookkeeping, called from the CQE dispatch path (not an
     * application API). Success drops the in-flight record; a failure
     * moves it to the retry set that sync() drains.
     */
    void noteWrCompletion(const rnic::WorkReq &wr, rnic::WcStatus status);

    /** Capacity growths of the retry-tracking vectors (allocation
     *  audit; stops moving once the buffers are warm). */
    std::uint64_t trackBufGrowths() const { return trackBufGrowths_; }

    /** Open span of the current sampled op (0 = untraced; tests). */
    sim::SpanId opSpan() const { return opSpan_; }

  private:
    friend class SmartRuntime;
    friend class cache::BufferManager;

    /** One tracked WR: enough to re-stage it on failure. */
    struct TrackedWr
    {
        std::uint32_t blade = 0;
        rnic::WorkReq wr;
    };

    void stage(const RemotePtr &p, rnic::WorkReq wr);

    /** stage() with an explicit local MTT key (cache frames live in a
     *  different MR than coroutine scratch). */
    void stageKeyed(const RemotePtr &p, rnic::WorkReq wr,
                    std::uint64_t trans_key);

    /** Stage a cache fill READ landing directly in @p frame. */
    void stageCacheFill(const RemotePtr &line_src, MemSpan frame,
                        std::uint64_t cookie);

    /** Stage a cache write-back WRITE sourced directly from @p frame
     *  (no copy-on-stage: the frame stays stable until the CQE). */
    void stageCacheWrite(const RemotePtr &line_dst, ConstMemSpan frame,
                         std::uint64_t cookie);

    /** Charge cache service CPU time under a Stage::Cache leaf span. */
    sim::Task cacheCharge(sim::Time d);

    /** Shared CAS implementation (access(), backoffCasSync, shims). */
    sim::Task casAccess(RemotePtr dst, std::uint64_t expect,
                        std::uint64_t desired, std::uint64_t &old_value,
                        bool &success);

    /** Park until the current round completes (or times out). */
    sim::Task awaitRound();

    /**
     * Epoch fence + overload admission for one access to @p blade_idx
     * (no-op without a ClusterView / without watermarks). A fenced blade
     * is polled kMaxViewWaits times with decorrelated-jitter delays;
     * still fenced -> error_ = StaleView and the caller must not issue.
     */
    sim::Task admitAccess(std::uint32_t blade_idx);

    /** Verb timeout callback; @p arm_id guards against stale firings. */
    void onSyncTimeout(std::uint64_t arm_id);

    /** Re-stage @p t into the (bumped) current round, rkey refreshed. */
    void restage(TrackedWr t);

    /** Deepest open span of this coroutine (attribution parent). */
    sim::SpanId
    currentSpan() const
    {
        if (retrySpan_ != 0)
            return retrySpan_;
        return verbSpan_ != 0 ? verbSpan_ : opSpan_;
    }

    /** Close the open verb span (called at every sync() exit). */
    void endVerbSpan();

    SmartRuntime &rt_;
    SmartThread &thr_;
    std::uint32_t coroIdx_;

    SyncState syncState_;
    std::vector<bool> stagedBlades_; // blades staged to since last post

    std::uint8_t *scratchBase_ = nullptr;
    std::uint64_t scratchTransKey_ = 0;
    std::uint32_t scratchPos_ = 0;

    std::uint32_t casFailStreak_ = 0;
    /** Landing slot for CAS/FAA accesses (must outlive abandoned
     *  rounds, so it cannot live in a coroutine frame). */
    std::uint64_t casLanding_ = 0;
    /** Decorrelated-jitter state for fence polls / overload delays
     *  (reset when the awaited condition clears). */
    std::uint64_t viewJitterPrev_ = 0;

    // ---- span recording (all zero unless a SpanTracer is installed
    //      and the current op is sampled; see sim/span.hpp) ----
    sim::TrackId track_ = 0;      ///< this coroutine's track (lazy)
    sim::SpanId opSpan_ = 0;      ///< open op span
    sim::SpanId verbSpan_ = 0;    ///< open verb span (stage..sync)
    sim::SpanId retrySpan_ = 0;   ///< open retry-round span
    std::uint64_t opSampleCount_ = 0; ///< every-Nth-op sampling counter

    // ---- failure tracking (populated only under a FaultPlane) ----
    std::vector<TrackedWr> inflight_;
    std::vector<TrackedWr> failed_;
    /** Swap partner of failed_ in sync()'s retry loop (capacity reuse). */
    std::vector<TrackedWr> retryBuf_;
    /** Capacity growths of the tracking vectors (allocation audit;
     *  must stabilize after warm-up — tests assert it). */
    std::uint64_t trackBufGrowths_ = 0;
    std::uint64_t nextAppTag_ = 1;
    std::uint64_t armId_ = 0;
    bool timedOut_ = false;
    std::uint64_t failedUntracked_ = 0;
    rnic::WcStatus lastFailStatus_ = rnic::WcStatus::Success;
    VerbError error_;
};

} // namespace smart

#endif // SMART_SMART_CTX_HPP
