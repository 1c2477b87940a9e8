/**
 * @file
 * Allocation-free event core of the DES kernel: a small-buffer inline
 * callback type (EventFn) and a two-tier calendar/heap queue ordered by
 * (time, insertion sequence).
 *
 * Every simulated verb flows through here, so the hot path must not touch
 * the allocator. EventFn stores its callable inline in 24 bytes — there is
 * deliberately no heap fallback; an oversized capture is a compile error,
 * forcing call sites to capture pointers/indices instead of owning
 * objects. The dominant event kind, "resume this coroutine at time T",
 * gets a dedicated vtable with no capture object at all.
 *
 * The queue itself is a calendar queue: near-future events (the dense
 * now + small-delay traffic from doorbells, CQEs and backoffs) land in a
 * bucketed ring of 1 ns slots, far-future events spill to a binary heap.
 * Both tiers honor the same (time, seq) FIFO tie-break, so equal-timestamp
 * ordering — and with it whole-simulation determinism — is identical to
 * the old single std::priority_queue.
 */

#ifndef SMART_SIM_EVENT_QUEUE_HPP
#define SMART_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace smart::sim {

class EventQueue;

/**
 * Process-wide tally of DES kernel work, aggregated across every
 * Simulator instance in the process. Reporter/BenchCli read this via
 * collectKernelPerf() to emit the perf block; benches with several
 * Simulators (scale-out sweeps) still get one coherent events/sec figure.
 *
 * eventsProcessed/ringInserts/heapInserts sum across queues;
 * peakQueueDepth is the max over per-queue peaks (queues never share
 * storage, so summing peaks would be meaningless).
 */
struct KernelPerf
{
    std::uint64_t eventsProcessed = 0;
    std::uint64_t peakQueueDepth = 0;
    /** Tier split of insertions (diagnostic: the ring should dominate). */
    std::uint64_t ringInserts = 0;
    std::uint64_t heapInserts = 0;
};

/** Aggregate kernel counters across all EventQueues, live and destroyed. */
KernelPerf collectKernelPerf();

/**
 * Move-only callable with fixed 24-byte inline storage and no heap
 * fallback. Dispatch goes through a static per-type Ops table; trivially
 * relocatable/destructible captures get null entries so moves are a
 * memcpy and destruction is free.
 *
 * The budget is deliberately tight: with it, a queue Item is 48 bytes,
 * so calendar buckets pack 4 items per 3 cache lines. Event throughput
 * is bounded by cache misses on the ring, not by arithmetic, so Item
 * size is the single most perf-sensitive constant in the kernel. Big
 * captures belong behind a pointer (or a unique_ptr for owning cases).
 */
class EventFn
{
  public:
    static constexpr std::size_t kInlineBytes = 24;
    static constexpr std::size_t kInlineAlign = 8;

    EventFn() noexcept = default;

    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                 std::is_invocable_r_v<void, std::remove_cvref_t<F> &>)
    EventFn(F &&f) // NOLINT(bugprone-forwarding-reference-overload)
    {
        using Fn = std::remove_cvref_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "event callback capture exceeds the 24-byte inline "
                      "budget; capture pointers/indices, not owning "
                      "objects (see DESIGN.md, DES kernel internals)");
        static_assert(alignof(Fn) <= kInlineAlign,
                      "event callback is over-aligned for inline storage");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event callback must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    /**
     * Fast path for the dominant event kind: resume @p h. No capture
     * object is constructed; the handle address lives raw in the buffer
     * and the shared kResumeOps table needs neither relocate nor destroy.
     */
    static EventFn
    resume(std::coroutine_handle<> h) noexcept
    {
        EventFn e;
        void *addr = h.address();
        std::memcpy(e.buf_, &addr, sizeof(addr));
        e.ops_ = &kResumeOps;
        return e;
    }

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** @return true if built by resume() (tests, introspection). */
    bool isResume() const noexcept { return ops_ == &kResumeOps; }

    void
    operator()()
    {
        assert(ops_ != nullptr);
        ops_->invoke(buf_);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *self);
        /** nullptr = trivially relocatable (plain memcpy). */
        void (*relocate)(void *dst, void *src) noexcept;
        /** nullptr = trivially destructible. */
        void (*destroy)(void *self) noexcept;
    };

    template <typename Fn>
    static void
    invokeFn(void *p)
    {
        (*static_cast<Fn *>(p))();
    }

    template <typename Fn>
    static void
    relocateFn(void *dst, void *src) noexcept
    {
        Fn *s = static_cast<Fn *>(src);
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
    }

    template <typename Fn>
    static void
    destroyFn(void *p) noexcept
    {
        static_cast<Fn *>(p)->~Fn();
    }

    template <typename Fn>
    static constexpr Ops opsFor{
        &invokeFn<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr : &relocateFn<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroyFn<Fn>,
    };

    static void
    invokeResume(void *p)
    {
        void *addr = nullptr;
        std::memcpy(&addr, p, sizeof(addr));
        std::coroutine_handle<>::from_address(addr).resume();
    }

    static constexpr Ops kResumeOps{&invokeResume, nullptr, nullptr};

    void
    moveFrom(EventFn &o) noexcept
    {
        ops_ = o.ops_;
        if (ops_ != nullptr) {
            if (ops_->relocate != nullptr)
                ops_->relocate(buf_, o.buf_);
            else
                std::memcpy(buf_, o.buf_, kInlineBytes);
            o.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_ != nullptr && ops_->destroy != nullptr)
            ops_->destroy(buf_);
        ops_ = nullptr;
    }

    alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

/**
 * Two-tier event queue ordered by (time, insertion sequence).
 *
 * Tier 1 is a calendar ring of kRingSize 1 ns buckets covering
 * [ringBase_, ringBase_ + kRingSize); nearly all simulated delays (pipe
 * issue, doorbell, PCIe, DMA, propagation — see rnic_config.hpp) fall in
 * this 1 µs window, so insertion is "index by (when & mask), append".
 * The window is sized for cache footprint, not coverage: events are
 * brought to the CPU by random bucket indexing, so a compact ring (64 KB
 * of hot bucket lines) beats a wide one, and the occasional 1 µs+
 * backoff or timeout spills to the heap tier at log cost. An occupancy bitmap makes skipping empty
 * buckets O(popcount word), and the distance to the earliest occupied
 * bucket is memoized so the steady-state nextTime()/pop() pair scans it
 * at most once per event.
 * Within a bucket every item has the same timestamp and is drained in
 * insertion order.
 *
 * Tier 2 is a plain binary min-heap for far-future events (retry timers,
 * controller epochs). pop() compares (time, seq) across tiers, so events
 * with equal timestamps execute in insertion order even when one was far
 * (heap) at insert time and the other near (ring).
 *
 * ringBase_ only advances when a ring event is popped, and never past the
 * earliest pending ring event, so the bucket window guard at insert stays
 * valid for the lifetime of every admitted item.
 */
class EventQueue
{
  public:
    using Callback = EventFn;

    EventQueue();
    ~EventQueue();
    /* Pinned: the process-wide perf registry holds this queue's address
     * for its whole lifetime. */
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute virtual time @p when. Takes an
     * rvalue reference (not by-value) so the callable built at the call
     * site is moved exactly once, directly into its queue Item.
     */
    void
    scheduleAt(Time when, EventFn &&cb)
    {
        insert(when, nextSeq_++, std::move(cb));
    }

    /** Fast path: resume @p h at absolute virtual time @p when. */
    void
    scheduleResumeAt(Time when, std::coroutine_handle<> h)
    {
        insert(when, nextSeq_++, EventFn::resume(h));
    }

    /** @return true if no events remain. */
    bool empty() const { return size_ == 0; }

    /** @return number of pending events. */
    std::size_t size() const { return size_; }

    /** @return timestamp of the earliest pending event. */
    Time
    nextTime() const
    {
        Time t = kTimeNever;
        if (ringCount_ > 0)
            t = peekRingTime();
        if (!heap_.empty() && heap_.front().when < t)
            t = heap_.front().when;
        return t;
    }

    /**
     * Pop the earliest event (ties broken by insertion sequence across
     * both tiers).
     * @pre !empty()
     */
    EventFn
    pop(Time &when_out)
    {
        assert(size_ > 0);
        bool use_ring = false;
        std::size_t dist = 0;
        decideTier(use_ring, dist);
        return commitPop(use_ring, dist, when_out);
    }

    /**
     * Pop the earliest event only if it fires at or before @p deadline.
     * One tier decision serves both the peek and the pop: the
     * steady-state runUntil() loop otherwise pays the (memoized) scan
     * and the cross-tier compare twice per event.
     * @return true iff an event was popped into @p when_out / @p fn_out.
     */
    bool
    popIfAtOrBefore(Time deadline, Time &when_out, EventFn &fn_out)
    {
        if (size_ == 0)
            return false;
        bool use_ring = false;
        std::size_t dist = 0;
        if (decideTier(use_ring, dist) > deadline)
            return false;
        fn_out = commitPop(use_ring, dist, when_out);
        return true;
    }

    /** Total number of events ever scheduled (for perf reporting). */
    std::uint64_t totalScheduled() const { return nextSeq_; }

    /** Total number of events popped from this queue. */
    std::uint64_t totalProcessed() const { return processed_; }

    /** High-water mark of pending events. */
    std::uint64_t peakDepth() const { return peak_; }

    /** Insertions that landed in the calendar-ring tier. */
    std::uint64_t ringInserts() const { return ringInserts_; }

    /** Insertions that spilled to the far-future heap tier. */
    std::uint64_t heapInserts() const { return heapInserts_; }

    /** Events currently waiting in the far-future heap tier (tests). */
    std::size_t heapTierSize() const { return heap_.size(); }

    /** Events currently waiting in the calendar ring tier (tests). */
    std::size_t ringTierSize() const { return ringCount_; }

    /**
     * Pre-reserve @p per_bucket overflow slots in every calendar bucket
     * (and @p heap_slots in the far heap). Overflow storage normally
     * grows lazily on the first N-way timestamp collision; allocation-free
     * gates (bench/kernel_stress) call this so a first-ever collision
     * inside the measured window cannot trigger a vector growth.
     */
    void
    reserveStorage(std::size_t per_bucket, std::size_t heap_slots)
    {
        for (Overflow &o : overflowRing_)
            o.items.reserve(per_bucket);
        heap_.reserve(heap_slots);
    }

  private:
    struct Item
    {
        Time when;
        std::uint64_t seq;
        EventFn fn;

        Item(Time w, std::uint64_t s, EventFn &&f) noexcept
            : when(w), seq(s), fn(std::move(f))
        {
        }
    };

    /** Heap comparator: true if @p a fires later than @p b (min-heap). */
    struct ItemLater
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::size_t kRingBits = 10;
    static constexpr std::size_t kRingSize = std::size_t{1} << kRingBits;
    static constexpr std::size_t kRingMask = kRingSize - 1;
    static constexpr std::size_t kOccWords = kRingSize / 64;

    /**
     * One calendar slot, split hot/cold. The hot header is exactly one
     * cache line: the first item is stored inline plus a live count; in
     * steady state most buckets hold exactly one event, so insert and
     * pop touch only this line. Same-timestamp collisions overflow to a
     * parallel cold ring of vectors (overflowRing_) that the hot path
     * never reads. The inline slot always holds the lowest-seq item of
     * the bucket (it is only filled when the bucket is empty, and every
     * item in an occupied bucket shares one timestamp), so pop order is
     * slot first, then overflow in insertion order.
     */
    struct alignas(64) Bucket
    {
        alignas(Item) unsigned char slot[sizeof(Item)];
        bool slotUsed = false;
        /** Live items in this bucket (inline slot + overflow). */
        std::uint32_t count = 0;

        Item &
        slotItem()
        {
            return *std::launder(reinterpret_cast<Item *>(slot));
        }

        const Item &
        slotItem() const
        {
            return *std::launder(reinterpret_cast<const Item *>(slot));
        }

        ~Bucket()
        {
            if (slotUsed)
                slotItem().~Item();
        }
    };
    static_assert(sizeof(Bucket) == 64,
                  "hot bucket header must stay a single cache line");

    /** Cold side of a bucket: collision overflow, drained via head. */
    struct Overflow
    {
        std::vector<Item> items;
        std::uint32_t head = 0;
    };

    void
    insert(Time when, std::uint64_t seq, EventFn &&fn)
    {
        ++size_;
        if (size_ > peak_)
            peak_ = size_;
        // Unsigned subtraction: when < ringBase_ cannot happen (the
        // Simulator clamps to now and ringBase_ never passes the earliest
        // pending event), but would wrap huge and fall to the heap, which
        // stays correct.
        if (when - ringBase_ < kRingSize) {
            std::size_t idx = static_cast<std::size_t>(when) & kRingMask;
            Bucket &b = ring_[idx];
            if (b.count == 0) {
                setOccupied(idx);
                ::new (static_cast<void *>(b.slot))
                    Item(when, seq, std::move(fn));
                b.slotUsed = true;
            } else {
                overflowRing_[idx].items.emplace_back(when, seq,
                                                      std::move(fn));
            }
            ++b.count;
            ++ringCount_;
            ++ringInserts_;
            std::size_t dist = static_cast<std::size_t>(when - ringBase_);
            if (ringCount_ == 1 || (nearValid_ && dist < nearDist_)) {
                nearDist_ = dist;
                nearValid_ = true;
            }
        } else {
            heap_.emplace_back(when, seq, std::move(fn));
            std::push_heap(heap_.begin(), heap_.end(), ItemLater{});
            ++heapInserts_;
        }
    }

    /**
     * Choose the tier holding the earliest (time, seq) event and report
     * its timestamp. @p dist is the ring scan distance when the ring
     * holds anything (reused by commitPop to skip a second scan).
     * @pre size_ > 0
     */
    Time
    decideTier(bool &use_ring, std::size_t &dist) const
    {
        if (ringCount_ > 0) {
            dist = occupiedDistance();
            if (heap_.empty()) {
                use_ring = true;
                return ringBase_ + dist;
            }
            std::size_t idx =
                static_cast<std::size_t>(ringBase_ + dist) & kRingMask;
            const Bucket &rb = ring_[idx];
            const Overflow &ro = overflowRing_[idx];
            const Item &r = rb.slotUsed ? rb.slotItem() : ro.items[ro.head];
            const Item &h = heap_.front();
            use_ring = r.when != h.when ? r.when < h.when : r.seq < h.seq;
            return use_ring ? r.when : h.when;
        }
        use_ring = false;
        return heap_.front().when;
    }

    /** Extract the event decideTier() chose and update all bookkeeping. */
    EventFn
    commitPop(bool use_ring, std::size_t dist, Time &when_out)
    {
        --size_;
        ++processed_;

        if (use_ring) {
            // Advance the window only on a ring pop: if the heap tier won
            // (an overdue far-future event), moving ringBase_ forward here
            // would push upcoming near-future inserts out of the window.
            ringBase_ += dist;
            std::size_t bucketIdx =
                static_cast<std::size_t>(ringBase_) & kRingMask;
            Bucket &b = ring_[bucketIdx];
            EventFn fn;
            if (b.slotUsed) {
                Item &it = b.slotItem();
                when_out = it.when;
                fn = std::move(it.fn);
                it.~Item();
                b.slotUsed = false;
            } else {
                Overflow &o = overflowRing_[bucketIdx];
                Item &it = o.items[o.head];
                when_out = it.when;
                fn = std::move(it.fn);
                if (++o.head == o.items.size()) {
                    o.items.clear();
                    o.head = 0;
                }
            }
            if (--b.count == 0) {
                clearOccupied(bucketIdx);
                nearValid_ = false; // next ask rescans from the new base
            } else {
                nearDist_ = 0; // same bucket still holds the earliest
                nearValid_ = true;
            }
            --ringCount_;
            return fn;
        }

        std::pop_heap(heap_.begin(), heap_.end(), ItemLater{});
        Item it = std::move(heap_.back());
        heap_.pop_back();
        when_out = it.when;
        // With the ring empty there is no admitted item the window guard
        // protects, so snap the window forward to the present. Without
        // this, a heap-only quiet period (e.g. only a far-future epoch
        // tick pending) would leave ringBase_ behind forever and every
        // later near-future insert would spill to the heap.
        if (ringCount_ == 0 && it.when > ringBase_) {
            ringBase_ = it.when;
            nearValid_ = false;
        }
        return std::move(it.fn);
    }

    void
    setOccupied(std::size_t idx)
    {
        occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    void
    clearOccupied(std::size_t idx)
    {
        occ_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    /** @return timestamp of the earliest pending ring event (const). */
    Time
    peekRingTime() const
    {
        return ringBase_ + occupiedDistance();
    }

    /**
     * Circular distance (in buckets) from ringBase_'s bucket to the first
     * occupied bucket. All pending ring items live within
     * [ringBase_, ringBase_ + kRingSize), so the distance is unique.
     * Memoized in nearDist_: the steady-state runUntil loop asks twice
     * per event (nextTime, then pop), and inserts of an earlier event
     * keep the memo exact without a rescan.
     * @pre ringCount_ > 0
     */
    std::size_t
    occupiedDistance() const
    {
        if (nearValid_)
            return nearDist_;
        std::size_t from = static_cast<std::size_t>(ringBase_) & kRingMask;
        std::size_t w = from >> 6;
        std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (from & 63));
        for (std::size_t i = 0; i <= kOccWords; ++i) {
            if (word != 0) {
                std::size_t idx =
                    (w << 6) | static_cast<std::size_t>(
                                   std::countr_zero(word));
                nearDist_ = (idx - from) & kRingMask;
                nearValid_ = true;
                return nearDist_;
            }
            w = (w + 1) & (kOccWords - 1);
            word = occ_[w];
        }
        assert(false && "occupancy bitmap empty while ringCount_ > 0");
        return 0;
    }

    // Both rings live on the heap (one allocation each at construction):
    // kRingSize hot lines plus cold overflow would be ~0.4 MB inline,
    // too much for stack-constructed Simulators.
    std::vector<Bucket> ring_ = std::vector<Bucket>(kRingSize);
    std::vector<Overflow> overflowRing_ = std::vector<Overflow>(kRingSize);
    std::array<std::uint64_t, kOccWords> occ_{};
    Time ringBase_ = 0;
    std::size_t ringCount_ = 0;
    // Memo: distance from ringBase_ to the earliest occupied bucket.
    // Valid only when nearValid_; exact whenever valid. Mutable because
    // the const peek path (nextTime) fills it.
    mutable std::size_t nearDist_ = 0;
    mutable bool nearValid_ = false;
    std::vector<Item> heap_;
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t peak_ = 0;
    std::uint64_t ringInserts_ = 0;
    std::uint64_t heapInserts_ = 0;
};

namespace detail {

/**
 * Registry behind collectKernelPerf(): live queues plus the summed
 * counters of destroyed ones. Registration happens at Simulator
 * construction/destruction, never on the per-event hot path, which
 * touches only per-queue plain fields.
 */
struct KernelPerfRegistry
{
    std::vector<EventQueue *> live;
    KernelPerf retired;
};

inline KernelPerfRegistry &
kernelPerfRegistry()
{
    static KernelPerfRegistry r;
    return r;
}

inline void
addKernelPerf(KernelPerf &into, const EventQueue &q)
{
    into.eventsProcessed += q.totalProcessed();
    into.ringInserts += q.ringInserts();
    into.heapInserts += q.heapInserts();
    into.peakQueueDepth = std::max(into.peakQueueDepth, q.peakDepth());
}

} // namespace detail

inline EventQueue::EventQueue()
{
    detail::kernelPerfRegistry().live.push_back(this);
}

inline EventQueue::~EventQueue()
{
    detail::KernelPerfRegistry &r = detail::kernelPerfRegistry();
    detail::addKernelPerf(r.retired, *this);
    std::erase(r.live, this);
}

inline KernelPerf
collectKernelPerf()
{
    const detail::KernelPerfRegistry &r = detail::kernelPerfRegistry();
    KernelPerf out = r.retired;
    for (const EventQueue *q : r.live)
        detail::addKernelPerf(out, *q);
    return out;
}

} // namespace smart::sim

#endif // SMART_SIM_EVENT_QUEUE_HPP
