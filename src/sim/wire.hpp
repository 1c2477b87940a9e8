/**
 * @file
 * Wire mailboxes: how blade-to-blade traffic reaches the event queue.
 *
 * Every interaction that crosses a simulated wire goes through a
 * timestamped WireMsg parked in the Simulator's WireInbox, never by
 * scheduling directly into the EventQueue. Messages carry a
 * (deliveryTime, srcId, perSourceSeq) key; the inbox holds them until the
 * clock reaches deliveryTime and then injects them, sorted by that key,
 * as ordinary events. The injection point fixes the FIFO sequence each
 * delivery draws in the queue, so this discipline decides the order of
 * same-time events and is part of the simulated result (DESIGN.md §14).
 */

#ifndef SMART_SIM_WIRE_HPP
#define SMART_SIM_WIRE_HPP

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace smart::sim {

class Simulator;

/**
 * One timestamped message crossing a simulated wire. Type-erased like
 * EventFn, but with a larger inline budget (an RNIC request/response
 * packet, including an embedded WorkReq and payload vector, must fit)
 * and an explicit delivery key used for deterministic ordering.
 *
 * deliver() consumes the payload: the callable is moved out, the inline
 * object destroyed, and then the callable invoked (it may recurse into
 * schedule/send paths).
 */
class WireMsg
{
  public:
    static constexpr std::size_t kPayloadBytes = 216;
    static constexpr std::size_t kPayloadAlign = 16;

    /** Delivery key, ordered lexicographically (dtime, srcId, seq). */
    Time dtime = 0;
    std::uint64_t seq = 0;
    std::uint32_t srcId = 0;

    WireMsg() noexcept = default;
    WireMsg(WireMsg &&o) noexcept { moveFrom(o); }

    WireMsg &
    operator=(WireMsg &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    WireMsg(const WireMsg &) = delete;
    WireMsg &operator=(const WireMsg &) = delete;
    ~WireMsg() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Build a message whose delivery runs @p payload's operator(). */
    template <typename P>
    static WireMsg
    make(Time dtime, std::uint32_t src_id, std::uint64_t seq, P &&payload)
    {
        using Fn = std::remove_cvref_t<P>;
        static_assert(sizeof(Fn) <= kPayloadBytes,
                      "wire payload exceeds the inline budget; shrink the "
                      "packet or carry a pointer");
        static_assert(alignof(Fn) <= kPayloadAlign,
                      "wire payload over-aligned for inline storage");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "wire payload must be nothrow-movable");
        WireMsg m;
        m.dtime = dtime;
        m.srcId = src_id;
        m.seq = seq;
        ::new (static_cast<void *>(m.buf_)) Fn(std::forward<P>(payload));
        m.ops_ = &opsFor<Fn>;
        return m;
    }

    /** Run the payload and leave this message empty. */
    void
    deliver()
    {
        assert(ops_ != nullptr);
        const Ops *ops = ops_;
        ops_ = nullptr;
        ops->deliver(buf_);
    }

    /** True if this key orders before @p o under (dtime, srcId, seq). */
    bool
    before(const WireMsg &o) const noexcept
    {
        if (dtime != o.dtime)
            return dtime < o.dtime;
        if (srcId != o.srcId)
            return srcId < o.srcId;
        return seq < o.seq;
    }

  private:
    struct Ops
    {
        /** Move payload out, destroy it in place, invoke the copy. */
        void (*deliver)(void *src);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *src) noexcept;
    };

    template <typename Fn>
    static void
    deliverFn(void *src)
    {
        Fn *s = static_cast<Fn *>(src);
        Fn local(std::move(*s));
        s->~Fn();
        local();
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
    destroyFn(void *src) noexcept
    {
        static_cast<Fn *>(src)->~Fn();
    }

    template <typename Fn>
    static constexpr Ops opsFor{&deliverFn<Fn>, &relocateFn<Fn>,
                                &destroyFn<Fn>};

    void
    moveFrom(WireMsg &o) noexcept
    {
        dtime = o.dtime;
        seq = o.seq;
        srcId = o.srcId;
        ops_ = o.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(buf_, o.buf_);
            o.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(kPayloadAlign) unsigned char buf_[kPayloadBytes];
    const Ops *ops_ = nullptr;
};

/**
 * Per-Simulator holding pen for in-flight wire messages, ordered by
 * (dtime, srcId, seq). The run loop injects messages into the event
 * queue only when the clock first reaches their delivery time — never
 * eagerly — so each injected event draws its FIFO sequence after every
 * local event scheduled earlier for a strictly smaller time has run.
 */
class WireInbox
{
  public:
    WireInbox() = default;
    WireInbox(const WireInbox &) = delete;
    WireInbox &operator=(const WireInbox &) = delete;

    ~WireInbox()
    {
        // Destroy every node carved in a block before freeing it: a
        // message still in heap_, or popped into an Inject event that
        // never ran, owns its payload (e.g. a READ response's data). A
        // delivered node is already empty, so destroying it is a no-op.
        for (Node *b : blocks_) {
            for (std::size_t i = 0; i < kBlock; ++i)
                b[i].~Node();
            ::operator delete[](reinterpret_cast<unsigned char *>(b));
        }
    }

    /** Earliest pending delivery time, or kTimeNever when empty. */
    Time minTime() const noexcept { return min_; }

    bool empty() const noexcept { return heap_.empty(); }

    /** Park @p m until the destination clock reaches m.dtime. */
    void
    push(WireMsg &&m)
    {
        Node *n = acquireNode();
        n->msg = std::move(m);
        heap_.push_back(n);
        siftUp(heap_.size() - 1);
        min_ = heap_.front()->msg.dtime;
    }

    /**
     * Inject every pending message with dtime <= @p t into @p q as an
     * ordinary event at its delivery time, in (dtime, srcId, seq) order.
     * Call only when the run loop has exhausted all local events
     * strictly before the inbox minimum.
     */
    void
    injectUpTo(Time t, EventQueue &q)
    {
        while (!heap_.empty() && heap_.front()->msg.dtime <= t) {
            Node *n = popMin();
            struct Inject
            {
                WireInbox *inbox;
                Node *node;

                void
                operator()()
                {
                    Node *nd = node;
                    WireInbox *ib = inbox;
                    nd->msg.deliver();
                    ib->releaseNode(nd);
                }
            };
            q.scheduleAt(n->msg.dtime, Inject{this, n});
        }
        min_ = heap_.empty() ? kTimeNever : heap_.front()->msg.dtime;
    }

    /** Pre-grow node and heap storage (alloc-sensitive callers). */
    void
    reserve(std::size_t n)
    {
        heap_.reserve(n);
        free_.reserve(n);
        while (free_.size() < n)
            grow();
    }

  private:
    struct Node
    {
        WireMsg msg;
    };

    /** Nodes carved per allocated block. */
    static constexpr std::size_t kBlock = 64;

    Node *
    acquireNode()
    {
        if (free_.empty())
            grow();
        Node *n = free_.back();
        free_.pop_back();
        return n;
    }

    void
    releaseNode(Node *n) noexcept
    {
        // free_ was reserved to cover every node ever handed out, so this
        // push_back cannot allocate.
        free_.push_back(n);
    }

    void
    grow()
    {
        auto *raw = static_cast<unsigned char *>(
            ::operator new[](kBlock * sizeof(Node)));
        Node *arr = reinterpret_cast<Node *>(raw);
        blocks_.push_back(arr);
        // Capacity covers every node ever carved, so releaseNode() can
        // return any outstanding node without reallocating.
        free_.reserve(blocks_.size() * kBlock);
        for (std::size_t i = 0; i < kBlock; ++i)
            free_.push_back(::new (static_cast<void *>(arr + i)) Node{});
    }

    Node *
    popMin()
    {
        Node *top = heap_.front();
        Node *last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_.front() = last;
            siftDown(0);
        }
        return top;
    }

    void
    siftUp(std::size_t i)
    {
        while (i > 0) {
            std::size_t p = (i - 1) / 2;
            if (!heap_[i]->msg.before(heap_[p]->msg))
                break;
            std::swap(heap_[i], heap_[p]);
            i = p;
        }
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        for (;;) {
            std::size_t l = 2 * i + 1;
            if (l >= n)
                break;
            std::size_t m = l;
            if (l + 1 < n && heap_[l + 1]->msg.before(heap_[l]->msg))
                m = l + 1;
            if (!heap_[m]->msg.before(heap_[i]->msg))
                break;
            std::swap(heap_[i], heap_[m]);
            i = m;
        }
    }

    std::vector<Node *> heap_;
    std::vector<Node *> free_;
    std::vector<Node *> blocks_;
    Time min_ = kTimeNever;
};

/**
 * A named sender on the wire: owns a process-globally ordered source id
 * and the per-source delivery sequence. Construction order fixes srcId,
 * and with it every same-time delivery tie-break.
 */
class WireEndpoint
{
  public:
    explicit WireEndpoint(Simulator &sim) : sim_(sim), srcId_(nextId()) {}

    WireEndpoint(const WireEndpoint &) = delete;
    WireEndpoint &operator=(const WireEndpoint &) = delete;

    std::uint32_t srcId() const noexcept { return srcId_; }

    /**
     * Send @p payload for delivery at absolute virtual time @p dtime
     * (>= now). @p dst must be the sender's own Simulator: one Simulator
     * holds the whole cluster. The payload's operator() runs inside the
     * injected delivery event. A past-dated or cross-Simulator send
     * aborts (always on, not an assert).
     */
    template <typename P>
    void
    send(Simulator &dst, Time dtime, P &&payload)
    {
        route(dst,
              WireMsg::make(dtime, srcId_, seq_++, std::forward<P>(payload)));
    }

  private:
    static std::uint32_t
    nextId() noexcept
    {
        static std::atomic<std::uint32_t> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed);
    }

    void route(Simulator &dst, WireMsg &&m);

    Simulator &sim_;
    std::uint32_t srcId_;
    std::uint64_t seq_ = 0;
};

} // namespace smart::sim

#endif // SMART_SIM_WIRE_HPP
