/**
 * @file
 * Wire deliveries: how blade-to-blade traffic reaches the event queue.
 *
 * Every interaction that crosses a simulated wire is sent through a
 * WireEndpoint and parked in the Simulator's WireInbox as an ordinary
 * EventFn, never scheduled directly into the EventQueue. Each parked
 * event carries a (deliveryTime, srcId, perSourceSeq) key; the inbox
 * holds it until the clock reaches deliveryTime and then injects it,
 * sorted by that key, into the queue. The injection point fixes the FIFO
 * sequence each delivery draws in the queue, so this discipline decides
 * the order of same-time events and is part of the simulated result
 * (DESIGN.md §14).
 */

#ifndef SMART_SIM_WIRE_HPP
#define SMART_SIM_WIRE_HPP

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace smart::sim {

class Simulator;

/**
 * Per-Simulator holding pen for in-flight wire deliveries: a binary
 * min-heap of events ordered by (dtime, srcId, seq). The run loop
 * injects them into the event queue only when the clock first reaches
 * their delivery time — never eagerly — so each injected event draws its
 * FIFO sequence after every local event scheduled earlier for a strictly
 * smaller time has run. Parked events own their captures, so destroying
 * the inbox releases every payload still in flight.
 */
class WireInbox
{
  public:
    WireInbox() = default;
    WireInbox(const WireInbox &) = delete;
    WireInbox &operator=(const WireInbox &) = delete;

    /** Earliest pending delivery time, or kTimeNever when empty. */
    Time minTime() const noexcept { return min_; }

    /** Hand out the next source id; construction order fixes it. */
    std::uint32_t newSource() noexcept { return nextSrcId_++; }

    /** Park @p fn until the clock reaches @p dtime. */
    void
    push(Time dtime, std::uint32_t src_id, std::uint64_t seq, EventFn &&fn)
    {
        heap_.push_back(Item{dtime, src_id, seq, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), later);
        min_ = heap_.front().dtime;
    }

    /**
     * Schedule every pending event with dtime <= @p t into @p q at its
     * delivery time, in (dtime, srcId, seq) order. Call only when the run
     * loop has exhausted all local events strictly before the inbox
     * minimum.
     */
    void
    injectUpTo(Time t, EventQueue &q)
    {
        while (!heap_.empty() && heap_.front().dtime <= t) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            Item &it = heap_.back();
            q.scheduleAt(it.dtime, std::move(it.fn));
            heap_.pop_back();
        }
        min_ = heap_.empty() ? kTimeNever : heap_.front().dtime;
    }

  private:
    struct Item
    {
        Time dtime;
        std::uint32_t srcId;
        std::uint64_t seq;
        EventFn fn;
    };

    /** Heap order: true if @p a delivers after @p b. A lambda, not a
     *  function pointer, so the heap algorithms inline the compare. */
    static constexpr auto later = [](const Item &a, const Item &b) {
        return std::tie(a.dtime, a.srcId, a.seq) >
               std::tie(b.dtime, b.srcId, b.seq);
    };

    std::vector<Item> heap_;
    Time min_ = kTimeNever;
    std::uint32_t nextSrcId_ = 0;
};

/**
 * A named sender on the wire: owns a source id and the per-source
 * delivery sequence. Source ids count up per Simulator in construction
 * order, which fixes every same-time delivery tie-break.
 */
class WireEndpoint
{
  public:
    explicit WireEndpoint(Simulator &sim);

    WireEndpoint(const WireEndpoint &) = delete;
    WireEndpoint &operator=(const WireEndpoint &) = delete;

    std::uint32_t srcId() const noexcept { return srcId_; }

    /**
     * Deliver @p payload at absolute virtual time @p dtime (>= now): it
     * runs as an ordinary event, injected in (dtime, srcId, seq) order.
     * A past-dated send aborts (always on, not an assert).
     */
    void send(Time dtime, EventFn &&payload);

  private:
    Simulator &sim_;
    std::uint32_t srcId_;
    std::uint64_t seq_ = 0;
};

} // namespace smart::sim

#endif // SMART_SIM_WIRE_HPP
