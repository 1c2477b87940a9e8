/**
 * @file
 * The discrete-event simulator: virtual clock, event loop, task spawning.
 */

#ifndef SMART_SIM_SIMULATOR_HPP
#define SMART_SIM_SIMULATOR_HPP

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "sim/wire.hpp"

namespace smart::sim {

class FaultPlane;
class FaultTarget;
class SpanTracer;
class Timeline;

/**
 * Owns the virtual clock and the event queue, and keeps root coroutines
 * alive. One Simulator is the whole cluster, advanced by one thread.
 * Determinism follows from the stable (time, seq) event ordering plus the
 * (dtime, srcId, seq) wire-injection discipline (see wire.hpp).
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return current virtual time in nanoseconds. */
    Time now() const { return now_; }

    /** Schedule @p cb to run @p delay ns from now. */
    void
    schedule(Time delay, EventQueue::Callback &&cb)
    {
        events_.scheduleAt(now_ + delay, std::move(cb));
    }

    /** Schedule @p cb at absolute time @p when (must be >= now). */
    void
    scheduleAt(Time when, EventQueue::Callback &&cb)
    {
        events_.scheduleAt(when < now_ ? now_ : when, std::move(cb));
    }

    /** Resume @p h at current time, via the event queue (no recursion). */
    void
    post(std::coroutine_handle<> h)
    {
        events_.scheduleResumeAt(now_, h);
    }

    /** Resume @p h @p delay ns from now (allocation-free fast path). */
    void
    scheduleResume(Time delay, std::coroutine_handle<> h)
    {
        events_.scheduleResumeAt(now_ + delay, h);
    }

    /**
     * Spawn a root coroutine and keep its frame alive until the Simulator
     * is destroyed. Use for long-lived actors (client threads, servers).
     */
    void
    spawn(Task t)
    {
        rootTasks_.push_back(std::make_unique<Task>(std::move(t)));
        Task *stored = rootTasks_.back().get();
        events_.scheduleAt(now_, [stored] { stored->resume(); });
    }

    /**
     * Spawn a self-destroying coroutine. Use for per-operation activities
     * (e.g., the RNIC processing one work request) so frames do not pile up.
     */
    void
    spawnDetached(Task t)
    {
        events_.scheduleResumeAt(now_, t.detach());
    }

    /** Run until the event queue and the wire inbox both drain. */
    void
    run()
    {
        runLocalUpTo(kTimeNever - 1);
    }

    /**
     * Run until virtual time @p deadline; events after it remain queued.
     * The clock is advanced to @p deadline on return.
     */
    void
    runUntil(Time deadline)
    {
        runLocalUpTo(deadline);
        if (now_ < deadline)
            now_ = deadline;
    }

    /** Awaitable that resumes the coroutine after @p d virtual ns. */
    auto
    delay(Time d)
    {
        struct Awaiter
        {
            Simulator &sim;
            Time d;

            bool await_ready() const noexcept { return d == 0; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                sim.scheduleResume(d, h);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this, d};
    }

    /** Number of events ever scheduled (perf introspection). */
    std::uint64_t eventsScheduled() const { return events_.totalScheduled(); }

    /** Number of events executed so far (perf introspection). */
    std::uint64_t eventsProcessed() const { return events_.totalProcessed(); }

    /** High-water mark of pending events (perf introspection). */
    std::uint64_t peakQueueDepth() const { return events_.peakDepth(); }

    /** Pre-reserve event-queue storage (see EventQueue::reserveStorage). */
    void
    reserveEventStorage(std::size_t per_bucket, std::size_t heap_slots)
    {
        events_.reserveStorage(per_bucket, heap_slots);
    }

    /**
     * Metrics registered by every component of this simulation. Hanging
     * the registry off the Simulator means anything holding a Simulator&
     * (i.e. every component) can register without extra plumbing.
     */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * The installed fault plane, or nullptr for a healthy simulation.
     * Upper layers key their retry/timeout machinery off this being
     * non-null, so a plane-free run pays no extra events or RNG draws.
     */
    FaultPlane *faultPlane() const { return fault_; }

    /** Called by FaultPlane's constructor/destructor. */
    void installFaultPlane(FaultPlane *p) { fault_ = p; }

    /**
     * The installed span tracer, or nullptr when span recording is off.
     * Instrumentation sites key on this being non-null (and on the op
     * being sampled), so an untraced run pays one pointer load per op.
     */
    SpanTracer *spans() const { return spans_; }

    /** Called by SpanTracer's constructor/destructor. */
    void installSpanTracer(SpanTracer *t) { spans_ = t; }

    /**
     * The installed timeline plane, or nullptr when windowed sampling is
     * off. Annotation emitters (fault plane, membership plane, overload
     * ladder, workload rotations) key on this being non-null, so a run
     * without a timeline pays one pointer load per emission site.
     */
    Timeline *timeline() const { return timeline_; }

    /** Called by Timeline::attach and its destructor. */
    void installTimeline(Timeline *t) { timeline_ = t; }

    /** Components that can absorb faults register here (see fault.hpp). */
    void addFaultTarget(FaultTarget *t) { faultTargets_.push_back(t); }

    /** Remove @p t from the target registry (component destruction). */
    void
    removeFaultTarget(FaultTarget *t)
    {
        std::erase(faultTargets_, t);
    }

    /** @return all registered fault targets, in registration order. */
    const std::vector<FaultTarget *> &faultTargets() const
    {
        return faultTargets_;
    }

    /** In-flight wire messages (see wire.hpp). */
    WireInbox &wireInbox() { return inbox_; }

  private:
    /**
     * Core loop: execute every local event and every wire delivery with
     * time <= @p deadline. The wire-inbox minimum bounds each pop because
     * an event may send a wire message landing inside the current
     * segment; with an empty inbox (every workload that never
     * touches the wire) the extra cost is one member load + compare per
     * event.
     */
    void
    runLocalUpTo(Time deadline)
    {
        // cb is reused so its dead capture is destroyed by the next
        // move-assign instead of a separate reset per event.
        Time when = 0;
        EventQueue::Callback cb;
        for (;;) {
            Time wnext = inbox_.minTime();
            Time limit = deadline;
            if (wnext != kTimeNever && wnext - 1 < limit)
                limit = wnext - 1;
            if (events_.popIfAtOrBefore(limit, when, cb)) {
                now_ = when;
                cb();
                continue;
            }
            if (wnext <= deadline) {
                inbox_.injectUpTo(wnext, events_);
                continue;
            }
            return;
        }
    }

    EventQueue events_;
    Time now_ = 0;
    std::vector<std::unique_ptr<Task>> rootTasks_;
    MetricsRegistry metrics_;
    FaultPlane *fault_ = nullptr;
    SpanTracer *spans_ = nullptr;
    Timeline *timeline_ = nullptr;
    std::vector<FaultTarget *> faultTargets_;
    WireInbox inbox_;
};

} // namespace smart::sim

#endif // SMART_SIM_SIMULATOR_HPP
