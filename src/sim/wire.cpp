/**
 * @file
 * WireEndpoint: source ids and the always-on check on every wire send.
 */

#include "sim/wire.hpp"

#include <cstdio>
#include <cstdlib>

#include "sim/simulator.hpp"

namespace smart::sim {

WireEndpoint::WireEndpoint(Simulator &sim)
    : sim_(sim), srcId_(sim.wireInbox().newSource())
{
}

void
WireEndpoint::send(Time dtime, EventFn &&payload)
{
    // Always on: WireInbox::injectUpTo hands the event to
    // EventQueue::scheduleAt unclamped, so a past-dated send would run
    // behind the clock and silently reorder the simulation.
    if (dtime < sim_.now()) [[unlikely]] {
        std::fprintf(stderr,
                     "WireEndpoint: delivery time is in the past (src %u, "
                     "dtime %llu, now %llu)\n",
                     srcId_, static_cast<unsigned long long>(dtime),
                     static_cast<unsigned long long>(sim_.now()));
        std::abort();
    }
    sim_.wireInbox().push(dtime, srcId_, seq_++, std::move(payload));
}

} // namespace smart::sim
