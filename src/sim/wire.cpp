/**
 * @file
 * WireEndpoint routing: the always-on checks on every wire send.
 */

#include "sim/wire.hpp"

#include <cstdio>
#include <cstdlib>

#include "sim/simulator.hpp"

namespace smart::sim {

void
WireEndpoint::route(Simulator &dst, WireMsg &&m)
{
    // Always on: WireInbox::injectUpTo hands the message to
    // EventQueue::scheduleAt unclamped, so a past-dated send would run
    // behind the clock and silently reorder the simulation.
    if (m.dtime < sim_.now() || &dst != &sim_) [[unlikely]] {
        std::fprintf(stderr,
                     "WireEndpoint: %s (src %u, dtime %llu, now %llu)\n",
                     &dst != &sim_ ? "send to another Simulator"
                                   : "delivery time is in the past",
                     srcId_, static_cast<unsigned long long>(m.dtime),
                     static_cast<unsigned long long>(sim_.now()));
        std::abort();
    }
    sim_.wireInbox().push(std::move(m));
}

} // namespace smart::sim
