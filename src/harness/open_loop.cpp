/**
 * @file
 * Open-loop traffic driver implementation.
 */

#include "harness/open_loop.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <numbers>

#include "sim/timeline.hpp"
#include "smart/smart_ctx.hpp"

namespace smart::harness {

using sim::Json;
using sim::Task;
using sim::Time;

const char *
arrivalKindName(ArrivalKind k)
{
    switch (k) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Diurnal: return "diurnal";
      case ArrivalKind::Spike: return "spike";
    }
    return "?";
}

// ------------------------------------------------------- arrival process

ArrivalProcess::ArrivalProcess(const ArrivalConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
    assert(cfg_.ratePerUs > 0.0);
}

double
ArrivalProcess::rateAtNs(Time t) const
{
    double base = cfg_.ratePerUs / 1000.0;
    switch (cfg_.kind) {
      case ArrivalKind::Poisson:
        return base;
      case ArrivalKind::Diurnal: {
        double phase = static_cast<double>(t % cfg_.diurnalPeriodNs) /
                       static_cast<double>(cfg_.diurnalPeriodNs);
        return base *
               (1.0 + cfg_.diurnalAmp *
                          std::sin(2.0 * std::numbers::pi * phase));
      }
      case ArrivalKind::Spike:
        return (t % cfg_.spikePeriodNs) < cfg_.spikeLenNs
                   ? base * cfg_.spikeFactor
                   : base;
    }
    return base;
}

double
ArrivalProcess::peakRateNs() const
{
    double base = cfg_.ratePerUs / 1000.0;
    switch (cfg_.kind) {
      case ArrivalKind::Poisson: return base;
      case ArrivalKind::Diurnal: return base * (1.0 + cfg_.diurnalAmp);
      case ArrivalKind::Spike: return base * cfg_.spikeFactor;
    }
    return base;
}

double
ArrivalProcess::meanRateNs() const
{
    double base = cfg_.ratePerUs / 1000.0;
    if (cfg_.kind == ArrivalKind::Spike) {
        double duty = static_cast<double>(cfg_.spikeLenNs) /
                      static_cast<double>(cfg_.spikePeriodNs);
        return base * (1.0 + (cfg_.spikeFactor - 1.0) * duty);
    }
    return base; // the sinusoid integrates to its base rate
}

Time
ArrivalProcess::next()
{
    // Lewis-Shedler thinning: candidate gaps at the peak rate, accepted
    // with probability rate(t)/peak. For the homogeneous kind the accept
    // probability is exactly 1, so this degenerates to plain exponential
    // gaps without a second RNG draw.
    double peak = peakRateNs();
    for (;;) {
        double u = rng_.uniformDouble();
        double gap_ns = -std::log(1.0 - u) / peak;
        Time gap = static_cast<Time>(gap_ns);
        cursor_ += gap < 1 ? 1 : gap; // arrivals strictly progress
        if (cfg_.kind == ArrivalKind::Poisson)
            return cursor_;
        if (rng_.uniformDouble() * peak < rateAtNs(cursor_))
            return cursor_;
    }
}

// --------------------------------------------------------------- tenants

OpenLoopDriver::Tenant::Tenant(const TenantConfig &c,
                               const OpenLoopConfig &cfg, std::size_t index)
    : cfg(c),
      proc(c.arrival, cfg.seed * 0x9e3779b97f4a7c15ull + index * 1000003ull +
                          0xa441ull)
{
    double zetan = c.zipfTheta > 0.0
                       ? sim::ZipfianGenerator::zeta(cfg.numKeys, c.zipfTheta)
                       : 0.0;
    std::uint32_t sessions = c.sessions == 0 ? 1 : c.sessions;
    gens.reserve(sessions);
    for (std::uint32_t s = 0; s < sessions; ++s) {
        std::uint64_t seed = 0x0a11ce +
                             cfg.seed * 0x9e3779b97f4a7c15ull +
                             index * 971ull + s * 13ull;
        gens.emplace_back(cfg.numKeys, c.zipfTheta, c.mix, seed, zetan);
    }
}

OpenLoopDriver::OpenLoopDriver(Testbed &tb, OpenLoopConfig cfg,
                               ServiceFn service)
    : tb_(tb),
      home_(tb.sim()),
      cfg_(std::move(cfg)), service_(std::move(service))
{
    assert(!cfg_.tenants.empty());
    assert(cfg_.queueCap > 0);
    tenants_.reserve(cfg_.tenants.size());
    for (std::size_t i = 0; i < cfg_.tenants.size(); ++i)
        tenants_.emplace_back(cfg_.tenants[i], cfg_, i);
    std::uint32_t horizon =
        cfg_.burn.slowWindows == 0 ? 1 : cfg_.burn.slowWindows;
    for (Tenant &t : tenants_)
        t.ring.assign(horizon, {0, 0});

    // Register after the vector is fully built: the registry stores
    // references into the (now stable) tenant slots.
    sim::MetricsRegistry &reg = home_.metrics();
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        Tenant &t = tenants_[i];
        sim::Labels l{{"tenant", t.cfg.name}};
        reg.registerCounter(this, "smart.tenant.offered", l, &t.s.offered);
        reg.registerCounter(this, "smart.tenant.admitted", l, &t.s.admitted);
        reg.registerCounter(this, "smart.tenant.rejected", l, &t.s.rejected);
        reg.registerCounter(this, "smart.tenant.completed", l,
                            &t.s.completed);
        reg.registerCounter(this, "smart.tenant.slo_violations", l,
                            &t.s.sloViolations);
        reg.registerHistogram(this, "smart.tenant.latency_ns", l,
                              &t.s.latency);
        reg.registerHistogram(this, "smart.tenant.queue_wait_ns", l,
                              &t.s.queueWait);
        reg.registerGauge(this, "smart.tenant.queue_depth", l, [this, i] {
            return static_cast<double>(tenants_[i].queue.size());
        });
        reg.registerGauge(this, "smart.tenant.violation_fraction", l,
                          [this, i] { return tenants_[i].fastFrac; });
        reg.registerGauge(this, "smart.slo.burn_rate",
                          {{"tenant", t.cfg.name}, {"window", "fast"}},
                          [this, i] { return tenants_[i].fastFrac; });
        reg.registerGauge(this, "smart.slo.burn_rate",
                          {{"tenant", t.cfg.name}, {"window", "slow"}},
                          [this, i] { return tenants_[i].slowFrac; });
    }

    // The burn-rate detector advances once per time-series window; the
    // hook runs before the window's metric sampling, so the burn gauges
    // above are sampled fresh. No plane => no detector (gauges stay 0).
    if (sim::Timeline *tl = tb_.timeline())
        tl->addWindowHook([this](Time now) { onWindow(now); });
}

OpenLoopDriver::~OpenLoopDriver()
{
    home_.metrics().unregisterOwner(this);
}

void
OpenLoopDriver::start(std::uint32_t workers_per_thread)
{
    assert(!started_);
    started_ = true;
    for (std::size_t i = 0; i < tenants_.size(); ++i)
        home_.spawn(arrivalLoop(i));
    for (std::uint32_t c = 0; c < tb_.numComputeBlades(); ++c) {
        SmartRuntime &rt = tb_.compute(c);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            for (std::uint32_t k = 0; k < workers_per_thread; ++k) {
                rt.spawnWorker(
                    t, [this](SmartCtx &ctx) { return worker(ctx); });
            }
        }
    }
}

void
OpenLoopDriver::resetWindow()
{
    for (Tenant &t : tenants_) {
        t.s.offered.reset();
        t.s.admitted.reset();
        t.s.rejected.reset();
        t.s.completed.reset();
        t.s.sloViolations.reset();
        t.s.latency.reset();
        t.s.queueWait.reset();
    }
}

Task
OpenLoopDriver::arrivalLoop(std::size_t ti)
{
    Tenant &t = tenants_[ti];
    sim::Simulator &sim = home_;
    for (;;) {
        Time at = t.proc.next();
        co_await sim.delay(at - sim.now());
        t.s.offered.add();
        // The generator stream advances at the offered rate regardless
        // of admission outcome, so shedding never perturbs it.
        workload::YcsbRequest req =
            t.gens[t.nextSession++ % t.gens.size()].next();
        if (t.queue.size() >= cfg_.queueCap) {
            t.s.rejected.add();
            continue;
        }
        // A tenant going idle banks no credit: its virtual time catches
        // up to the dispatch clock when it becomes active again.
        if (t.queue.empty())
            t.vtime = std::max(t.vtime, globalVtime_);
        t.queue.push_back({req, sim.now()});
        t.s.admitted.add();
        postTicket();
    }
}

std::size_t
OpenLoopDriver::pickTenant()
{
    std::size_t best = tenants_.size();
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (tenants_[i].queue.empty())
            continue;
        if (best == tenants_.size() ||
            tenants_[i].vtime < tenants_[best].vtime)
            best = i;
    }
    assert(best < tenants_.size());
    return best;
}

Task
OpenLoopDriver::worker(SmartCtx &ctx)
{
    sim::TrackId track = 0;
    std::uint64_t samples = 0;
    for (;;) {
        co_await acquireTicket();
        std::size_t ti = pickTenant();
        Tenant &t = tenants_[ti];
        Pending p = t.queue.front();
        t.queue.pop_front();
        t.vtime += 1.0 / t.cfg.weight;
        globalVtime_ = std::max(globalVtime_, t.vtime);

        Time deq = ctx.sim().now();
        t.s.queueWait.record(deq - p.arrival);
        recordAdmissionSpan(ctx, track, samples, p.arrival, deq);

        std::uint32_t retries = 0;
        co_await service_(ctx, p.req, retries);

        Time e2e = ctx.sim().now() - p.arrival;
        t.s.latency.record(e2e);
        t.s.completed.add();
        if (t.cfg.sloP99Ns != 0 && e2e > t.cfg.sloP99Ns)
            t.s.sloViolations.add();
    }
}

void
OpenLoopDriver::recordAdmissionSpan(SmartCtx &ctx, sim::TrackId &track,
                                    std::uint64_t &count, Time start,
                                    Time end)
{
    sim::SpanTracer *sp = ctx.sim().spans();
    if (sp == nullptr)
        return;
    if (count++ % sp->sampleEvery() != 0 || end <= start)
        return;
    if (track == 0) {
        std::string thread =
            ctx.runtime().name() + "/t" + std::to_string(ctx.thread().id());
        track = sp->internTrack(
            thread + "/adm" + std::to_string(ctx.coroIndex()), thread);
    }
    sp->record(track, sim::Stage::AdmissionWait, 0, start, end);
}

void
OpenLoopDriver::onWindow(Time now)
{
    sim::Timeline *tl = tb_.timeline();
    for (Tenant &t : tenants_) {
        std::uint64_t done = t.s.completed.value();
        std::uint64_t viol = t.s.sloViolations.value();
        // Reset-aware deltas: resetWindow() may zero the counters
        // mid-run (end of warmup); a regressed value restarts the
        // cursor instead of underflowing.
        std::uint64_t d_done = done < t.prevDone ? done : done - t.prevDone;
        std::uint64_t d_viol = viol < t.prevViol ? viol : viol - t.prevViol;
        t.prevDone = done;
        t.prevViol = viol;
        t.ring[t.ringPos % t.ring.size()] = {d_done, d_viol};
        ++t.ringPos;
        t.fastFrac = d_done != 0 ? static_cast<double>(d_viol) /
                                       static_cast<double>(d_done)
                                 : 0.0;
        std::uint64_t slow_done = 0;
        std::uint64_t slow_viol = 0;
        for (const auto &[cd, cv] : t.ring) {
            slow_done += cd;
            slow_viol += cv;
        }
        t.slowFrac = slow_done != 0 ? static_cast<double>(slow_viol) /
                                          static_cast<double>(slow_done)
                                    : 0.0;
        if (t.cfg.sloP99Ns == 0)
            continue;
        char frac[64];
        std::snprintf(frac, sizeof frac, "fast=%.4f slow=%.4f", t.fastFrac,
                      t.slowFrac);
        if (!t.burning && t.fastFrac >= cfg_.burn.fastEnter &&
            t.slowFrac >= cfg_.burn.slowEnter) {
            t.burning = true;
            if (tl != nullptr)
                tl->annotateAt(now, "slo", t.cfg.name,
                               std::string("burn-enter ") + frac);
        } else if (t.burning && t.fastFrac < cfg_.burn.fastExit) {
            t.burning = false;
            if (tl != nullptr)
                tl->annotateAt(now, "slo", t.cfg.name,
                               std::string("burn-exit ") + frac);
        }
    }
}

Json
OpenLoopDriver::sloJson() const
{
    Json root = Json::object();
    for (const Tenant &t : tenants_) {
        Json b = Json::object();
        b.set("target_p99_ns", Json(t.cfg.sloP99Ns));
        b.set("observed_p50_ns", Json(t.s.latency.p50()));
        b.set("observed_p99_ns", Json(t.s.latency.p99()));
        std::uint64_t done = t.s.completed.value();
        double vf = done != 0 ? static_cast<double>(t.s.sloViolations.value()) /
                                    static_cast<double>(done)
                              : 0.0;
        b.set("violation_fraction", Json(vf));
        b.set("offered", Json(t.s.offered.value()));
        b.set("admitted", Json(t.s.admitted.value()));
        b.set("rejected", Json(t.s.rejected.value()));
        b.set("completed", Json(done));
        root.set(t.cfg.name, std::move(b));
    }
    return root;
}

} // namespace smart::harness
