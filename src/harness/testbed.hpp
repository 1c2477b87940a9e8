/**
 * @file
 * Testbed: builds a simulated cluster (memory blades + SMART compute
 * blades) mirroring the paper's evaluation setup — dual-socket 96-core
 * compute blades, 200 Gbps ConnectX-6-class fabric, two memory blades
 * unless stated otherwise.
 */

#ifndef SMART_HARNESS_TESTBED_HPP
#define SMART_HARNESS_TESTBED_HPP

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "memblade/memory_blade.hpp"
#include "rnic/rnic_config.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/timeline.hpp"
#include "smart/smart_config.hpp"
#include "smart/smart_runtime.hpp"

namespace smart::harness {

/** Cluster shape + per-blade configuration. */
struct TestbedConfig
{
    rnic::RnicConfig hw;
    SmartConfig smart;
    std::uint32_t computeBlades = 1;
    std::uint32_t threadsPerBlade = 96;
    std::uint32_t memoryBlades = 2;
    std::uint64_t bladeBytes = 1ull << 30; // 1 GB registered per blade

    /**
     * Must be 1: the cluster runs on one Simulator. Kept only so existing
     * configs that set it still build; any other value aborts.
     */
    std::uint32_t shards = 1;

    /**
     * Span recording cadence: every Nth application op per coroutine is
     * traced through the full stack (sim/span.hpp); 0 disables the
     * tracer entirely (untraced runs pay one pointer load per op).
     */
    std::uint32_t spanSampleEvery = 0;
    /** Hard cap on span records (bounds memory; excess is dropped). */
    std::size_t spanMaxRecords = 1u << 20;

    /**
     * Windowed time-series sampling cadence (sim/timeline.hpp); 0
     * disables the plane entirely. Sampling happens between runUntil()
     * chunks (no simulation events), so the simulated run is
     * byte-identical with the plane on or off.
     */
    sim::Time tsWindowNs = 0;
};

/** A fully wired cluster: every compute blade connected to every blade. */
class Testbed
{
  public:
    explicit Testbed(const TestbedConfig &cfg) : cfg_(cfg)
    {
        if (cfg.shards != 1) {
            // Always on: a caller asking for parallel shards would get a
            // single-threaded run while believing otherwise.
            std::fprintf(stderr, "Testbed: shards must be 1 (got %u)\n",
                         cfg.shards);
            std::abort();
        }
        if (cfg.spanSampleEvery > 0)
            spans_ = std::make_unique<sim::SpanTracer>(
                sim_, cfg.spanSampleEvery, cfg.spanMaxRecords);
        for (std::uint32_t m = 0; m < cfg.memoryBlades; ++m) {
            memBlades_.push_back(std::make_unique<memblade::MemoryBlade>(
                sim_, cfg.hw, "mb" + std::to_string(m), cfg.bladeBytes));
        }
        for (std::uint32_t c = 0; c < cfg.computeBlades; ++c) {
            computeBlades_.push_back(std::make_unique<SmartRuntime>(
                sim_, cfg.hw, cfg.smart, cfg.threadsPerBlade,
                "cb" + std::to_string(c)));
            for (auto &mb : memBlades_)
                computeBlades_.back()->connect(*mb);
        }
        if (cfg.tsWindowNs > 0) {
            timeline_ = std::make_unique<sim::Timeline>(cfg.tsWindowNs);
            timeline_->attach(sim_);
        }
    }

    /** The Simulator every blade of the cluster runs on. */
    sim::Simulator &sim() { return sim_; }
    const sim::Simulator &sim() const { return sim_; }
    const TestbedConfig &config() const { return cfg_; }

    /**
     * Advance the whole cluster to virtual time @p deadline.
     *
     * When the time-series plane is on, the advance is chunked at window
     * boundaries: each sample happens with the clock parked at the window
     * edge, so sampling adds no simulation events and the run stays
     * byte-identical with the plane off.
     */
    void
    runUntil(sim::Time deadline)
    {
        if (timeline_) {
            while (timeline_->nextSampleAt() <= deadline) {
                sim::Time b = timeline_->nextSampleAt();
                sim_.runUntil(b);
                timeline_->sampleAt(b);
            }
        }
        sim_.runUntil(deadline);
    }

    std::uint32_t numMemBlades() const { return memBlades_.size(); }
    memblade::MemoryBlade &memBlade(std::uint32_t i) { return *memBlades_[i]; }

    std::uint32_t numComputeBlades() const { return computeBlades_.size(); }
    SmartRuntime &compute(std::uint32_t i) { return *computeBlades_[i]; }
    const SmartRuntime &compute(std::uint32_t i) const
    {
        return *computeBlades_[i];
    }

    /** @return the time-series plane (nullptr unless tsWindowNs > 0). */
    sim::Timeline *timeline() { return timeline_.get(); }

    /** @return the span tracer (nullptr unless spans are on). */
    sim::SpanTracer *spanTracer() { return spans_.get(); }

    /** Alias of spanTracer(), kept for existing callers. */
    sim::SpanTracer *mergedSpanTracer() { return spanTracer(); }

    /**
     * Lazily create (and install) the cluster's fault-injection plane.
     * Never called => no plane installed => zero overhead anywhere.
     */
    sim::FaultPlane &
    faultPlane(std::uint64_t seed = 0x5eedfa17)
    {
        if (!faultPlane_)
            faultPlane_ = std::make_unique<sim::FaultPlane>(sim_, seed);
        return *faultPlane_;
    }

    /** Snapshot every registered metric at the current virtual time. */
    sim::MetricsSnapshot
    snapshot() const
    {
        return sim_.metrics().snapshot(sim_.now());
    }

  private:
    TestbedConfig cfg_;
    // Declared first: every member below references it, so it must
    // outlive (and so be built before) all of them.
    sim::Simulator sim_;
    std::vector<std::unique_ptr<memblade::MemoryBlade>> memBlades_;
    std::vector<std::unique_ptr<SmartRuntime>> computeBlades_;
    // Declared after sim_: the plane unregisters on destruction.
    std::unique_ptr<sim::FaultPlane> faultPlane_;
    // Declared after sim_: the tracer uninstalls itself on destruction.
    std::unique_ptr<sim::SpanTracer> spans_;
    // Declared after sim_: uninstalls itself on destruction.
    std::unique_ptr<sim::Timeline> timeline_;
};

/**
 * Everything a bench captures about one measured run: the final metrics
 * snapshot, the windowed time series (controller and throughput
 * timelines) and, when spans were on, the per-stage attribution.
 */
struct RunCapture
{
    std::string label;
    sim::MetricsSnapshot metrics;
    /** Per-stage latency attribution (null unless spans were recorded). */
    sim::Json spans;
    /** Chrome/Perfetto trace JSON text (empty unless spans recorded). */
    std::string spanTrace;
    /** Collapsed-stack flamegraph lines (empty unless spans recorded). */
    std::string spanFolded;
    /** Windowed time-series block (null unless the plane was on). */
    sim::Json timeseries;
};

/** Time-series window of a captured run when none was configured. */
inline constexpr sim::Time kCaptureWindowNs = sim::usec(500);

/**
 * Prepare @p cfg for a run that fills @p cap (nullptr = not captured):
 * a captured run records the time-series plane, at kCaptureWindowNs
 * unless @p cfg already carries a window (--ts-window). The plane adds
 * no simulation events, so the run itself is unchanged.
 */
inline void
configureCapture(TestbedConfig &cfg, const RunCapture *cap)
{
    if (cap != nullptr && cfg.tsWindowNs == 0)
        cfg.tsWindowNs = kCaptureWindowNs;
}

/** Fill @p cap (if non-null) from @p tb after a finished run. */
inline void
captureRun(Testbed &tb, RunCapture *cap)
{
    if (cap == nullptr)
        return;
    cap->metrics = tb.snapshot();
    sim::Timeline *tl = tb.timeline();
    if (tb.spanTracer() != nullptr) {
        sim::SpanTracer &sp = *tb.spanTracer();
        cap->spans = sp.attribution();
        if (tl != nullptr) {
            // Merge Timeline counter tracks + annotation instants into
            // the span trace so one Perfetto load shows both.
            sim::Json root = sp.chromeTrace();
            for (auto &[k, v] : root.asObject())
                if (k == "traceEvents")
                    tl->appendChromeEvents(v);
            cap->spanTrace = root.dump(1);
        } else {
            cap->spanTrace = sp.chromeTraceString();
        }
        cap->spanFolded = sp.collapsedStacks();
    } else if (tl != nullptr && tl->windows() > 0) {
        // No spans: emit a standalone counter-track trace.
        sim::Json events = sim::Json::array();
        tl->appendChromeEvents(events);
        sim::Json root = sim::Json::object();
        root.set("traceEvents", std::move(events));
        root.set("displayTimeUnit", "ns");
        cap->spanTrace = root.dump(1);
    }
    if (tl != nullptr && tl->windows() > 0)
        cap->timeseries = tl->toJson();
}

/**
 * The measured part of a closed-loop run, as registry deltas between
 * the end of warmup and the end of the measure window:
 *
 *     tb.runUntil(warmup);
 *     MeasureWindow win(tb);
 *     tb.runUntil(warmup + measure);
 *     win.close();
 *
 * Counters are summed over the compute blades only. The op latency and
 * retry histograms live outside the registry's windowing (snapshot
 * percentiles are cumulative), so opening the window resets them.
 */
class MeasureWindow
{
  public:
    /** Open at the current virtual time. */
    explicit MeasureWindow(Testbed &tb) : tb_(tb)
    {
        for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
            SmartRuntime &rt = tb.compute(c);
            rt.opLatency.reset();
            std::fill(rt.retryHist.begin(), rt.retryHist.end(), 0);
        }
        start_ = tb.snapshot();
    }

    /** Close at the current virtual time. */
    void
    close()
    {
        sim::MetricsSnapshot end = tb_.snapshot();
        us_ = static_cast<double>(end.at - start_.at) / 1000.0;
        delta_ = end.deltaSince(start_);
        for (std::uint32_t c = 0; c < tb_.numComputeBlades(); ++c) {
            SmartRuntime &rt = tb_.compute(c);
            latency_.merge(rt.opLatency);
            for (std::size_t i = 0; i < retryHist_.size(); ++i)
                retryHist_[i] += rt.retryHist[i];
        }
    }

    /** Window delta of counter @p name, summed over compute blades. */
    std::uint64_t
    count(const std::string &name) const
    {
        std::uint64_t sum = 0;
        for (const sim::SnapshotEntry &e : delta_.entries) {
            if (e.kind == sim::MetricKind::Counter && e.id.name == name &&
                isCompute(e.id.label("blade")))
                sum += e.counter;
        }
        return sum;
    }

    /** count(@p name) per microsecond of the window. */
    double
    perUs(const std::string &name) const
    {
        return static_cast<double>(count(name)) / us_;
    }

    /** Op latency over the window, merged across compute blades. */
    const sim::LatencyHistogram &latency() const { return latency_; }

    /** retryHist[n] = window ops that needed n retries. */
    const std::vector<std::uint64_t> &retryHist() const
    {
        return retryHist_;
    }

  private:
    bool
    isCompute(const std::string &blade) const
    {
        for (std::uint32_t c = 0; c < tb_.numComputeBlades(); ++c)
            if (tb_.compute(c).name() == blade)
                return true;
        return false;
    }

    Testbed &tb_;
    sim::MetricsSnapshot start_;
    sim::MetricsSnapshot delta_;
    double us_ = 0;
    sim::LatencyHistogram latency_;
    std::vector<std::uint64_t> retryHist_ = std::vector<std::uint64_t>(64, 0);
};

} // namespace smart::harness

#endif // SMART_HARNESS_TESTBED_HPP
