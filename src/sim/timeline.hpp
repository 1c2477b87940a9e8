/**
 * @file
 * Timeline: the windowed time-series sampling plane. Where MetricsRegistry
 * answers "what are the totals now?", the Timeline answers "how did every
 * metric move, window by window, and what happened when?" — it samples all
 * registered counters / gauges / histograms at fixed virtual-time window
 * boundaries into per-window points, and keeps a causal annotation log
 * (fault injections, membership changes, degradation-ladder transitions,
 * cache skew rotations, SLO burn events) on the same time axis.
 *
 * Sampling happens only *between* Simulator::runUntil calls (the
 * Testbed chunks its advance at window edges), never from a sampling
 * coroutine — so enabling it adds zero simulation events and the
 * simulated run is byte-identical with the plane on or off. Series
 * follow registration-stamp order and annotations export under a
 * full-tuple sort, so the exported block is a pure function of the run.
 */

#ifndef SMART_SIM_TIMELINE_HPP
#define SMART_SIM_TIMELINE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smart::sim {

class Simulator;

/** One event on the causal log: something *happened* at a virtual time. */
struct Annotation
{
    Time at = 0;
    /** Taxonomy bucket: "fault", "membership", "degradation", "cache",
     *  "slo" (see DESIGN.md §15 for the full taxonomy). */
    std::string kind;
    /** What it happened to (blade, tenant, fault target...). */
    std::string target;
    /** Free-form human-readable payload ("level 1->2", "epoch 3"...). */
    std::string detail;
};

/** Windowed time-series sampler + annotation log. One per cluster. */
class Timeline
{
  public:
    /**
     * Decides which metrics get a series. The default drops per-thread
     * series except thread 0 (one exemplar thread keeps the block size
     * independent of the 96-thread blade width; totals are still in the
     * final snapshot). Must be deterministic (pure in the id).
     */
    using Filter = std::function<bool(const MetricId &, MetricKind)>;

    /**
     * Runs at every window boundary *before* metrics are sampled, outside
     * the event loop. Derived-signal producers (the SLO burn-rate
     * detector) update their gauges here so the same window's sample
     * sees them.
     */
    using WindowHook = std::function<void(Time)>;

    /** @param window_ns sampling cadence in virtual ns (must be > 0). */
    explicit Timeline(Time window_ns);
    ~Timeline();

    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;

    /**
     * Adopt @p sim: installs this plane's pointer (annotation emitters key
     * off Simulator::timeline() being non-null) and samples its registry.
     * Call once, at setup time.
     */
    void attach(Simulator &sim);

    /** Sampling cadence. */
    Time windowNs() const { return window_; }

    /** Number of windows sampled so far. */
    std::size_t windows() const { return t_.size(); }

    /** First unsampled window boundary (lastSample + window). */
    Time nextSampleAt() const { return lastSample_ + window_; }

    /** Log an event at @p sim's current time (inside event processing). */
    void annotate(const Simulator &sim, std::string kind,
                  std::string target, std::string detail);

    /**
     * Log an event at an explicit time from outside the event loop —
     * e.g. a workload rotation whose time is known statically, or a burn
     * transition from a window hook.
     */
    void annotateAt(Time at, std::string kind, std::string target,
                    std::string detail);

    /** Register a pre-sample hook (see WindowHook). */
    void addWindowHook(WindowHook fn) { hooks_.push_back(std::move(fn)); }

    /** Replace the series filter. Call before the first sample. */
    void setFilter(Filter f) { filter_ = std::move(f); }

    /** The default thread-0-exemplar filter (see Filter). */
    static bool defaultFilter(const MetricId &id, MetricKind kind);

    /**
     * Sample one window ending at @p now (call with now == nextSampleAt(),
     * the clock parked at that time). Runs hooks, then appends one point
     * to every live series: counters report the window delta (reset-aware,
     * and baselined at registration so a series born mid-run starts from
     * its first window's growth, not its lifetime total), gauges report
     * the instantaneous value, histograms report a summary computed from
     * the window's *delta buckets* (per-window percentiles, not the
     * cumulative distribution).
     */
    void sampleAt(Time now);

    /**
     * Serialize:
     *   { "window_ns": W, "t_ns": [W, 2W, ...],
     *     "series": [ {"name", "labels", "kind", "start", "points"} ],
     *     "annotations": [ {"t_ns", "kind", "target", "detail"} ] }
     * "start" is the index into t_ns of a series' first point (series
     * born mid-run start late); counter/gauge points are numbers,
     * histogram points are {count, mean, min, max, p50, p99, p999}.
     * Series are ordered by registration stamp, annotations by
     * (t_ns, kind, target, detail).
     */
    Json toJson() const;

    /**
     * Append Chrome/Perfetto events to @p events (a traceEvents array):
     * counter tracks ("ph":"C") for application-level series
     * (smart.tenant.*, smart.slo.*, app.*) and global instant events
     * ("ph":"i") for every annotation — so rate curves and the causal log
     * line up with spans in one Perfetto UI.
     */
    void appendChromeEvents(Json &events) const;

    /** Fully sorted annotation log (what toJson exports). */
    std::vector<Annotation> sortedAnnotations() const;

  private:
    /** Everything remembered about one metric between windows. */
    struct Series
    {
        MetricId id;
        MetricKind kind = MetricKind::Counter;
        /** Index into t_ of the first point. */
        std::size_t start = 0;
        /** Previous cumulative counter value (starts at the
         *  registration-time baseline). */
        std::uint64_t prevCounter = 0;
        /** Delta-bucket state for histogram series (large; lazy). */
        std::unique_ptr<HistogramWindow> win;
        /** One slot per sampled window since start. */
        std::vector<std::uint64_t> counterPoints;
        std::vector<double> gaugePoints;
        std::vector<WindowSummary> histPoints;
    };

    Time window_ = 0;
    Time lastSample_ = 0;
    Filter filter_ = &Timeline::defaultFilter;
    std::vector<WindowHook> hooks_;
    Simulator *sim_ = nullptr;
    /** Sample times (window ends), one per window. */
    std::vector<Time> t_;
    /** Keyed by registration stamp (stamp order == registration order). */
    std::map<std::uint64_t, Series> series_;
    /** In emission order; sorted at export. */
    std::vector<Annotation> annotations_;
};

} // namespace smart::sim

#endif // SMART_SIM_TIMELINE_HPP
