/**
 * @file
 * MetricsRegistry: the unified observability layer. Components register
 * named counters / gauges / histograms together with a label set
 * (e.g. {blade: "cb0", thread: "17", policy: "per-thread-db"}); the
 * registry snapshots, diffs and serializes them uniformly, so harnesses
 * and the tracer never reach into component internals.
 *
 * Registration stores *references*: the component keeps owning its
 * counters (the hot path is untouched), and unregisters them with its
 * owner token on destruction. The registry itself is owned by the
 * Simulator, which every component already receives.
 */

#ifndef SMART_SIM_METRICS_HPP
#define SMART_SIM_METRICS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smart::sim {

/** Label set attached to a metric, kept sorted by key. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Identity of one metric: name plus its (sorted) labels. */
struct MetricId
{
    std::string name;
    Labels labels;

    /** @return the value of label @p key, or "" if absent. */
    const std::string &label(const std::string &key) const;

    bool
    operator==(const MetricId &o) const
    {
        return name == o.name && labels == o.labels;
    }
};

/** What a registered metric measures. */
enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/** @return "counter" / "gauge" / "histogram". */
const char *metricKindName(MetricKind k);

/** Fixed-size summary of a LatencyHistogram at snapshot time. */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double mean = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;

    static HistogramSummary of(const LatencyHistogram &h);
    bool operator==(const HistogramSummary &) const = default;
};

/** Point-in-time value of one registered metric. */
struct SnapshotEntry
{
    MetricId id;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counter = 0; ///< MetricKind::Counter
    double gauge = 0;          ///< MetricKind::Gauge
    HistogramSummary hist;     ///< MetricKind::Histogram
    /**
     * Counter value at registration time (in-memory only, not
     * serialized). deltaSince() subtracts it for counters registered
     * after the earlier snapshot was taken, so a late-registered
     * counter's first windowed point reports its growth since
     * registration instead of its lifetime total.
     */
    std::uint64_t baseline = 0;
};

/**
 * A full registry snapshot: every metric's value at one virtual time.
 * Snapshots are value types — they stay valid after the components (or
 * the registry) are gone, and two snapshots can be diffed.
 */
struct MetricsSnapshot
{
    Time at = 0;
    std::vector<SnapshotEntry> entries;

    /** @return entry matching @p name and @p labels, or nullptr. */
    const SnapshotEntry *find(const std::string &name,
                              const Labels &labels) const;

    /** @return first entry named @p name, or nullptr. */
    const SnapshotEntry *find(const std::string &name) const;

    /** Sum of all counters named @p name across label sets. */
    std::uint64_t sumCounters(const std::string &name) const;

    /**
     * Windowed view: counters become deltas against @p earlier (matched
     * by id; unmatched entries keep their cumulative value). Gauges and
     * histogram percentiles stay at this snapshot's (later) values;
     * histogram count/mean are recomputed over the window.
     */
    MetricsSnapshot deltaSince(const MetricsSnapshot &earlier) const;

    /** Serialize to the report JSON form (array of metric objects). */
    Json toJson() const;

    /** Rebuild from toJson() output. @return false on malformed input. */
    static bool fromJson(const Json &j, MetricsSnapshot &out);
};

/** Central registry of component metrics. One per Simulator. */
class MetricsRegistry
{
  public:
    /**
     * Register a counter. @p owner groups registrations for
     * unregisterOwner(); @p c must outlive the registration.
     */
    void registerCounter(const void *owner, std::string name, Labels labels,
                         const Counter *c);

    /** Register a gauge sampled through @p read. */
    void registerGauge(const void *owner, std::string name, Labels labels,
                       std::function<double()> read);

    /** Register a latency histogram. */
    void registerHistogram(const void *owner, std::string name,
                           Labels labels, const LatencyHistogram *h);

    /** Drop every metric registered with @p owner. */
    void unregisterOwner(const void *owner);

    /** @return number of registered metrics. */
    std::size_t size() const { return entries_.size(); }

    /** @return values of every registered metric at time @p now. */
    MetricsSnapshot snapshot(Time now) const;

    /**
     * Visit every scalar metric (counters and gauges) as a double —
     * the tracer uses this to build its series list.
     */
    void forEachScalar(
        const std::function<void(const MetricId &, MetricKind,
                                 const std::function<double()> &)> &fn)
        const;

    /**
     * Borrowed view of one registration, for samplers that keep their
     * own per-metric window state (sim/timeline.hpp). Pointers are valid
     * only inside the forEachRaw callback.
     */
    struct RawMetric
    {
        const MetricId *id = nullptr;
        MetricKind kind = MetricKind::Counter;
        /** Process-global registration stamp: identifies one
         *  registration (a re-registered id gets a new stamp). */
        std::uint64_t stamp = 0;
        /** Counter value at registration (windowed-delta baseline). */
        std::uint64_t baseline = 0;
        const Counter *counter = nullptr;
        const std::function<double()> *gauge = nullptr;
        const LatencyHistogram *hist = nullptr;
    };

    /** Visit every registered metric without sampling it. */
    void
    forEachRaw(const std::function<void(const RawMetric &)> &fn) const;

  private:
    struct Entry
    {
        const void *owner = nullptr;
        MetricId id;
        MetricKind kind = MetricKind::Counter;
        const Counter *counter = nullptr;
        std::function<double()> gauge;
        const LatencyHistogram *hist = nullptr;
        /** Process-global registration order (see RawMetric::stamp). */
        std::uint64_t stamp = 0;
        /** Counter value at registration (see RawMetric::baseline). */
        std::uint64_t baseline = 0;
    };

    static SnapshotEntry sample(const Entry &e);

    void add(Entry e);

    std::vector<Entry> entries_;
};

} // namespace smart::sim

#endif // SMART_SIM_METRICS_HPP
