/**
 * @file
 * MetricsRegistry / MetricsSnapshot implementation.
 */

#include "sim/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace smart::sim {

const std::string &
MetricId::label(const std::string &key) const
{
    static const std::string kEmpty;
    for (const auto &[k, v] : labels) {
        if (k == key)
            return v;
    }
    return kEmpty;
}

const char *
metricKindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

HistogramSummary
HistogramSummary::of(const LatencyHistogram &h)
{
    HistogramSummary s;
    s.count = h.count();
    s.mean = h.mean();
    s.min = h.min();
    s.max = h.max();
    s.p50 = h.p50();
    s.p90 = h.percentile(90);
    s.p99 = h.p99();
    s.p999 = h.p999();
    return s;
}

// ------------------------------------------------------------- snapshot

const SnapshotEntry *
MetricsSnapshot::find(const std::string &name, const Labels &labels) const
{
    for (const SnapshotEntry &e : entries) {
        if (e.id.name == name && e.id.labels == labels)
            return &e;
    }
    return nullptr;
}

const SnapshotEntry *
MetricsSnapshot::find(const std::string &name) const
{
    for (const SnapshotEntry &e : entries) {
        if (e.id.name == name)
            return &e;
    }
    return nullptr;
}

std::uint64_t
MetricsSnapshot::sumCounters(const std::string &name) const
{
    std::uint64_t sum = 0;
    for (const SnapshotEntry &e : entries) {
        if (e.kind == MetricKind::Counter && e.id.name == name)
            sum += e.counter;
    }
    return sum;
}

MetricsSnapshot
MetricsSnapshot::deltaSince(const MetricsSnapshot &earlier) const
{
    MetricsSnapshot out = *this;
    for (SnapshotEntry &e : out.entries) {
        const SnapshotEntry *prev = earlier.find(e.id.name, e.id.labels);
        if (!prev || prev->kind != e.kind) {
            // Registered after @p earlier was taken: fall back to the
            // registration-time baseline so the first windowed point is
            // still a delta (growth since registration), not a lifetime
            // total.
            if (e.kind == MetricKind::Counter)
                e.counter -= std::min(e.baseline, e.counter);
            continue;
        }
        if (e.kind == MetricKind::Counter) {
            e.counter -= std::min(prev->counter, e.counter);
        } else if (e.kind == MetricKind::Histogram) {
            std::uint64_t dcount =
                e.hist.count - std::min(prev->hist.count, e.hist.count);
            double dsum = e.hist.mean * static_cast<double>(e.hist.count) -
                          prev->hist.mean *
                              static_cast<double>(prev->hist.count);
            e.hist.count = dcount;
            e.hist.mean = dcount ? dsum / static_cast<double>(dcount) : 0.0;
        }
    }
    return out;
}

Json
MetricsSnapshot::toJson() const
{
    Json arr = Json::array();
    for (const SnapshotEntry &e : entries) {
        Json labels = Json::object();
        for (const auto &[k, v] : e.id.labels)
            labels.set(k, v);
        Json m = Json::object();
        m.set("name", e.id.name);
        m.set("labels", std::move(labels));
        m.set("kind", metricKindName(e.kind));
        switch (e.kind) {
          case MetricKind::Counter:
            m.set("value", e.counter);
            break;
          case MetricKind::Gauge:
            m.set("value", e.gauge);
            break;
          case MetricKind::Histogram: {
            Json h = Json::object();
            h.set("count", e.hist.count);
            h.set("mean", e.hist.mean);
            h.set("min", e.hist.min);
            h.set("max", e.hist.max);
            h.set("p50", e.hist.p50);
            h.set("p90", e.hist.p90);
            h.set("p99", e.hist.p99);
            h.set("p999", e.hist.p999);
            m.set("value", std::move(h));
            break;
          }
        }
        arr.push(std::move(m));
    }
    return arr;
}

bool
MetricsSnapshot::fromJson(const Json &j, MetricsSnapshot &out)
{
    if (!j.isArray())
        return false;
    out.entries.clear();
    for (const Json &m : j.asArray()) {
        const Json *name = m.find("name");
        const Json *labels = m.find("labels");
        const Json *kind = m.find("kind");
        const Json *value = m.find("value");
        if (!name || !name->isString() || !labels || !labels->isObject() ||
            !kind || !kind->isString() || !value)
            return false;
        SnapshotEntry e;
        e.id.name = name->asString();
        for (const auto &[k, v] : labels->asObject()) {
            if (!v.isString())
                return false;
            e.id.labels.emplace_back(k, v.asString());
        }
        const std::string &ks = kind->asString();
        if (ks == "counter") {
            e.kind = MetricKind::Counter;
            e.counter = value->asUint();
        } else if (ks == "gauge") {
            e.kind = MetricKind::Gauge;
            e.gauge = value->asDouble();
        } else if (ks == "histogram") {
            e.kind = MetricKind::Histogram;
            if (!value->isObject())
                return false;
            auto num = [&](const char *key) -> std::uint64_t {
                const Json *f = value->find(key);
                return f ? f->asUint() : 0;
            };
            e.hist.count = num("count");
            const Json *mean = value->find("mean");
            e.hist.mean = mean ? mean->asDouble() : 0.0;
            e.hist.min = num("min");
            e.hist.max = num("max");
            e.hist.p50 = num("p50");
            e.hist.p90 = num("p90");
            e.hist.p99 = num("p99");
            e.hist.p999 = num("p999");
        } else {
            return false;
        }
        out.entries.push_back(std::move(e));
    }
    return true;
}

// ------------------------------------------------------------- registry

void
MetricsRegistry::add(Entry e)
{
    std::sort(e.id.labels.begin(), e.id.labels.end());
    // Duplicate ids would make snapshots ambiguous; registrations come
    // from constructors, so any collision is a wiring bug.
    assert(std::none_of(entries_.begin(), entries_.end(),
                        [&](const Entry &o) { return o.id == e.id; }));
    // Stamps increase in registration order, so entries_ stays sorted
    // by stamp (unregisterOwner preserves order).
    static std::uint64_t next = 1;
    e.stamp = next++;
    // Counters may carry history from before registration (a component
    // re-registering after a reset window, or registered mid-run): the
    // baseline anchors windowed deltas at the registration point.
    if (e.kind == MetricKind::Counter)
        e.baseline = e.counter->value();
    entries_.push_back(std::move(e));
}

void
MetricsRegistry::registerCounter(const void *owner, std::string name,
                                 Labels labels, const Counter *c)
{
    Entry e;
    e.owner = owner;
    e.id = {std::move(name), std::move(labels)};
    e.kind = MetricKind::Counter;
    e.counter = c;
    add(std::move(e));
}

void
MetricsRegistry::registerGauge(const void *owner, std::string name,
                               Labels labels, std::function<double()> read)
{
    Entry e;
    e.owner = owner;
    e.id = {std::move(name), std::move(labels)};
    e.kind = MetricKind::Gauge;
    e.gauge = std::move(read);
    add(std::move(e));
}

void
MetricsRegistry::registerHistogram(const void *owner, std::string name,
                                   Labels labels, const LatencyHistogram *h)
{
    Entry e;
    e.owner = owner;
    e.id = {std::move(name), std::move(labels)};
    e.kind = MetricKind::Histogram;
    e.hist = h;
    add(std::move(e));
}

void
MetricsRegistry::unregisterOwner(const void *owner)
{
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [owner](const Entry &e) {
                                      return e.owner == owner;
                                  }),
                   entries_.end());
}

SnapshotEntry
MetricsRegistry::sample(const Entry &e)
{
    SnapshotEntry s;
    s.id = e.id;
    s.kind = e.kind;
    s.baseline = e.baseline;
    switch (e.kind) {
      case MetricKind::Counter:
        s.counter = e.counter->value();
        break;
      case MetricKind::Gauge:
        s.gauge = e.gauge();
        break;
      case MetricKind::Histogram:
        s.hist = HistogramSummary::of(*e.hist);
        break;
    }
    return s;
}

MetricsSnapshot
MetricsRegistry::snapshot(Time now) const
{
    MetricsSnapshot snap;
    snap.at = now;
    snap.entries.reserve(entries_.size());
    for (const Entry &e : entries_)
        snap.entries.push_back(sample(e));
    return snap;
}

void
MetricsRegistry::forEachScalar(
    const std::function<void(const MetricId &, MetricKind,
                             const std::function<double()> &)> &fn) const
{
    for (const Entry &e : entries_) {
        if (e.kind == MetricKind::Counter) {
            const Counter *c = e.counter;
            fn(e.id, e.kind,
               [c] { return static_cast<double>(c->value()); });
        } else if (e.kind == MetricKind::Gauge) {
            fn(e.id, e.kind, e.gauge);
        }
    }
}

void
MetricsRegistry::forEachRaw(
    const std::function<void(const RawMetric &)> &fn) const
{
    for (const Entry &e : entries_) {
        RawMetric r;
        r.id = &e.id;
        r.kind = e.kind;
        r.stamp = e.stamp;
        r.baseline = e.baseline;
        r.counter = e.counter;
        r.gauge = e.kind == MetricKind::Gauge ? &e.gauge : nullptr;
        r.hist = e.hist;
        fn(r);
    }
}

} // namespace smart::sim
