/**
 * @file
 * Timeline implementation: windowed sampling, annotation merge, exports.
 */

#include "sim/timeline.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "sim/simulator.hpp"

namespace smart::sim {

Timeline::Timeline(Time window_ns) : window_(window_ns)
{
    assert(window_ > 0 && "timeline window must be positive");
}

Timeline::~Timeline()
{
    if (sim_ != nullptr && sim_->timeline() == this)
        sim_->installTimeline(nullptr);
}

void
Timeline::attach(Simulator &sim)
{
    assert(sim_ == nullptr && "a Timeline samples one Simulator");
    sim.installTimeline(this);
    sim_ = &sim;
}

void
Timeline::annotate(const Simulator &sim, std::string kind,
                   std::string target, std::string detail)
{
    annotations_.push_back(Annotation{sim.now(), std::move(kind),
                                      std::move(target), std::move(detail)});
}

void
Timeline::annotateAt(Time at, std::string kind, std::string target,
                     std::string detail)
{
    annotations_.push_back(
        Annotation{at, std::move(kind), std::move(target),
                   std::move(detail)});
}

bool
Timeline::defaultFilter(const MetricId &id, MetricKind kind)
{
    (void)kind;
    const std::string &thread = id.label("thread");
    return thread.empty() || thread == "0";
}

void
Timeline::sampleAt(Time now)
{
    if (now <= lastSample_ && !t_.empty())
        return; // idempotent at a boundary already taken
    for (const WindowHook &hook : hooks_)
        hook(now);
    const std::size_t window_idx = t_.size();
    t_.push_back(now);
    lastSample_ = now;

    if (sim_ == nullptr)
        return;
    // The registry lists metrics in registration-stamp order, so series
    // are created (and exported) in that order.
    std::vector<MetricsRegistry::RawMetric> raw;
    sim_->metrics().forEachRaw(
        [&raw](const MetricsRegistry::RawMetric &m) { raw.push_back(m); });

    for (const MetricsRegistry::RawMetric &m : raw) {
        if (filter_ && !filter_(*m.id, m.kind))
            continue;
        auto [it, created] = series_.try_emplace(m.stamp);
        Series &s = it->second;
        if (created) {
            s.id = *m.id;
            s.kind = m.kind;
            s.start = window_idx;
            if (m.kind == MetricKind::Counter)
                s.prevCounter = m.baseline;
            else if (m.kind == MetricKind::Histogram)
                s.win = std::make_unique<HistogramWindow>();
        }
        switch (m.kind) {
          case MetricKind::Counter: {
            std::uint64_t cur = m.counter->value();
            // A reset mid-window (value went backwards) restarts the
            // delta from zero instead of wrapping.
            s.counterPoints.push_back(
                cur < s.prevCounter ? cur : cur - s.prevCounter);
            s.prevCounter = cur;
            break;
          }
          case MetricKind::Gauge:
            s.gaugePoints.push_back((*m.gauge)());
            break;
          case MetricKind::Histogram:
            s.histPoints.push_back(s.win->advance(*m.hist));
            break;
        }
    }
}

std::vector<Annotation>
Timeline::sortedAnnotations() const
{
    // Filled by insert rather than copy-constructed: the copy trips a
    // GCC 12 -Wmaybe-uninitialized false positive in toJson().
    std::vector<Annotation> all;
    all.reserve(annotations_.size());
    all.insert(all.end(), annotations_.begin(), annotations_.end());
    // Full-tuple sort: events that collide on every field are
    // interchangeable, so the exported order is a pure function of the
    // logged set.
    std::sort(all.begin(), all.end(),
              [](const Annotation &a, const Annotation &b) {
                  return std::tie(a.at, a.kind, a.target, a.detail) <
                         std::tie(b.at, b.kind, b.target, b.detail);
              });
    return all;
}

Json
Timeline::toJson() const
{
    Json out = Json::object();
    out.set("window_ns", static_cast<std::uint64_t>(window_));
    Json times = Json::array();
    for (Time t : t_)
        times.push(static_cast<std::uint64_t>(t));
    out.set("t_ns", std::move(times));

    Json series = Json::array();
    for (const auto &[stamp, s] : series_) {
        Json labels = Json::object();
        for (const auto &[k, v] : s.id.labels)
            labels.set(k, v);
        Json js = Json::object();
        js.set("name", s.id.name);
        js.set("labels", std::move(labels));
        js.set("kind", metricKindName(s.kind));
        js.set("start", static_cast<std::uint64_t>(s.start));
        Json points = Json::array();
        switch (s.kind) {
          case MetricKind::Counter:
            for (std::uint64_t v : s.counterPoints)
                points.push(v);
            break;
          case MetricKind::Gauge:
            for (double v : s.gaugePoints)
                points.push(v);
            break;
          case MetricKind::Histogram:
            for (const WindowSummary &w : s.histPoints) {
                Json h = Json::object();
                h.set("count", w.count);
                h.set("mean", w.mean);
                h.set("min", w.min);
                h.set("max", w.max);
                h.set("p50", w.p50);
                h.set("p99", w.p99);
                h.set("p999", w.p999);
                points.push(std::move(h));
            }
            break;
        }
        js.set("points", std::move(points));
        series.push(std::move(js));
    }
    out.set("series", std::move(series));

    Json anns = Json::array();
    for (const Annotation &a : sortedAnnotations()) {
        Json ja = Json::object();
        ja.set("t_ns", static_cast<std::uint64_t>(a.at));
        ja.set("kind", a.kind);
        ja.set("target", a.target);
        ja.set("detail", a.detail);
        anns.push(std::move(ja));
    }
    out.set("annotations", std::move(anns));
    return out;
}

namespace {

std::string
labelsText(const Labels &labels)
{
    std::string out;
    for (const auto &[k, v] : labels) {
        if (!out.empty())
            out += ';';
        out += k;
        out += '=';
        out += v;
    }
    return out;
}

} // namespace

void
Timeline::appendChromeEvents(Json &events) const
{
    assert(events.isArray());
    for (const auto &[stamp, s] : series_) {
        // Counter tracks are worthwhile for the application-facing
        // series; the full per-component set would drown the span view.
        if (s.id.name.rfind("smart.tenant.", 0) != 0 &&
            s.id.name.rfind("smart.slo.", 0) != 0 &&
            s.id.name.rfind("app.", 0) != 0)
            continue;
        std::string track = s.id.name;
        const std::string labels = labelsText(s.id.labels);
        if (!labels.empty())
            track += "[" + labels + "]";
        const std::size_t n = s.kind == MetricKind::Counter
                                  ? s.counterPoints.size()
                                  : s.kind == MetricKind::Gauge
                                        ? s.gaugePoints.size()
                                        : s.histPoints.size();
        for (std::size_t i = 0; i < n; ++i) {
            double v = 0;
            switch (s.kind) {
              case MetricKind::Counter:
                v = static_cast<double>(s.counterPoints[i]);
                break;
              case MetricKind::Gauge:
                v = s.gaugePoints[i];
                break;
              case MetricKind::Histogram:
                v = static_cast<double>(s.histPoints[i].p99);
                break;
            }
            Json e = Json::object();
            e.set("name", track);
            e.set("ph", "C");
            e.set("ts", static_cast<double>(t_[s.start + i]) / 1000.0);
            e.set("pid", 0);
            e.set("tid", 0);
            Json args = Json::object();
            args.set("value", v);
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
    }
    for (const Annotation &a : sortedAnnotations()) {
        Json e = Json::object();
        e.set("name", a.kind + ": " + a.target);
        e.set("ph", "i");
        e.set("ts", static_cast<double>(a.at) / 1000.0);
        e.set("pid", 0);
        e.set("tid", 0);
        e.set("s", "g");
        Json args = Json::object();
        args.set("detail", a.detail);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
}

} // namespace smart::sim
