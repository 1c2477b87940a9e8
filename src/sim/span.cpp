/**
 * @file
 * SpanTracer implementation: recording plus the three exporters
 * (Chrome trace, collapsed stacks, attribution summary).
 */

#include "sim/span.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

#include "sim/simulator.hpp"

namespace smart::sim {

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Op: return "op";
      case Stage::GateWait: return "gate_wait";
      case Stage::Verb: return "verb";
      case Stage::CreditWait: return "credit_wait";
      case Stage::DoorbellWait: return "doorbell_wait";
      case Stage::WqeFetch: return "wqe_fetch";
      case Stage::Dma: return "dma";
      case Stage::Pcie: return "pcie";
      case Stage::Link: return "link";
      case Stage::MttFetch: return "mtt_fetch";
      case Stage::Atomic: return "atomic";
      case Stage::CqePoll: return "cqe_poll";
      case Stage::BackoffSleep: return "backoff_sleep";
      case Stage::RetryRound: return "retry_round";
      case Stage::Cpu: return "cpu";
      case Stage::Cache: return "cache";
      case Stage::AdmissionWait: return "admission_wait";
      case Stage::Unattributed: return "unattributed";
    }
    return "?";
}

SpanTracer::SpanTracer(Simulator &sim, std::uint32_t sample_every,
                       std::size_t max_records)
    : sim_(sim), sampleEvery_(sample_every == 0 ? 1 : sample_every),
      maxRecords_(max_records)
{
    records_.reserve(maxRecords_);
    sim_.installSpanTracer(this);
}

SpanTracer::~SpanTracer()
{
    sim_.installSpanTracer(nullptr);
}

TrackId
SpanTracer::internTrack(std::string name, std::string thread, bool device)
{
    tracks_.push_back({std::move(name), std::move(thread), device});
    return static_cast<TrackId>(tracks_.size());
}

SpanId
SpanTracer::begin(TrackId track, Stage stage, SpanId parent)
{
    if (records_.size() >= maxRecords_) {
        ++dropped_;
        return 0;
    }
    SpanRecord r;
    r.start = sim_.now();
    r.parent = parent;
    r.track = track;
    r.stage = stage;
    r.open = true;
    records_.push_back(r);
    return static_cast<SpanId>(records_.size());
}

void
SpanTracer::end(SpanId id)
{
    if (id == 0)
        return;
    SpanRecord &r = records_[id - 1];
    r.end = sim_.now();
    r.open = false;
}

void
SpanTracer::record(TrackId track, Stage stage, SpanId parent, Time start,
                   Time end_time)
{
    if (end_time <= start)
        return; // zero-duration spans carry no attribution
    if (records_.size() >= maxRecords_) {
        ++dropped_;
        return;
    }
    SpanRecord r;
    r.start = start;
    r.end = end_time;
    r.parent = parent;
    r.track = track;
    r.stage = stage;
    records_.push_back(r);
}

const std::string &
SpanTracer::threadOf(const SpanRecord &r) const
{
    const SpanRecord *cur = &r;
    // Device spans attribute to the thread of the coroutine span that
    // issued them (bounded walk: parent chains are shallow).
    for (int hops = 0; hops < 16; ++hops) {
        const Track &t = tracks_[cur->track - 1];
        if (!t.device || cur->parent == 0)
            return t.thread;
        cur = &records_[cur->parent - 1];
    }
    return tracks_[cur->track - 1].thread;
}

namespace {

/**
 * Stages recorded *about* a coroutine by another actor (the flusher's
 * credit wait, the QP's doorbell arbitration, the open-loop driver's
 * admission wait) run concurrently with — or, for admission wait,
 * entirely before — the coroutine's own timeline. Like device spans they
 * are breakdown-only: excluded from self-time subtraction and from the
 * coverage sum, and drawn as async pairs.
 */
bool
asyncStage(Stage s)
{
    return s == Stage::CreditWait || s == Stage::DoorbellWait ||
           s == Stage::AdmissionWait;
}

/** Same-track direct-child duration sums (self-time computation). */
std::vector<std::uint64_t>
childSums(const std::vector<SpanRecord> &records)
{
    std::vector<std::uint64_t> sums(records.size(), 0);
    for (const SpanRecord &r : records) {
        if (r.open || r.parent == 0 || asyncStage(r.stage))
            continue;
        const SpanRecord &p = records[r.parent - 1];
        if (p.track == r.track)
            sums[r.parent - 1] += r.end - r.start;
    }
    return sums;
}

/**
 * @return the root of @p r's same-track parent chain — the op span the
 * record belongs to, when the chain is rooted in one.
 */
const SpanRecord &
sameTrackRoot(const std::vector<SpanRecord> &records, const SpanRecord &r)
{
    const SpanRecord *cur = &r;
    while (cur->parent != 0 &&
           records[cur->parent - 1].track == cur->track)
        cur = &records[cur->parent - 1];
    return *cur;
}

/** Exact nearest-rank percentile of a sorted sample vector. */
std::uint64_t
pctOf(const std::vector<std::uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    double rank = p / 100.0 * static_cast<double>(sorted.size());
    std::size_t idx = rank <= 1.0
        ? 0
        : static_cast<std::size_t>(rank + 0.999999) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

Json
SpanTracer::chromeTrace() const
{
    Json events = Json::array();
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        Json meta = Json::object();
        meta.set("name", "thread_name");
        meta.set("ph", "M");
        meta.set("pid", std::uint64_t{1});
        meta.set("tid", static_cast<std::uint64_t>(t + 1));
        Json args = Json::object();
        args.set("name", tracks_[t].name);
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        if (r.open)
            continue; // still-open spans have no extent to draw
        double ts_us = static_cast<double>(r.start) / 1000.0;
        double dur_us = static_cast<double>(r.end - r.start) / 1000.0;
        if (!tracks_[r.track - 1].device && !asyncStage(r.stage)) {
            // Coroutine tracks are properly nested: complete events.
            Json e = Json::object();
            e.set("name", stageName(r.stage));
            e.set("ph", "X");
            e.set("ts", ts_us);
            e.set("dur", dur_us);
            e.set("pid", std::uint64_t{1});
            e.set("tid", static_cast<std::uint64_t>(r.track));
            events.push(std::move(e));
        } else {
            // Device and cross-actor spans overlap: async begin/end
            // pairs keyed by span id, categorized under the track name.
            for (int half = 0; half < 2; ++half) {
                Json e = Json::object();
                e.set("name", stageName(r.stage));
                e.set("cat", tracks_[r.track - 1].name);
                e.set("ph", half == 0 ? "b" : "e");
                e.set("id", static_cast<std::uint64_t>(i + 1));
                e.set("ts", half == 0
                                ? ts_us
                                : static_cast<double>(r.end) / 1000.0);
                e.set("pid", std::uint64_t{1});
                e.set("tid", static_cast<std::uint64_t>(r.track));
                events.push(std::move(e));
            }
        }
    }
    Json root = Json::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ns");
    return root;
}

std::string
SpanTracer::chromeTraceString() const
{
    return chromeTrace().dump(1);
}

std::string
SpanTracer::collapsedStacks(const std::string &prefix) const
{
    std::vector<std::uint64_t> sums = childSums(records_);
    // Aggregate identical stacks; std::map keeps the output stable.
    std::map<std::string, std::uint64_t> folded;
    std::vector<const char *> chain;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        if (r.open || tracks_[r.track - 1].device || asyncStage(r.stage))
            continue;
        const SpanRecord &root = sameTrackRoot(records_, r);
        if (root.stage != Stage::Op || root.open)
            continue; // only complete ops contribute weight
        std::uint64_t dur = r.end - r.start;
        std::uint64_t self = dur - std::min(sums[i], dur);
        if (self == 0)
            continue;
        chain.clear();
        const SpanRecord *cur = &r;
        for (;;) {
            chain.push_back(stageName(cur->stage));
            if (cur->parent == 0 ||
                records_[cur->parent - 1].track != cur->track)
                break;
            cur = &records_[cur->parent - 1];
        }
        std::string path;
        if (!prefix.empty()) {
            path += prefix;
            path += ';';
        }
        path += tracks_[r.track - 1].name;
        for (std::size_t c = chain.size(); c > 0; --c) {
            path += ';';
            path += chain[c - 1];
        }
        folded[path] += self;
    }
    std::ostringstream os;
    for (const auto &[path, weight] : folded)
        os << path << ' ' << weight << '\n';
    return os.str();
}

Json
SpanTracer::attribution() const
{
    std::vector<std::uint64_t> sums = childSums(records_);

    // (stage, thread) -> sample durations. Stage-then-thread map order
    // makes the emitted table deterministic.
    struct Group
    {
        std::vector<std::uint64_t> samples;
        std::uint64_t total = 0;
        bool overlap = false;
    };
    std::map<std::pair<int, std::string>, Group> groups;
    std::uint64_t op_total = 0;
    std::uint64_t attributed = 0;
    std::uint64_t open_count = 0;

    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        if (r.open) {
            ++open_count;
            continue;
        }
        std::uint64_t dur = r.end - r.start;
        if (tracks_[r.track - 1].device || asyncStage(r.stage)) {
            // Overlaps coroutine time that is already attributed; listed
            // for breakdown but excluded from the coverage sum.
            Group &g = groups[{static_cast<int>(r.stage), threadOf(r)}];
            g.samples.push_back(dur);
            g.total += dur;
            g.overlap = true;
            continue;
        }
        const SpanRecord &root = sameTrackRoot(records_, r);
        if (root.stage != Stage::Op || root.open)
            continue; // op still in flight at capture time
        std::uint64_t self = dur - std::min(sums[i], dur);
        Stage st =
            r.stage == Stage::Op ? Stage::Unattributed : r.stage;
        if (r.stage == Stage::Op)
            op_total += dur;
        if (self == 0)
            continue;
        Group &g = groups[{static_cast<int>(st), threadOf(r)}];
        g.samples.push_back(self);
        g.total += self;
        attributed += self;
    }

    Json stages = Json::array();
    for (auto &[key, g] : groups) {
        std::sort(g.samples.begin(), g.samples.end());
        Json e = Json::object();
        e.set("stage", stageName(static_cast<Stage>(key.first)));
        e.set("thread", key.second);
        e.set("overlap", g.overlap);
        e.set("count", static_cast<std::uint64_t>(g.samples.size()));
        e.set("total_ns", g.total);
        e.set("p50_ns", pctOf(g.samples, 50.0));
        e.set("p99_ns", pctOf(g.samples, 99.0));
        e.set("p999_ns", pctOf(g.samples, 99.9));
        e.set("share", op_total
                           ? static_cast<double>(g.total) /
                                 static_cast<double>(op_total)
                           : 0.0);
        stages.push(std::move(e));
    }

    Json cov = Json::object();
    cov.set("op_total_ns", op_total);
    cov.set("attributed_ns", attributed);
    cov.set("ratio", op_total ? static_cast<double>(attributed) /
                                    static_cast<double>(op_total)
                              : 0.0);

    Json root = Json::object();
    root.set("sample_every", static_cast<std::uint64_t>(sampleEvery_));
    root.set("records", static_cast<std::uint64_t>(records_.size()));
    root.set("dropped", dropped_);
    root.set("open", open_count);
    root.set("coverage", std::move(cov));
    root.set("stages", std::move(stages));
    return root;
}

} // namespace smart::sim
