/**
 * @file
 * Reporter implementation.
 */

#include "harness/reporter.hpp"

#include <fstream>

// Build provenance, defined for this file by src/harness/CMakeLists.txt
// at configure time. Builds that compile the sources without that file
// report "unknown".
#ifndef SMART_GIT_DESCRIBE
#define SMART_GIT_DESCRIBE "unknown"
#endif
#ifndef SMART_BUILD_TYPE
#define SMART_BUILD_TYPE "unknown"
#endif
#ifndef SMART_LTO
#define SMART_LTO 0
#endif
#ifndef SMART_COMPILER_ID
#define SMART_COMPILER_ID "unknown"
#endif
#ifndef SMART_COMPILER_VERSION
#define SMART_COMPILER_VERSION "unknown"
#endif

namespace smart::harness {

using sim::Json;

namespace {

/** Which build produced the report: lets two reports be compared. */
Json
provenance()
{
    Json compiler = Json::object();
    compiler.set("id", Json(SMART_COMPILER_ID));
    compiler.set("version", Json(SMART_COMPILER_VERSION));
    Json p = Json::object();
    p.set("git_describe", Json(SMART_GIT_DESCRIBE));
    p.set("build_type", Json(SMART_BUILD_TYPE));
    p.set("lto", Json(SMART_LTO != 0));
    p.set("compiler", std::move(compiler));
    return p;
}

} // namespace

void
Reporter::addTable(const std::string &name, const sim::Table &t)
{
    Json jt = Json::object();
    jt.set("name", Json(name));
    Json header = Json::array();
    for (const std::string &h : t.header())
        header.push(Json(h));
    jt.set("header", std::move(header));
    Json rows = Json::array();
    for (const auto &r : t.rows()) {
        Json row = Json::array();
        for (const std::string &cell : r)
            row.push(Json(cell));
        rows.push(std::move(row));
    }
    jt.set("rows", std::move(rows));
    tables_.emplace_back(name, std::move(jt));
}

void
Reporter::addRun(const RunCapture &cap)
{
    Json jr = Json::object();
    jr.set("label", Json(cap.label));
    jr.set("at_ns", Json(cap.metrics.at));
    jr.set("metrics", cap.metrics.toJson());
    if (cap.spans.isObject())
        jr.set("spans", cap.spans);
    if (cap.timeseries.isObject())
        jr.set("timeseries", cap.timeseries);
    runs_.push_back(std::move(jr));
}

Json
Reporter::toJson() const
{
    Json root = Json::object();
    root.set("schema", Json("smart-bench-report/v3"));
    root.set("bench", Json(bench_));
    root.set("quick", Json(quick_));
    root.set("seed", Json(seed_));
    root.set("provenance", provenance());
    Json tables = Json::array();
    for (const auto &[name, jt] : tables_)
        tables.push(jt);
    root.set("tables", std::move(tables));
    Json runs = Json::array();
    for (const Json &r : runs_)
        runs.push(r);
    root.set("runs", std::move(runs));
    Json notes = Json::array();
    for (const std::string &n : notes_)
        notes.push(Json(n));
    root.set("notes", std::move(notes));
    if (slo_.isObject())
        root.set("slo", slo_);
    Json perf = Json::object();
    perf.set("wall_ms", Json(perf_.wallMs));
    perf.set("events_processed", Json(perf_.eventsProcessed));
    perf.set("events_per_sec", Json(perf_.eventsPerSec));
    perf.set("peak_queue_depth", Json(perf_.peakQueueDepth));
    perf.set("ring_inserts", Json(perf_.ringInserts));
    perf.set("heap_inserts", Json(perf_.heapInserts));
    perf.set("host_cores", Json(static_cast<std::uint64_t>(perf_.hostCores)));
    root.set("perf", std::move(perf));
    return root;
}

bool
Reporter::writeTo(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    toJson().dump(f, 1);
    f << "\n";
    return static_cast<bool>(f);
}

} // namespace smart::harness
