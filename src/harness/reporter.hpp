/**
 * @file
 * Reporter: assembles a full machine-readable record of one bench
 * invocation — configuration, result tables, per-run metrics snapshots
 * and controller timelines — and serializes it as JSON
 * (schema "smart-bench-report/v3"). scripts/check_bench_json.py
 * validates the schema; EXPERIMENTS.md documents it.
 */

#ifndef SMART_HARNESS_REPORTER_HPP
#define SMART_HARNESS_REPORTER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "harness/testbed.hpp"
#include "sim/json.hpp"
#include "sim/table.hpp"

namespace smart::harness {

/**
 * Wall-clock performance of one bench process: how hard the DES kernel
 * worked and how fast. Sourced from sim::collectKernelPerf(), so benches
 * with several Simulators aggregate correctly: events and inserts sum
 * across them, peak depth is the max over their peaks. Embedded in every
 * JSON report as the "perf" block — the repo's perf trajectory is the
 * history of these blocks across commits (see EXPERIMENTS.md).
 */
struct PerfBlock
{
    double wallMs = 0.0;
    std::uint64_t eventsProcessed = 0; ///< summed across Simulators
    double eventsPerSec = 0.0;
    std::uint64_t peakQueueDepth = 0; ///< max over per-Simulator peaks
    std::uint64_t ringInserts = 0;
    std::uint64_t heapInserts = 0;
    /** Host hardware threads (context for wall-clock numbers). */
    std::uint32_t hostCores = 0;
};

/** Builds the JSON report of one bench process. */
class Reporter
{
  public:
    Reporter(std::string bench, bool quick, std::uint64_t seed)
        : bench_(std::move(bench)), quick_(quick), seed_(seed)
    {
    }

    /** Install the wall-clock perf block (BenchCli fills this). */
    void setPerf(const PerfBlock &p) { perf_ = p; }

    /**
     * Install the per-tenant SLO block (open-loop benches fill this):
     * emitted as the top-level "slo" key when set. Expected shape:
     * {"<tenant>": {"target_p99_ns", "violation_fraction", ...}, ...}.
     */
    void setSlo(sim::Json slo) { slo_ = std::move(slo); }

    /** Record a result table under @p name. */
    void addTable(const std::string &name, const sim::Table &t);

    /** Record one measured run (snapshot + optional time series). */
    void addRun(const RunCapture &cap);

    /** Record a free-form note (the benches' "Paper shape" blurbs). */
    void addNote(const std::string &text) { notes_.push_back(text); }

    std::size_t numRuns() const { return runs_.size(); }

    /** @return the whole report as a Json tree. */
    sim::Json toJson() const;

    /** Write the report to @p path. @return false on I/O failure. */
    bool writeTo(const std::string &path) const;

  private:
    std::string bench_;
    bool quick_;
    std::uint64_t seed_;
    std::vector<std::pair<std::string, sim::Json>> tables_;
    std::vector<sim::Json> runs_;
    std::vector<std::string> notes_;
    PerfBlock perf_;
    sim::Json slo_;
};

} // namespace smart::harness

#endif // SMART_HARNESS_REPORTER_HPP
