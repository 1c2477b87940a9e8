/**
 * @file
 * BenchCli: the shared command-line front end of every bench binary.
 * Parses the common flags, owns the output directory, collects result
 * tables and per-run captures, and writes the JSON report on finish().
 *
 * Flags:
 *   --quick        reduced sweep (CI / smoke runs)
 *   --json PATH    write a smart-bench-report/v3 JSON report to PATH;
 *                  every captured run carries its time series (window
 *                  --ts-window, else kCaptureWindowNs)
 *   --out-dir DIR  directory for the default JSON report and the
 *                  trace files (default ".")
 *   --seed N       perturb every bench's workload RNG streams (plain
 *                  decimal; recorded in the JSON report; same seed =>
 *                  identical run)
 *   --trace-spans[=N]  record per-op spans, sampling every Nth op
 *                  (default every op; implies a JSON report; also writes
 *                  <out-dir>/<bench>_<label>_trace.json per captured run)
 *   --flame PATH   write collapsed-stack flamegraph lines to PATH
 *                  (implies --trace-spans)
 *   --cache-mb N   enable the compute-side cache tier (CLOCK eviction)
 *                  with an N MiB frame pool per runtime
 *   --no-cache     force the cache tier off (overrides bench defaults)
 *   --ts-window W  sample every registered metric into windowed time
 *                  series every W of virtual time (suffix us/ms; plain
 *                  number = ns; implies a JSON report; also writes
 *                  <out-dir>/<bench>_<label>_trace.json per captured run)
 *
 * The JSON report is the one record of a run; CSV views of its tables
 * and time series come from scripts/report_csv.py.
 */

#ifndef SMART_HARNESS_BENCH_CLI_HPP
#define SMART_HARNESS_BENCH_CLI_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "harness/reporter.hpp"
#include "harness/testbed.hpp"
#include "sim/table.hpp"
#include "smart/smart_config.hpp"

namespace smart::harness {

/** Common CLI handling + report assembly for bench mains. */
class BenchCli
{
  public:
    /**
     * Parse @p argv. Prints usage and exits on --help or unknown flags.
     * @param bench_name report/default-file base name ("fig03_qp_alloc")
     */
    BenchCli(int argc, char **argv, std::string bench_name);

    bool quick() const { return quick_; }
    std::uint64_t seed() const { return seed_; }
    const std::string &outDir() const { return outDir_; }

    /** @return true when --perf asked for a wall-clock summary line. */
    bool perfRequested() const { return perf_; }

    /**
     * Wall-clock perf of this process so far (ctor to now), paired with
     * the process-wide DES kernel tallies. finish() embeds this in the
     * report; --perf also prints it.
     */
    PerfBlock measurePerf() const;

    /** @return true when runs should fill RunCaptures (JSON requested). */
    bool capturing() const { return !jsonPath_.empty(); }

    /** Span sampling stride from --trace-spans (0 = spans off). */
    std::uint32_t spanSampleEvery() const { return spanSampleEvery_; }

    /** Flamegraph output path from --flame (empty = not requested). */
    const std::string &flamePath() const { return flamePath_; }

    /** Apply the span flags to a testbed config (call before building). */
    void
    configureSpans(TestbedConfig &cfg) const
    {
        cfg.spanSampleEvery = spanSampleEvery_;
    }

    /** Time-series window from --ts-window, ns (0 = plane off). */
    sim::Time tsWindowNs() const { return tsWindowNs_; }

    /** Apply --ts-window to a testbed config (call before building). */
    void
    configureTimeline(TestbedConfig &cfg) const
    {
        cfg.tsWindowNs = tsWindowNs_;
    }

    /**
     * Apply the cache flags onto @p cfg. Bench defaults survive unless a
     * flag was given: --no-cache wins over --cache-mb, which sets the
     * pool size.
     */
    void
    configureCache(SmartConfig &cfg) const
    {
        if (noCache_)
            cfg.cache.sizeBytes = 0;
        else if (cacheMb_ >= 0)
            cfg.withCacheMb(static_cast<std::uint32_t>(cacheMb_));
    }

    /**
     * Reserve a capture slot for the next measured run, labelled
     * @p label. @return nullptr when no report was requested (or the
     * per-report capture cap was reached) — benches pass the result
     * straight to the run functions, which treat nullptr as "don't
     * capture".
     */
    RunCapture *nextCapture(std::string label);

    /** Print @p t and add it to the report. */
    void addTable(const std::string &name, const sim::Table &t);

    /** Print @p text and record it in the report's notes. */
    void note(const std::string &text);

    /** Install the per-tenant SLO block on the report (open-loop). */
    void setSlo(sim::Json slo) { reporter_->setSlo(std::move(slo)); }

    /**
     * Flush the JSON report (when requested).
     * @return process exit code (0, or 1 on report I/O failure)
     */
    int finish();

  private:
    std::string benchName_;
    std::chrono::steady_clock::time_point startWall_ =
        std::chrono::steady_clock::now();
    bool quick_ = false;
    bool perf_ = false;
    std::uint64_t seed_ = 0;
    std::uint32_t spanSampleEvery_ = 0;
    sim::Time tsWindowNs_ = 0;
    bool noCache_ = false;
    int cacheMb_ = -1;
    std::string outDir_ = ".";
    std::string jsonPath_;
    std::string flamePath_;
    // Stable-address storage: run functions hold RunCapture* across runs.
    std::deque<RunCapture> captures_;
    std::size_t maxCaptures_ = 32;
    bool capturesDropped_ = false;
    std::unique_ptr<Reporter> reporter_;
};

} // namespace smart::harness

#endif // SMART_HARNESS_BENCH_CLI_HPP
