/**
 * @file
 * BenchCli implementation.
 */

#include "harness/bench_cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "sim/event_queue.hpp"

namespace smart::harness {

namespace {

[[noreturn]] void
usage(const std::string &bench, int exit_code)
{
    std::ostream &os = exit_code == 0 ? std::cout : std::cerr;
    os << "usage: " << bench
       << " [--quick] [--json PATH] [--out-dir DIR] [--seed N] "
          "[--trace-spans[=N]] [--flame PATH] [--perf]\n"
          "  [--cache-mb N] [--no-cache] [--ts-window W]\n"
          "  --quick        reduced sweep for CI / smoke runs\n"
          "  --json PATH    write a smart-bench-report/v3 JSON report\n"
          "  --out-dir DIR  directory for the default JSON report and "
          "trace files (default .)\n"
          "  --seed N       perturb workload RNG seeds (decimal; recorded "
          "in the JSON report)\n"
          "  --trace-spans[=N]  record per-op latency spans, sampling "
          "every Nth op (default 1; implies a JSON report and writes a "
          "Perfetto trace per captured run)\n"
          "  --flame PATH   write collapsed-stack flamegraph lines to "
          "PATH (implies --trace-spans)\n"
          "  --perf         print a wall-clock perf summary (always "
          "embedded in the JSON report)\n"
          "  --cache-mb N   enable the compute-side cache tier (CLOCK "
          "eviction) with an N MiB frame pool\n"
          "  --no-cache     force the cache tier off\n"
          "  --ts-window W  windowed time-series sampling every W of "
          "virtual time (suffix us/ms, plain = ns; implies a JSON report "
          "and writes a Perfetto counter-track trace per captured run)\n"
          "CSVs are derived from the JSON report: "
          "scripts/report_csv.py REPORT.json OUT_DIR\n";
    std::exit(exit_code);
}

/**
 * Parse the plain decimal number (digits only, <= @p max) that starts
 * @p text; anything else exits 2 with usage. Without @p suffix_out the
 * whole text must be that number; with it, the rest is returned there.
 */
std::uint64_t
parseDecimal(const std::string &bench, const char *flag,
             const std::string &text, std::uint64_t max,
             std::string *suffix_out = nullptr)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = ec == std::errc() && ptr != text.data() && v <= max &&
              (ptr == end || suffix_out != nullptr);
    if (!ok) {
        std::cerr << bench << ": " << flag << " '" << text
                  << "' is not a decimal number <= " << max << "\n";
        usage(bench, 2);
    }
    if (suffix_out != nullptr)
        *suffix_out = std::string(ptr, end);
    return v;
}

/** Parse a virtual-time value: plain number = ns, us/ms suffixes. */
sim::Time
parseTimeNs(const std::string &bench, const char *flag,
            const std::string &text)
{
    std::string suffix;
    std::uint64_t v =
        parseDecimal(bench, flag, text, UINT64_MAX / 1000'000, &suffix);
    sim::Time ns = static_cast<sim::Time>(v);
    if (suffix == "us") {
        ns = sim::usec(v);
    } else if (suffix == "ms") {
        ns = sim::msec(v);
    } else if (suffix == "ns" || suffix.empty()) {
        // plain nanoseconds
    } else {
        std::cerr << bench << ": " << flag << " '" << text
                  << "' has an unknown suffix (expected ns/us/ms)\n";
        usage(bench, 2);
    }
    if (ns == 0) {
        std::cerr << bench << ": " << flag << " needs a value > 0\n";
        usage(bench, 2);
    }
    return ns;
}

/** Turn a run label into a filename fragment ("SMART-HT/t0" ->
 *  "SMART-HT_t0"). */
std::string
fileSafe(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.';
        if (!ok)
            c = '_';
    }
    return out;
}

} // namespace

BenchCli::BenchCli(int argc, char **argv, std::string bench_name)
    : benchName_(std::move(bench_name))
{
    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << benchName_ << ": " << flag
                      << " needs a value\n";
            usage(benchName_, 2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick_ = true;
        } else if (arg == "--json") {
            jsonPath_ = value(i, "--json");
        } else if (arg == "--out-dir") {
            outDir_ = value(i, "--out-dir");
        } else if (arg == "--seed") {
            seed_ = parseDecimal(benchName_, "--seed", value(i, "--seed"),
                                 UINT64_MAX);
        } else if (arg == "--trace-spans") {
            spanSampleEvery_ = 1;
        } else if (arg.rfind("--trace-spans=", 0) == 0) {
            spanSampleEvery_ = static_cast<std::uint32_t>(parseDecimal(
                benchName_, "--trace-spans=N",
                arg.substr(sizeof("--trace-spans=") - 1), UINT32_MAX));
            if (spanSampleEvery_ == 0) {
                std::cerr << benchName_
                          << ": --trace-spans=N needs N >= 1\n";
                usage(benchName_, 2);
            }
        } else if (arg == "--flame") {
            flamePath_ = value(i, "--flame");
        } else if (arg == "--cache-mb") {
            cacheMb_ = static_cast<int>(parseDecimal(
                benchName_, "--cache-mb", value(i, "--cache-mb"), INT32_MAX));
        } else if (arg == "--no-cache") {
            noCache_ = true;
        } else if (arg == "--ts-window") {
            tsWindowNs_ = parseTimeNs(benchName_, "--ts-window",
                                      value(i, "--ts-window"));
        } else if (arg == "--perf") {
            perf_ = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(benchName_, 0);
        } else {
            std::cerr << benchName_ << ": unknown flag '" << arg << "'\n";
            usage(benchName_, 2);
        }
    }
    if (outDir_.empty())
        outDir_ = ".";
    if (!flamePath_.empty() && spanSampleEvery_ == 0)
        spanSampleEvery_ = 1;
    if ((spanSampleEvery_ > 0 || tsWindowNs_ > 0) &&
        jsonPath_.empty())
        jsonPath_ = outDir_ + "/" + benchName_ + "_report.json";

    std::error_code ec;
    std::filesystem::create_directories(outDir_, ec);
    if (ec) {
        std::cerr << benchName_ << ": cannot create out-dir '" << outDir_
                  << "': " << ec.message() << "\n";
        std::exit(2);
    }

    reporter_ = std::make_unique<Reporter>(benchName_, quick_, seed_);
}

RunCapture *
BenchCli::nextCapture(std::string label)
{
    if (!capturing())
        return nullptr;
    if (captures_.size() >= maxCaptures_) {
        if (!capturesDropped_) {
            capturesDropped_ = true;
            note("note: capture cap (" + std::to_string(maxCaptures_) +
                 " runs) reached; later runs are not captured");
        }
        return nullptr;
    }
    captures_.emplace_back();
    captures_.back().label = std::move(label);
    return &captures_.back();
}

void
BenchCli::addTable(const std::string &name, const sim::Table &t)
{
    t.print();
    reporter_->addTable(name, t);
}

void
BenchCli::note(const std::string &text)
{
    std::cout << text << "\n";
    reporter_->addNote(text);
}

PerfBlock
BenchCli::measurePerf() const
{
    PerfBlock p;
    std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - startWall_;
    p.wallMs = wall.count();
    sim::KernelPerf kp = sim::collectKernelPerf();
    p.eventsProcessed = kp.eventsProcessed;
    p.peakQueueDepth = kp.peakQueueDepth;
    p.ringInserts = kp.ringInserts;
    p.heapInserts = kp.heapInserts;
    p.hostCores = std::thread::hardware_concurrency();
    double wall_s = std::max(p.wallMs, 1e-3) / 1000.0;
    p.eventsPerSec = static_cast<double>(p.eventsProcessed) / wall_s;
    return p;
}

int
BenchCli::finish()
{
    PerfBlock perf = measurePerf();
    if (perf_) {
        std::printf("perf: %.1f ms wall, %llu events, %.3g events/s, "
                    "peak queue depth %llu, inserts %llu ring / %llu heap\n",
                    perf.wallMs,
                    static_cast<unsigned long long>(perf.eventsProcessed),
                    perf.eventsPerSec,
                    static_cast<unsigned long long>(perf.peakQueueDepth),
                    static_cast<unsigned long long>(perf.ringInserts),
                    static_cast<unsigned long long>(perf.heapInserts));
    }
    if (!capturing())
        return 0;
    reporter_->setPerf(perf);
    int rc = 0;
    std::string folded; // all captures, label-prefixed, one flame file
    // Every captured run samples a time series into the report; the
    // per-run trace files are written only when asked for.
    const bool traceFiles = tsWindowNs_ > 0 || spanSampleEvery_ > 0;
    for (const RunCapture &cap : captures_) {
        reporter_->addRun(cap);
        if (traceFiles && !cap.spanTrace.empty()) {
            std::string path = outDir_ + "/" + benchName_ + "_" +
                               fileSafe(cap.label) + "_trace.json";
            std::ofstream os(path);
            os << cap.spanTrace;
            if (!os) {
                std::cerr << benchName_ << ": failed to write '" << path
                          << "'\n";
                rc = 1;
            } else {
                std::cout << "span trace: " << path << "\n";
            }
        }
        if (!cap.spanFolded.empty() && !flamePath_.empty()) {
            // Re-prefix each line with the run label so one flame file
            // can hold every captured run of the sweep.
            std::size_t pos = 0;
            while (pos < cap.spanFolded.size()) {
                std::size_t eol = cap.spanFolded.find('\n', pos);
                if (eol == std::string::npos)
                    eol = cap.spanFolded.size();
                folded += fileSafe(cap.label) + ";" +
                          cap.spanFolded.substr(pos, eol - pos) + "\n";
                pos = eol + 1;
            }
        }
    }
    if (!flamePath_.empty()) {
        std::ofstream os(flamePath_);
        os << folded;
        if (!os) {
            std::cerr << benchName_ << ": failed to write '" << flamePath_
                      << "'\n";
            rc = 1;
        } else {
            std::cout << "flamegraph stacks: " << flamePath_ << "\n";
        }
    }
    if (!reporter_->writeTo(jsonPath_)) {
        std::cerr << benchName_ << ": failed to write report to '"
                  << jsonPath_ << "'\n";
        return 1;
    }
    std::cout << "report: " << jsonPath_ << "\n";
    return rc;
}

} // namespace smart::harness
