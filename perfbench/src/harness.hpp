// Shared plumbing of the end-to-end benchmark: command line, clocks, sample
// statistics, the host fingerprint and the result printer.
//
// Output contract (see perfbench/README.md): a human-readable report goes to
// stderr; stdout carries one `detail` JSON line (host fingerprint, tail
// percentile and its sample count, open-loop accounting, which per-layer
// metrics the workload measures) followed by the result line, which is
// always the last line and has exactly the keys correct / attempted /
// failed / metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
    return SecondsBetween(a, Clock::now()) * 1e3;
}
inline double UsSince(Clock::time_point a) {
    return SecondsBetween(a, Clock::now()) * 1e6;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory for model bundles (inside the checkout).
    std::string workdir = ".";
    /// Source identity handed in by run.py (git SHA when the checkout is a
    /// repository, otherwise a digest of the source files).
    std::string source_id = "unknown";
};

/// Parses --workload/--seed/--seconds/--trace/--workdir/--source-id.
/// Returns false (after printing usage to stderr) on a malformed line.
bool ParseArgs(int argc, char** argv, Args* args);

/// Median of `v` (copied and sorted; 0 for an empty sample).
double Median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] of an ascending sample.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Tail latency: the highest percentile with at least ten samples beyond
/// it, i.e. the eleventh-largest sample, with that percentile.
struct Tail {
    double percentile = 50.0;
    double value = 0.0;
    std::size_t beyond = 0;  ///< samples above the percentile
    std::size_t samples = 0;
};
Tail TailOf(std::vector<double> v);

/// Process peak resident set size (VmHWM) in MiB.
double PeakRssMb();

/// Counter value from obs::Registry (0 when never registered).
std::uint64_t CounterValue(const char* name);

/// Results of one run. Metrics are printed in insertion order.
class Report {
  public:
    void Metric(const std::string& name, double value, const std::string& unit);
    /// Adds a raw JSON value (already rendered) to the detail line.
    void Detail(const std::string& key, const std::string& json_value);
    void DetailNumber(const std::string& key, double value);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /// Prints the report (stderr table, stdout detail + result lines).
    void Print(const Args& args) const;

  private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> metrics_;
    std::vector<std::pair<std::string, std::string>> details_;
};

/// Reports a failed output check and ends the process with exit code 3
/// without printing a result line.
[[noreturn]] void CheckFailed(const std::string& what);

/// Ends the process with exit code 2 when `ok` is false (a call into the
/// library returned an error; no result is printed).
void Require(bool ok, const std::string& what);

/// Runs `setup` kSetups times, adds every duration to the detail line and
/// returns their median in wall seconds. Each call must fully rebuild the
/// workload's state (the last one is kept).
constexpr int kSetups = 5;
double SetupSeconds(Report* report, const std::function<void()>& setup);

/// JSON string literal for `s` (quotes and backslashes escaped).
std::string JsonString(const std::string& s);

/// The reference kernel: a fixed, memory-bound job of the benchmark's own
/// (AND-popcount of random pairs of 512-bit rows in a 3 MiB table, the
/// access pattern of MMRFS's redundancy scans). It never changes with the
/// library, so its speed is the host's. Returns its wall milliseconds.
double ReferenceKernelMs();

/// What ReferenceKernelMs takes on an uncontended core of the host the
/// benchmark was tuned on (4-vCPU Intel Xeon VM, GCC 12.2, Release): the
/// speed that host-corrected timings are scaled to.
constexpr double kReferenceKernelMs = 8.0;

/// Ops of one window of a run, with the reference-kernel samples taken
/// between them (none for a workload that is not corrected).
struct OpWindow {
    std::vector<double> op_ms;
    std::vector<double> ref_ms;
    /// Factor that scales the window's timings to the reference speed:
    /// kReferenceKernelMs over the median reference sample (1 without
    /// samples).
    double HostFactor() const;
};

/// The gated op latency, op_p50_ms: the median over windows of each
/// window's median op latency times its HostFactor. On a shared virtual
/// host the process spends spells of seconds to minutes on a contended
/// core where CPU-bound ops run 30-70% slower; the reference kernel, run
/// between the ops of the same window, slows down with them, so the
/// corrected figure follows the program and not the neighbours. Adds the
/// metric and the uncorrected op-latency summary over every op (median,
/// tail percentile with its value and sample counts, p10-p99.9, the
/// reference kernel's median) to the detail line, and returns the metric.
/// The tail is not gated: on a shared host it moves with the neighbours'
/// load (p99 of serve ranged 2.6-39 ms over runs of one build).
double AddOpLatency(Report* report, const std::vector<OpWindow>& windows);

int RunTrain(const Args& args, Report* report);
int RunServe(const Args& args, Report* report);
int RunStream(const Args& args, Report* report);

}  // namespace perfbench
