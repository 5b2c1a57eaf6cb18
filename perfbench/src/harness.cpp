#include "harness.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Names and units must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},       {"op_p50_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"accuracy", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"fpm.mine_ms", "ms"},
    {"fpm.candidates", "count"},
    {"stats.filter_ms", "ms"},
    {"stats.rejected", "count"},
    {"core.mmrfs_ms", "ms"},
    {"core.mmrfs.redundancy_evals", "count"},
    {"core.transform_ms", "ms"},
    {"ml.learn_ms", "ms"},
    {"train.unattributed_ms", "ms"},
    {"serve.index.encode_us", "us"},
    {"serve.engine.predict_us", "us"},
    {"serve.engine.predict_batch_us", "us"},
    {"serve.engine.batch_size", "count"},
    {"serve.protocol.parse_us", "us"},
    {"serve.protocol.render_us", "us"},
    {"serve.dispatch_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.registry.reload_ms", "ms"},
    {"serve.gen_lag_ms", "ms"},
    {"serve.unattributed_us", "us"},
    {"stream.ingest_us", "us"},
    {"stream.window.mine_ms", "ms"},
    {"stream.train_ms", "ms"},
    {"stream.train_t1_ms", "ms"},
    {"parallel.speedup", "ratio"},
    {"parallel.tasks_spawned", "count"},
    {"core.model_io.save_ms", "ms"},
    {"stream.retrain.unattributed_ms", "ms"},
    {"trace.op_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

// Keeps the reference kernel's result alive.
volatile std::uint64_t g_reference_sink = 0;

std::string CpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string model = line.substr(colon + 1);
                model.erase(0, model.find_first_not_of(' '));
                return model;
            }
        }
    }
    return "unknown";
}

std::size_t AllowedCpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
    return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string FormatNumber(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
            return false;
        }
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') return false;
        } else if (flag == "--seconds") {
            args->seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args->seconds > 0.0)) return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return false;
            args->trace = value == "1";
        } else if (flag == "--workdir") {
            args->workdir = value;
        } else if (flag == "--source-id") {
            args->source_id = value;
        } else {
            std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
            return false;
        }
    }
    if (args->workload.empty()) {
        std::fprintf(stderr,
                     "usage: perfbench --workload train|serve|stream "
                     "--seed N --seconds S --trace 0|1\n");
        return false;
    }
    return true;
}

double Median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return SortedQuantile(v, 0.5);
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Tail TailOf(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    Tail tail;
    tail.samples = v.size();
    if (v.empty()) return tail;
    // The sample with exactly ten above it (the largest one when there are
    // no more than ten samples in all).
    tail.beyond = v.size() > 10 ? 10 : 0;
    tail.value = v[v.size() - 1 - tail.beyond];
    tail.percentile = 100.0 * static_cast<double>(v.size() - tail.beyond) /
                      static_cast<double>(v.size());
    return tail;
}

double PeakRssMb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t CounterValue(const char* name) {
    return dfp::obs::Registry::Get().GetCounter(name).value();
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
    metrics_.push_back(Entry{name, value, unit});
}

void Report::Detail(const std::string& key, const std::string& json_value) {
    details_.emplace_back(key, json_value);
}

void Report::DetailNumber(const std::string& key, double value) {
    Detail(key, FormatNumber(value));
}

void Report::Print(const Args& args) const {
    // Every metric the run promises must be present exactly once, under the
    // unit BENCHMARK.json declares; per-layer metrics of layers this
    // workload never calls read 0 and are listed under "not_measured".
    std::vector<Entry> out;
    std::vector<std::string> not_measured;
    auto emit = [&](const MetricSpec& spec, bool zero_if_missing) {
        const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                     [&](const Entry& e) { return e.name == spec.name; });
        if (it == metrics_.end()) {
            if (!zero_if_missing) CheckFailed(std::string("metric missing: ") + spec.name);
            not_measured.push_back(spec.name);
            out.push_back(Entry{spec.name, 0.0, spec.unit});
            return;
        }
        if (it->unit != spec.unit) {
            CheckFailed(std::string("unit mismatch for ") + spec.name);
        }
        out.push_back(*it);
    };
    std::size_t known = 0;
    if (args.trace) {
        for (const MetricSpec& spec : kPerLayer) emit(spec, true);
        known = std::size(kPerLayer);
    } else {
        for (const MetricSpec& spec : kEndToEnd) emit(spec, false);
        known = std::size(kEndToEnd);
    }
    if (metrics_.size() + not_measured.size() != known) {
        CheckFailed("workload reported a metric outside its metric list");
    }

    std::fprintf(stderr, "\n== perfbench %s (seed %llu, %.0fs, trace %d) ==\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 args.seconds, args.trace ? 1 : 0);
    for (const Entry& e : out) {
        std::fprintf(stderr, "  %-32s %14.6g %s\n", e.name.c_str(), e.value,
                     e.unit.c_str());
    }
    std::fprintf(stderr, "  attempted %llu, failed %llu\n",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));

    std::ostringstream detail;
    detail << "{\"detail\":{\"workload\":" << JsonString(args.workload)
           << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
           << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
           << ",\"cpus_allowed\":" << AllowedCpus()
           << ",\"cpu_model\":" << JsonString(CpuModel())
           << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
           << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
           << ",\"source\":" << JsonString(args.source_id) << "}";
    for (const auto& [key, value] : details_) {
        detail << "," << JsonString(key) << ":" << value;
    }
    if (args.trace) {
        detail << ",\"not_measured\":[";
        for (std::size_t i = 0; i < not_measured.size(); ++i) {
            detail << (i ? "," : "") << JsonString(not_measured[i]);
        }
        detail << "]";
    }
    detail << "}}";

    std::ostringstream result;
    result << "{\"correct\": true, \"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        result << (i ? ", " : "") << JsonString(out[i].name)
               << ": {\"value\": " << FormatNumber(out[i].value)
               << ", \"unit\": " << JsonString(out[i].unit) << "}";
    }
    result << "}}";
    std::printf("%s\n%s\n", detail.str().c_str(), result.str().c_str());
    std::fflush(stdout);
}

void CheckFailed(const std::string& what) {
    std::fprintf(stderr, "perfbench: OUTPUT CHECK FAILED: %s\n", what.c_str());
    std::fflush(stderr);
    std::_Exit(3);
}

void Require(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "perfbench: ERROR: %s\n", what.c_str());
    std::fflush(stderr);
    std::_Exit(2);
}

double SetupSeconds(Report* report, const std::function<void()>& setup) {
    std::vector<double> seconds;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        setup();
        seconds.push_back(SecondsBetween(start, Clock::now()));
    }
    std::string samples = "[";
    for (std::size_t i = 0; i < seconds.size(); ++i) {
        if (i > 0) samples += ',';
        samples += FormatNumber(seconds[i]);
    }
    report->Detail("setup_samples_s", samples + "]");
    return Median(seconds);
}

std::string JsonString(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

double ReferenceKernelMs() {
    constexpr std::size_t kRows = 6144;
    constexpr std::size_t kWords = 64;
    constexpr int kPairs = 30000;
    static const std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(kRows * kWords);
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint64_t& w : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w = x;
        }
        return t;
    }();
    // Bring the table back into the caches untimed, so the sample does not
    // depend on how much of it the workload's last op evicted.
    std::uint64_t acc = 0;
    for (std::uint64_t w : table) acc += w;
    const auto start = Clock::now();
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (int k = 0; k < kPairs; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t* a = &table[(x % kRows) * kWords];
        const std::uint64_t* b = &table[((x >> 32) % kRows) * kWords];
        for (std::size_t w = 0; w < kWords; ++w) {
            acc += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
        }
    }
    g_reference_sink = acc;
    return MsSince(start);
}

double OpWindow::HostFactor() const {
    return ref_ms.empty() ? 1.0 : kReferenceKernelMs / Median(ref_ms);
}

double AddOpLatency(Report* report, const std::vector<OpWindow>& windows) {
    std::vector<double> sorted;
    std::vector<double> corrected;
    std::vector<double> refs;
    for (const OpWindow& w : windows) {
        if (w.op_ms.empty()) continue;
        sorted.insert(sorted.end(), w.op_ms.begin(), w.op_ms.end());
        refs.insert(refs.end(), w.ref_ms.begin(), w.ref_ms.end());
        corrected.push_back(Median(w.op_ms) * w.HostFactor());
    }
    std::sort(sorted.begin(), sorted.end());
    const double op_p50 = Median(corrected);
    const Tail tail = TailOf(sorted);
    std::ostringstream out;
    out << "{\"samples\":" << tail.samples << ",\"windows\":" << corrected.size()
        << ",\"p50_ms\":" << FormatNumber(Median(sorted))
        << ",\"tail_percentile\":" << FormatNumber(tail.percentile)
        << ",\"tail_ms\":" << FormatNumber(tail.value) << ",\"tail_beyond\":" << tail.beyond;
    for (double p : {10.0, 25.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        out << ",\"p" << p << "_ms\":" << FormatNumber(SortedQuantile(sorted, p / 100.0));
    }
    if (!refs.empty()) {
        out << ",\"reference_kernel_p50_ms\":" << FormatNumber(Median(refs))
            << ",\"reference_kernel_samples\":" << refs.size();
    }
    out << "}";
    report->Metric("op_p50_ms", op_p50, "ms");
    report->Detail("op_latency", out.str());
    return op_p50;
}

}  // namespace perfbench
