// dronet_benchmark — the repository benchmark (README.md in this directory).
//
//   dronet_benchmark [--workload NAME] [--seed N] [--seconds S]
//                    [--trace 0|1] [--smoke] [--commit SHA]
//
// Prints the host fingerprint, each metric by name with its unit, and as the
// last line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics, or with --trace 1 the per-layer ones (and a Chrome
// trace per workload under build-bench/traces). Exits non-zero when a
// correctness check fails. --smoke runs every workload untraced and traced
// for 1 s per phase and checks the metric names against BENCHMARK.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"

#ifndef DRONET_BENCH_BUILD_TYPE
#define DRONET_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using bench::Options;
using bench::Outcome;

const std::vector<std::string> kWorkloads = {"camera-fp32", "camera-int8", "streams-local",
                                             "streams-fleet"};

/// Where --trace 1 writes <workload>.trace.json, relative to the repository root.
constexpr const char* kTraceDir = "build-bench/traces";

constexpr const char* kUsage =
    "usage: dronet_benchmark [--workload NAME] [--seed N] [--seconds S]\n"
    "                        [--trace 0|1] [--smoke] [--commit SHA]\n"
    "workloads: camera-fp32 camera-int8 streams-local streams-fleet (default: all)\n";

Options parse_args(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = next();
        } else if (a == "--seed") {
            opt.seed = std::stoull(next());
        } else if (a == "--seconds") {
            opt.seconds = std::stod(next());
        } else if (a == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--smoke") {
            opt.smoke = true;
        } else if (a == "--commit") {
            opt.commit = next();
        } else if (a == "--help") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else {
            throw std::invalid_argument("unknown flag " + a);
        }
    }
    if (!opt.workload.empty() &&
        std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) == kWorkloads.end()) {
        throw std::invalid_argument("unknown workload " + opt.workload);
    }
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    return opt;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "GCC " __VERSION__;
#else
    return "unknown";
#endif
}

/// Host fingerprint as JSON; printed before any result and stored in traces.
std::string fingerprint(const Options& opt) {
    std::ostringstream os;
    os << "{\"cpu\":\"" << json_escape(cpu_model()) << "\",\"nproc\":"
       << std::thread::hardware_concurrency() << ",\"simd\":\""
       << dronet::simd::to_string(dronet::simd::active_level()) << "\",\"compiler\":\""
       << json_escape(compiler()) << "\",\"build_type\":\"" << DRONET_BENCH_BUILD_TYPE
       << "\",\"commit\":\""
       << json_escape(opt.commit) << "\",\"seed\":" << opt.seed
       << ",\"seconds\":" << opt.seconds << "}";
    return os.str();
}

Outcome run_workload(const std::string& name, const Options& opt, bench::Trace& trace) {
    if (name == "camera-fp32") return bench::run_camera(opt, false, trace);
    if (name == "camera-int8") return bench::run_camera(opt, true, trace);
    if (name == "streams-local") return bench::run_streams(opt, false, trace);
    return bench::run_streams(opt, true, trace);
}

/// Runs one workload, writes its trace, and prints notes, metrics and JSON.
Outcome run_and_print(const std::string& name, const Options& opt) {
    bench::Trace trace;
    const Outcome out = run_workload(name, opt, trace);
    if (opt.trace) {
        const std::filesystem::path path =
            std::filesystem::path(kTraceDir) / (name + ".trace.json");
        trace.write_chrome(path, "{\"workload\":\"" + name + "\",\"host\":" +
                                     fingerprint(opt) + "}");
        std::printf("# %s: trace written to %s\n", name.c_str(), path.c_str());
    }
    for (const std::string& note : out.notes) std::printf("# %s: %s\n", name.c_str(), note.c_str());
    for (const bench::Metric& m : out.metrics) {
        std::printf("%-14s %-36s %.6g %s\n", name.c_str(), m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("%s\n", out.to_json().c_str());
    std::fflush(stdout);
    return out;
}

/// Names listed under `key` in BENCHMARK.json.
std::set<std::string> declared_names(const std::string& json, const std::string& key) {
    std::set<std::string> names;
    const auto at = json.find("\"" + key + "\"");
    if (at == std::string::npos) return names;
    const auto open = json.find('[', at);
    const auto close = json.find(']', open);
    const std::string section = json.substr(open, close - open);
    const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(section.begin(), section.end(), name_re), end; it != end; ++it) {
        names.insert((*it)[1].str());
    }
    return names;
}

/// Every workload, untraced then traced, 1 s per phase: every check passes
/// and the reported names are exactly the ones BENCHMARK.json declares.
int smoke(const Options& base) {
    std::ifstream in("BENCHMARK.json");
    if (!in) throw std::runtime_error("BENCHMARK.json not found in the working directory");
    const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::set<std::string> declared[2] = {declared_names(json, "end_to_end"),
                                               declared_names(json, "per_layer")};
    int failures = 0;
    for (const std::string& name : kWorkloads) {
        if (!base.workload.empty() && name != base.workload) continue;
        for (const bool traced : {false, true}) {
            Options opt = base;
            opt.trace = traced;
            const Outcome out = run_and_print(name, opt);
            std::set<std::string> reported;
            for (const bench::Metric& m : out.metrics) reported.insert(m.name);
            const char* kind = traced ? "per-layer" : "end-to-end";
            if (reported != declared[traced ? 1 : 0]) {
                std::printf("# smoke FAIL %s: %s names differ from BENCHMARK.json\n",
                            name.c_str(), kind);
                ++failures;
            }
            if (!out.correct || out.failed != 0 || out.attempted == 0) {
                std::printf("# smoke FAIL %s: %s run not correct\n", name.c_str(), kind);
                ++failures;
            }
        }
    }
    std::printf("# smoke %s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
}

int run(const Options& opt) {
    for (const char* var : {"DRONET_SIMD", "DRONET_PROFILE", "DRONET_POOL_WORKERS"}) {
        // Read once before any thread starts. NOLINTNEXTLINE(concurrency-mt-unsafe)
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr, "dronet_benchmark: %s is set; refusing to run timed phases\n",
                         var);
            return 2;
        }
    }
    dronet::set_gemm_threads(1);
    std::printf("# host %s\n", fingerprint(opt).c_str());
    if (opt.smoke) return smoke(opt);
    bool ok = true;
    for (const std::string& name : kWorkloads) {
        if (!opt.workload.empty() && name != opt.workload) continue;
        const Outcome out = run_and_print(name, opt);
        ok = ok && out.correct && out.failed == 0;
    }
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    try {
        opt = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dronet_benchmark: %s\n%s", e.what(), kUsage);
        return 2;
    }
    try {
        return run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dronet_benchmark: error: %s\n", e.what());
        return 1;
    }
}
