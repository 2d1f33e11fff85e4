// serve_bench — load generator for the multi-worker detection service.
//
// Simulates M concurrent video streams replaying frames from the canonical
// synthetic dataset into one DetectionService, then prints the ServeStats
// snapshot as one-line JSON. This is the operational counterpart of
// bench/bench_serve_throughput (which sweeps worker counts).
//
// Usage:
//   serve_bench [--workers N] [--streams M] [--frames-per-stream K]
//               [--size S] [--capacity Q] [--policy block|reject|drop-oldest]
//               [--model DroNet] [--gemm-threads N] [--interval-ms T]
//               [--batch B] [--batch-timeout-us U] [--fp16] [--int8] [--profile]
//               [--expect-complete] [--deadline-ms D] [--retries R]
//               [--degraded-size S] [--degrade-high N] [--degrade-low N]
//               [--inject PLAN]
//               [--cluster W] [--worker-bin PATH] [--filter-scale F]
//               [--inflight-limit N] [--kill-after-ms T]
//               [--reload PATH] [--reload-after-ms T]
//               [--reload-expect-reject] [--reload-kill-slot N] [--help]
//
// --interval-ms > 0 paces each stream like a camera (T ms between submits),
// which exercises the backpressure policies; 0 submits as fast as possible.
// --batch > 1 enables worker micro-batching (ServiceConfig::max_batch), with
// --batch-timeout-us as the linger window; the JSON output then reports a
// per-batch-size histogram. --profile prints one per-layer timing JSON line
// per worker replica after the run (profile/profiler.hpp,
// docs/performance.md). --expect-complete exits non-zero unless every
// submitted frame completed (no drops/rejects) — used by the TSan CI step.
//
// Self-healing knobs (docs/robustness.md): --deadline-ms, --retries, and the
// --degrade-* trio map onto the matching ServiceConfig fields. --inject PLAN
// installs a deterministic fault plan ("site:action[:key=value]*", e.g.
// "network.forward:kill:nth=5:times=1") before the service starts — the CI
// chaos stage uses it to drive a worker kill through a live bench run. The
// run exits zero as long as every future resolved; pair with the stats JSON
// (worker_restarts, deadline_expired, ...) to assert recovery.
//
// --cluster W switches to the multi-process path: the same stream workload
// drives a cluster Router over W spawned serve_worker processes (--workers
// then means service threads per worker process) and the output is the fleet
// JSON. --expect-complete there asserts the fleet-wide PR-5 accounting
// invariant plus, without chaos, that every frame resolved kOk.
// --kill-after-ms T SIGKILLs worker 0 mid-run; the run still must resolve
// every future (ok, retried onto a healthy worker, kRejected by admission, or
// kShutdown) — a hung or abandoned future is a non-zero exit.
//
// Model lifecycle (docs/robustness.md): --reload PATH hot-swaps the service
// (or, with --cluster, rolls the fleet) onto checkpoint PATH after
// --reload-after-ms, while the streams keep submitting — the run fails unless
// the swap commits AND every future still resolves. --reload-expect-reject
// inverts the assertion: the canary must reject the candidate (the chaos
// stage feeds it a truncated checkpoint and asserts the old model kept
// serving). --reload-kill-slot N SIGKILLs worker slot N as the rollout
// starts (--cluster): the rollout must abort and roll the fleet back.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "profile/profiler.hpp"
#include "serve/detection_service.hpp"
#include "tensor/gemm.hpp"

#ifndef DRONET_SERVE_WORKER_PATH
#define DRONET_SERVE_WORKER_PATH ""
#endif

namespace {

// One line per parsed flag; tests/test_tools_cli.cpp asserts the parser and
// this text never drift apart.
constexpr const char* kUsage =
    "usage: serve_bench [options]\n"
    "  --workers N           service threads (per worker process with --cluster)\n"
    "  --streams M           concurrent synthetic camera streams\n"
    "  --frames-per-stream K frames each stream submits\n"
    "  --size S              square input resolution\n"
    "  --capacity Q          admission queue capacity\n"
    "  --policy P            backpressure: block|reject|drop-oldest\n"
    "  --model NAME          model zoo entry\n"
    "  --gemm-threads N      intra-op GEMM threads per forward\n"
    "  --interval-ms T       per-stream submit pacing (0 = flat out)\n"
    "  --batch B             worker micro-batch size\n"
    "  --batch-timeout-us U  micro-batch linger window\n"
    "  --fp16                fp16 weight/activation storage (inference only)\n"
    "  --int8                calibrated int8 conv path per replica\n"
    "  --profile             per-layer timing JSON per worker replica\n"
    "  --expect-complete     exit non-zero unless every frame completed\n"
    "  --deadline-ms D       per-frame deadline\n"
    "  --retries R           max retries after worker failure\n"
    "  --degraded-size S     input size under degraded mode\n"
    "  --degrade-high N      queue depth entering degraded mode\n"
    "  --degrade-low N       queue depth leaving degraded mode\n"
    "  --inject PLAN         deterministic fault plan (site:action[:k=v]*)\n"
    "  --cluster W           multi-process mode with W worker processes\n"
    "  --worker-bin PATH     serve_worker binary for --cluster\n"
    "  --filter-scale F      worker model width multiplier\n"
    "  --inflight-limit N    per-worker in-flight cap (--cluster)\n"
    "  --kill-after-ms T     SIGKILL worker 0 after T ms (--cluster chaos)\n"
    "  --reload PATH         hot-reload checkpoint PATH mid-run\n"
    "  --reload-after-ms T   delay before the reload fires\n"
    "  --reload-expect-reject  require the canary gate to reject the candidate\n"
    "  --reload-kill-slot N  SIGKILL slot N as the rollout starts (--cluster chaos)\n"
    "  --help                print this help\n";

struct Args {
    int workers = 4;
    int streams = 4;
    int frames_per_stream = 32;
    int size = 256;
    std::size_t capacity = 16;
    dronet::serve::BackpressurePolicy policy =
        dronet::serve::BackpressurePolicy::kBlock;
    std::string model = "DroNet";
    int gemm_threads = 1;
    double interval_ms = 0;
    int batch = 1;
    std::int64_t batch_timeout_us = 0;
    bool fp16 = false;
    bool int8 = false;
    bool profile = false;
    bool expect_complete = false;
    bool help = false;
    std::int64_t deadline_ms = 0;
    int retries = 0;
    int degraded_size = 0;
    std::size_t degrade_high = 0;
    std::size_t degrade_low = 0;
    std::string inject_plan;
    int cluster = 0;
    std::string worker_bin = DRONET_SERVE_WORKER_PATH;
    float filter_scale = 1.0f;
    std::size_t inflight_limit = 4;
    std::int64_t kill_after_ms = 0;
    std::string reload_path;
    std::int64_t reload_after_ms = 0;
    bool reload_expect_reject = false;
    int reload_kill_slot = -1;
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workers") args.workers = std::stoi(next());
        else if (a == "--streams") args.streams = std::stoi(next());
        else if (a == "--frames-per-stream") args.frames_per_stream = std::stoi(next());
        else if (a == "--size") args.size = std::stoi(next());
        else if (a == "--capacity") args.capacity = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--model") args.model = next();
        else if (a == "--gemm-threads") args.gemm_threads = std::stoi(next());
        else if (a == "--interval-ms") args.interval_ms = std::stod(next());
        else if (a == "--batch") args.batch = std::stoi(next());
        else if (a == "--batch-timeout-us") args.batch_timeout_us = std::stoll(next());
        else if (a == "--fp16") args.fp16 = true;
        else if (a == "--int8") args.int8 = true;
        else if (a == "--profile") args.profile = true;
        else if (a == "--expect-complete") args.expect_complete = true;
        else if (a == "--help") args.help = true;
        else if (a == "--deadline-ms") args.deadline_ms = std::stoll(next());
        else if (a == "--retries") args.retries = std::stoi(next());
        else if (a == "--degraded-size") args.degraded_size = std::stoi(next());
        else if (a == "--degrade-high") args.degrade_high = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--degrade-low") args.degrade_low = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--inject") args.inject_plan = next();
        else if (a == "--cluster") args.cluster = std::stoi(next());
        else if (a == "--worker-bin") args.worker_bin = next();
        else if (a == "--filter-scale") args.filter_scale = std::stof(next());
        else if (a == "--inflight-limit") args.inflight_limit = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--kill-after-ms") args.kill_after_ms = std::stoll(next());
        else if (a == "--reload") args.reload_path = next();
        else if (a == "--reload-after-ms") args.reload_after_ms = std::stoll(next());
        else if (a == "--reload-expect-reject") args.reload_expect_reject = true;
        else if (a == "--reload-kill-slot") args.reload_kill_slot = std::stoi(next());
        else if (a == "--policy") {
            const std::string p = next();
            using dronet::serve::BackpressurePolicy;
            if (p == "block") args.policy = BackpressurePolicy::kBlock;
            else if (p == "reject") args.policy = BackpressurePolicy::kReject;
            else if (p == "drop-oldest") args.policy = BackpressurePolicy::kDropOldest;
            else throw std::runtime_error("unknown policy " + p);
        } else {
            throw std::runtime_error("unknown flag " + a);
        }
    }
    return args;
}

}  // namespace

namespace {

/// The multi-process path: the same stream workload, dispatched through a
/// Router over --cluster spawned serve_worker processes.
int run_cluster(const Args& args) {
    using namespace dronet;
    if (args.worker_bin.empty()) {
        throw std::runtime_error("--cluster needs --worker-bin (no default)");
    }
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(args.size),
                         std::max(8, args.frames_per_stream), /*seed=*/0xbeef);

    cluster::RouterConfig rc;
    rc.worker_argv = {args.worker_bin,
                      "--workers", std::to_string(args.workers),
                      "--size", std::to_string(args.size),
                      "--model", args.model,
                      "--filter-scale", std::to_string(args.filter_scale),
                      "--capacity", std::to_string(args.capacity),
                      "--batch", std::to_string(args.batch),
                      "--batch-timeout-us", std::to_string(args.batch_timeout_us),
                      "--deadline-ms", std::to_string(args.deadline_ms),
                      "--retries", std::to_string(args.retries),
                      "--gemm-threads", std::to_string(args.gemm_threads)};
    if (args.fp16) rc.worker_argv.push_back("--fp16");
    if (args.int8) rc.worker_argv.push_back("--int8");
    rc.workers = args.cluster;
    rc.worker_inflight_limit = args.inflight_limit;
    cluster::Router router(rc);

    std::thread chaos;
    if (args.kill_after_ms > 0) {
        chaos = std::thread([&] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(args.kill_after_ms));
            std::fprintf(stderr, "# chaos: SIGKILL worker 0 (pid %d)\n",
                         static_cast<int>(router.worker_pid(0)));
            router.kill_worker(0);
        });
    }

    std::thread rollout;
    cluster::RolloutReport rollout_report;
    if (!args.reload_path.empty()) {
        rollout = std::thread([&] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(args.reload_after_ms));
            if (args.reload_kill_slot >= 0) {
                std::fprintf(stderr, "# chaos: SIGKILL slot %d at rollout start\n",
                             args.reload_kill_slot);
                router.kill_worker(static_cast<std::size_t>(args.reload_kill_slot));
            }
            rollout_report = router.rolling_reload(args.reload_path);
        });
    }

    std::atomic<std::uint64_t> resolved_by_status[6] = {};
    std::vector<std::thread> streams;
    streams.reserve(static_cast<std::size_t>(args.streams));
    for (int s = 0; s < args.streams; ++s) {
        streams.emplace_back([&, s] {
            std::vector<std::future<serve::ServeResult>> futures;
            futures.reserve(static_cast<std::size_t>(args.frames_per_stream));
            for (int f = 0; f < args.frames_per_stream; ++f) {
                const std::size_t idx =
                    (static_cast<std::size_t>(s) * 7 + static_cast<std::size_t>(f)) %
                    frames.size();
                futures.push_back(router.submit(
                    static_cast<std::uint64_t>(s) + 1, frames.image(idx)));
                if (args.interval_ms > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(args.interval_ms));
                }
            }
            for (auto& fut : futures) {
                const serve::ServeResult r = fut.get();
                resolved_by_status[static_cast<int>(r.status)].fetch_add(1);
            }
        });
    }
    for (auto& t : streams) t.join();
    if (chaos.joinable()) chaos.join();
    if (rollout.joinable()) rollout.join();
    router.drain();
    const cluster::FleetStats fs = router.fleet_stats();
    router.stop();

    std::printf("%s\n", fs.to_json().c_str());
    if (!args.reload_path.empty()) {
        std::printf("%s\n", rollout_report.to_json().c_str());
    }
    std::uint64_t resolved = 0;
    for (int s = 0; s < 6; ++s) resolved += resolved_by_status[s].load();
    std::fprintf(stderr,
                 "# cluster of %d x %d-thread workers, %d streams x %d frames "
                 "@%d: %.1f frames/s (ok %llu, rejected %llu, shutdown %llu, "
                 "retried %llu, deaths %llu, respawns %llu)\n",
                 args.cluster, args.workers, args.streams,
                 args.frames_per_stream, args.size, fs.throughput_fps,
                 static_cast<unsigned long long>(fs.ok),
                 static_cast<unsigned long long>(fs.rejected),
                 static_cast<unsigned long long>(fs.shutdown),
                 static_cast<unsigned long long>(fs.retried),
                 static_cast<unsigned long long>(fs.worker_deaths),
                 static_cast<unsigned long long>(fs.worker_respawns));

    const std::uint64_t expected = static_cast<std::uint64_t>(args.streams) *
                                   static_cast<std::uint64_t>(args.frames_per_stream);
    if (resolved != expected) {
        std::fprintf(stderr, "# FAIL: resolved %llu of %llu futures\n",
                     static_cast<unsigned long long>(resolved),
                     static_cast<unsigned long long>(expected));
        return 1;
    }
    if (!fs.accounting_ok()) {
        std::fprintf(stderr, "# FAIL: fleet accounting invariant violated\n");
        return 1;
    }
    if (!args.reload_path.empty()) {
        // A mid-rollout kill must abort the rollout; otherwise the verdict
        // is dictated by --reload-expect-reject.
        const bool want_ok =
            !args.reload_expect_reject && args.reload_kill_slot < 0;
        if (rollout_report.ok != want_ok) {
            std::fprintf(stderr, "# FAIL: rollout %s but expected %s: %s\n",
                         rollout_report.ok ? "committed" : "failed",
                         want_ok ? "commit" : "reject/abort",
                         rollout_report.to_json().c_str());
            return 1;
        }
    }
    if (args.expect_complete && args.kill_after_ms == 0 &&
        args.reload_kill_slot < 0 &&
        (fs.ok != fs.submitted || fs.rejected != 0 || fs.shutdown != 0)) {
        std::fprintf(stderr,
                     "# FAIL --expect-complete: submitted=%llu ok=%llu "
                     "rejected=%llu shutdown=%llu\n",
                     static_cast<unsigned long long>(fs.submitted),
                     static_cast<unsigned long long>(fs.ok),
                     static_cast<unsigned long long>(fs.rejected),
                     static_cast<unsigned long long>(fs.shutdown));
        return 1;
    }
    return 0;
}

int run(int argc, char** argv) {
    using namespace dronet;
    const Args args = parse_args(argc, argv);
    if (args.help) {
        std::printf("%s", kUsage);
        return 0;
    }
    if (args.cluster > 0) return run_cluster(args);
    set_gemm_threads(args.gemm_threads);
    if (!args.inject_plan.empty()) {
        if (!fault::compiled_in()) {
            throw std::runtime_error(
                "--inject needs a build with DRONET_FAULTS=ON (fault sites "
                "are compiled out)");
        }
        fault::FaultInjector::instance().install(fault::FaultPlan::parse(args.inject_plan));
        std::fprintf(stderr, "# fault plan armed: %s\n", args.inject_plan.c_str());
    }
    if (args.profile) profile::set_profiling(true);

    const ModelId id = model_from_string(args.model);
    Network net = [&] {
        if (auto pre = load_pretrained(id, args.size)) {
            std::fprintf(stderr, "# loaded pretrained %s checkpoint\n", args.model.c_str());
            return std::move(*pre);
        }
        std::fprintf(stderr, "# no checkpoint; random weights (timing-only run)\n");
        return build_model(id, {.input_size = args.size});
    }();
    net.set_batch(1);
    if (net.config().width != args.size) net.resize_input(args.size, args.size);
    if (args.fp16 && args.int8) {
        throw std::runtime_error("--fp16 and --int8 are mutually exclusive");
    }

    // One shared frame pool; each stream replays it from a different offset
    // so streams are out of phase like real cameras.
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(args.size),
                         std::max(8, args.frames_per_stream), /*seed=*/0xbeef);

    serve::ServiceConfig sc;
    sc.workers = args.workers;
    sc.queue_capacity = args.capacity;
    sc.policy = args.policy;
    sc.max_batch = args.batch;
    sc.batch_timeout_us = args.batch_timeout_us;
    sc.precision = args.int8   ? Precision::kInt8
                   : args.fp16 ? Precision::kF16
                               : Precision::kF32;
    sc.deadline_ms = args.deadline_ms;
    sc.max_retries = args.retries;
    if (args.degrade_high > 0) {
        sc.degrade_high_watermark = args.degrade_high;
        sc.degrade_low_watermark = args.degrade_low;
        sc.degraded_size = args.degraded_size > 0 ? args.degraded_size : args.size / 2;
    }
    serve::DetectionService service(net, sc);

    std::thread reloader;
    serve::ReloadOutcome reload_out;
    if (!args.reload_path.empty()) {
        reloader = std::thread([&] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(args.reload_after_ms));
            reload_out = service.reload_checkpoint(args.reload_path);
        });
    }

    std::vector<std::thread> streams;
    streams.reserve(static_cast<std::size_t>(args.streams));
    for (int s = 0; s < args.streams; ++s) {
        streams.emplace_back([&, s] {
            std::vector<std::future<serve::ServeResult>> futures;
            futures.reserve(static_cast<std::size_t>(args.frames_per_stream));
            for (int f = 0; f < args.frames_per_stream; ++f) {
                const std::size_t idx =
                    (static_cast<std::size_t>(s) * 7 + static_cast<std::size_t>(f)) %
                    frames.size();
                futures.push_back(service.submit(frames.image(idx)));
                if (args.interval_ms > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(args.interval_ms));
                }
            }
            for (auto& fut : futures) (void)fut.get();
        });
    }
    for (auto& t : streams) t.join();
    if (reloader.joinable()) reloader.join();
    service.drain();
    service.stop();  // quiesce workers so profiler reads below are safe
    if (!args.inject_plan.empty()) fault::FaultInjector::instance().clear();

    const serve::ServeStatsSnapshot snap = service.stats();
    std::printf("%s\n", snap.to_json().c_str());
    if (args.profile) {
        const std::vector<std::string> reports = service.profile_reports();
        for (std::size_t w = 0; w < reports.size(); ++w) {
            std::printf("{\"worker\":%zu,\"profile\":%s}\n", w, reports[w].c_str());
        }
    }
    std::fprintf(stderr,
                 "# %d workers, %d streams x %d frames @%d: %.1f frames/s, "
                 "p99 %.1f ms (dropped %llu, rejected %llu, failed %llu, "
                 "expired %llu, restarts %llu, degraded %llu)\n",
                 args.workers, args.streams, args.frames_per_stream, args.size,
                 snap.throughput_fps, snap.total.p99_ms,
                 static_cast<unsigned long long>(snap.dropped),
                 static_cast<unsigned long long>(snap.rejected),
                 static_cast<unsigned long long>(snap.failed),
                 static_cast<unsigned long long>(snap.deadline_expired),
                 static_cast<unsigned long long>(snap.worker_restarts),
                 static_cast<unsigned long long>(snap.degraded_frames));
    if (!args.reload_path.empty()) {
        std::fprintf(stderr, "# reload %s: %s (model_version %llu)%s%s\n",
                     args.reload_path.c_str(),
                     reload_out.ok ? "committed" : "rejected",
                     static_cast<unsigned long long>(reload_out.model_version),
                     reload_out.error.empty() ? "" : " — ",
                     reload_out.error.c_str());
        if (reload_out.ok == args.reload_expect_reject) {
            std::fprintf(stderr, "# FAIL: reload %s but expected %s\n",
                         reload_out.ok ? "committed" : "rejected",
                         args.reload_expect_reject ? "reject" : "commit");
            return 1;
        }
    }
    if (args.expect_complete &&
        (snap.dropped != 0 || snap.rejected != 0 || snap.completed != snap.submitted)) {
        std::fprintf(stderr,
                     "# FAIL --expect-complete: submitted=%llu completed=%llu "
                     "dropped=%llu rejected=%llu\n",
                     static_cast<unsigned long long>(snap.submitted),
                     static_cast<unsigned long long>(snap.completed),
                     static_cast<unsigned long long>(snap.dropped),
                     static_cast<unsigned long long>(snap.rejected));
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // Bad flags, a malformed --inject plan, or a missing/corrupt checkpoint
    // all end as one actionable line and a non-zero exit.
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_bench: error: %s\n", e.what());
        return 1;
    }
}
