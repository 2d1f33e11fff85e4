// Chaos tests (ctest label `chaos`; run under TSan and ASan in
// scripts/run_all.sh): deterministic fault injection through a live
// DetectionService, asserting every self-healing path rather than hoping for
// it — a worker that restarts in place after a worker-killing fault,
// transient-fault retry, circuit-breaker shed and recovery, deadline expiry,
// graceful degradation under overload, crash-safe checkpointing, and a stop()
// that returns only once no submitted future is left unresolved.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "models/model_zoo.hpp"
#include "nn/clone.hpp"
#include "nn/conv_layer.hpp"
#include "nn/weights_io.hpp"
#include "serve/detection_service.hpp"
#include "video/pipeline.hpp"

namespace dronet {
namespace {

using serve::DetectionService;
using serve::ServeResult;
using serve::ServeStatsSnapshot;
using serve::ServeStatus;

constexpr auto kFutureTimeout = std::chrono::seconds(120);

PipelineConfig low_threshold_pipeline() {
    PipelineConfig pc;
    pc.eval.score_threshold = 5e-4f;
    pc.eval.nms_threshold = 0.45f;
    return pc;
}

/// get() with a generous bound so a regression hangs the assertion, not CI.
ServeResult get_or_die(std::future<ServeResult>& f) {
    if (f.wait_for(kFutureTimeout) != std::future_status::ready) {
        ADD_FAILURE() << "future never resolved (abandoned promise?)";
        return {};
    }
    return f.get();
}

/// The service-wide accounting invariant: once drained, every submitted frame
/// landed in exactly one terminal bucket.
void expect_accounting(const ServeStatsSnapshot& s) {
    EXPECT_TRUE(s.accounting_ok()) << s.to_json();
}

/// Extracts an integer counter from the stats JSON (proves the counters are
/// exported, not just tracked internally).
std::uint64_t json_counter(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos) {
        ADD_FAILURE() << key << " missing in " << json;
        return 0;
    }
    return std::stoull(json.substr(at + needle.size()));
}

TEST(Chaos, WorkerKillFaultIsRespawnedAndEveryFutureResolves) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;  // the killed worker IS the service; only a restart saves it
    sc.queue_capacity = 32;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 4, /*seed=*/7);

    constexpr int kSubmitted = 12;
    int ok = 0, failed = 0;
    {
        fault::ScopedFaultPlan plan("network.forward:kill:nth=3:times=1");
        std::vector<std::future<ServeResult>> futures;
        for (int i = 0; i < kSubmitted; ++i) {
            futures.push_back(
                service.submit(frames.image(static_cast<std::size_t>(i) % frames.size())));
        }
        // Draining past the kill is only possible if the sole worker
        // restarted its loop; the remaining frames prove the replica still
        // works.
        for (auto& f : futures) {
            const ServeResult r = get_or_die(f);
            if (r.status == ServeStatus::kOk) ++ok;
            if (r.status == ServeStatus::kFailed) {
                EXPECT_NE(r.error.find("worker died"), std::string::npos) << r.error;
                ++failed;
            }
        }
    }
    EXPECT_EQ(failed, 1);  // exactly the frame the worker held when killed
    EXPECT_EQ(ok, kSubmitted - 1);

    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.worker_restarts, 1u);  // one restart per kill
    EXPECT_EQ(snap.failed, 1u);
    EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(ok));
    expect_accounting(snap);
    EXPECT_EQ(json_counter(snap.to_json(), "worker_restarts"), 1u);
    service.stop();
}

TEST(Chaos, TransientForwardFaultIsRetriedToSuccess) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.max_retries = 3;
    sc.retry_backoff_ms = 1;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 3, /*seed=*/7);

    {
        // Fires on the first two forward calls: the first frame's first
        // attempt and first retry both fail, the second retry succeeds.
        fault::ScopedFaultPlan plan("network.forward:throw:every=1:times=2");
        std::vector<std::future<ServeResult>> futures;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            futures.push_back(service.submit(frames.image(i)));
        }
        for (auto& f : futures) {
            EXPECT_EQ(get_or_die(f).status, ServeStatus::kOk);
        }
    }
    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.completed, frames.size());
    EXPECT_EQ(snap.failed, 0u);
    EXPECT_GE(snap.retries, 1u);
    expect_accounting(snap);
    EXPECT_GE(json_counter(snap.to_json(), "retries"), 1u);
    service.stop();
}

// max_retries counts every forward after the first, a lone frame's too: one
// fault more than the budget fails the frame, and nothing re-runs it.
TEST(Chaos, LoneFrameGetsExactlyTheRetryBudget) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 1, /*seed=*/7);
    for (const int max_retries : {0, 1}) {
        serve::ServiceConfig sc;
        sc.workers = 1;
        sc.max_retries = max_retries;
        sc.retry_backoff_ms = 1;
        sc.pipeline = low_threshold_pipeline();
        DetectionService service(net, sc);
        {
            fault::ScopedFaultPlan plan("network.forward:throw:times=" +
                                        std::to_string(max_retries + 1));
            auto f = service.submit(frames.image(0));
            EXPECT_EQ(get_or_die(f).status, ServeStatus::kFailed)
                << "max_retries " << max_retries;
        }
        service.drain();
        const ServeStatsSnapshot snap = service.stats();
        EXPECT_EQ(snap.failed, 1u);
        EXPECT_EQ(snap.retries, static_cast<std::uint64_t>(max_retries));
        EXPECT_EQ(snap.batches, 0u);
        expect_accounting(snap);
    }
}

TEST(Chaos, ExpiredDeadlinesResolveTimeoutNotBlock) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 16;
    sc.deadline_ms = 250;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 5, /*seed=*/7);

    int ok = 0, timeout = 0;
    {
        // Every forward sleeps well past the deadline, so frames queued
        // behind the first are already overdue when the worker reaches them.
        fault::ScopedFaultPlan plan("network.forward:latency:latency=600:every=1");
        std::vector<std::future<ServeResult>> futures;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            futures.push_back(service.submit(frames.image(i)));
        }
        for (auto& f : futures) {
            const ServeResult r = get_or_die(f);
            if (r.status == ServeStatus::kOk) ++ok;
            if (r.status == ServeStatus::kTimeout) {
                EXPECT_TRUE(r.frame.detections.empty());
                ++timeout;
            }
        }
    }
    EXPECT_EQ(ok + timeout, static_cast<int>(frames.size()));
    EXPECT_GE(timeout, 3);
    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.deadline_expired, static_cast<std::uint64_t>(timeout));
    expect_accounting(snap);
    EXPECT_GE(json_counter(snap.to_json(), "deadline_expired"), 3u);
    service.stop();
}

TEST(Chaos, BreakerOpensShedsLoadAndRecoversHalfOpen) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.breaker_threshold = 2;
    sc.breaker_open_ms = 300;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 2, /*seed=*/7);

    {
        // Every forward fails; two consecutive frame failures trip the
        // breaker.
        fault::ScopedFaultPlan plan("network.forward:throw");
        auto f0 = service.submit(frames.image(0));
        auto f1 = service.submit(frames.image(1));
        EXPECT_EQ(get_or_die(f0).status, ServeStatus::kFailed);
        EXPECT_EQ(get_or_die(f1).status, ServeStatus::kFailed);

        // While open, submits are shed synchronously without touching the
        // (still-faulty) network.
        auto shed = service.submit(frames.image(0));
        const ServeResult r = get_or_die(shed);
        EXPECT_EQ(r.status, ServeStatus::kRejected);
        EXPECT_NE(r.error.find("breaker"), std::string::npos) << r.error;
    }

    // After the open window the next submit half-opens the breaker; with the
    // fault gone the trial frame succeeds and the breaker stays closed.
    std::this_thread::sleep_for(std::chrono::milliseconds(350));
    auto trial = service.submit(frames.image(0));
    EXPECT_EQ(get_or_die(trial).status, ServeStatus::kOk);

    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.breaker_opens, 1u);
    EXPECT_GT(snap.breaker_open_ms, 0.0);
    EXPECT_EQ(snap.failed, 2u);
    EXPECT_EQ(snap.rejected, 1u);
    EXPECT_EQ(snap.completed, 1u);
    expect_accounting(snap);
    const std::string json = snap.to_json();
    EXPECT_EQ(json_counter(json, "breaker_opens"), 1u);
    EXPECT_NE(json.find("\"breaker_open_ms\":"), std::string::npos);
    service.stop();
}

TEST(Chaos, BreakerHalfOpenFailureReopensAtOnce) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.breaker_threshold = 2;
    sc.breaker_open_ms = 50;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 2, /*seed=*/7);

    fault::ScopedFaultPlan plan("network.forward:throw");
    auto f0 = service.submit(frames.image(0));
    auto f1 = service.submit(frames.image(1));
    EXPECT_EQ(get_or_die(f0).status, ServeStatus::kFailed);
    EXPECT_EQ(get_or_die(f1).status, ServeStatus::kFailed);

    // The model still fails after the open window: the one trial frame
    // re-opens the breaker, so the next submit is shed rather than forwarded.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    auto trial = service.submit(frames.image(0));
    EXPECT_EQ(get_or_die(trial).status, ServeStatus::kFailed);
    auto shed = service.submit(frames.image(1));
    const ServeResult r = get_or_die(shed);
    EXPECT_EQ(r.status, ServeStatus::kRejected);
    EXPECT_NE(r.error.find("breaker"), std::string::npos) << r.error;

    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.breaker_opens, 2u);
    EXPECT_EQ(snap.failed, 3u);
    EXPECT_EQ(snap.rejected, 1u);
    expect_accounting(snap);
    service.stop();
}

// A frame accepted before the breaker opened can finish while it is open.
// Its success must not reset the breaker: the half-open trial still decides.
TEST(Chaos, SuccessWhileBreakerOpenDoesNotSkipHalfOpen) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.breaker_threshold = 2;
    sc.breaker_open_ms = 100;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 3, /*seed=*/7);

    {
        // f0 and f1 each fail their one forward (no retries) and open the
        // breaker. The 50 ms stall on a worker pop lets all three frames
        // queue before it opens, so f2 is forwarded, and succeeds, while it
        // is open.
        fault::ScopedFaultPlan plan(
            "queue.pop:latency:latency=50:nth=1;network.forward:throw:times=2");
        auto f0 = service.submit(frames.image(0));
        auto f1 = service.submit(frames.image(1));
        auto f2 = service.submit(frames.image(2));
        EXPECT_EQ(get_or_die(f0).status, ServeStatus::kFailed);
        EXPECT_EQ(get_or_die(f1).status, ServeStatus::kFailed);
        EXPECT_EQ(get_or_die(f2).status, ServeStatus::kOk);
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    fault::ScopedFaultPlan plan("network.forward:throw");
    auto trial = service.submit(frames.image(0));
    EXPECT_EQ(get_or_die(trial).status, ServeStatus::kFailed);
    auto shed = service.submit(frames.image(1));
    const ServeResult r = get_or_die(shed);
    EXPECT_EQ(r.status, ServeStatus::kRejected);
    EXPECT_NE(r.error.find("breaker"), std::string::npos) << r.error;

    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.breaker_opens, 2u);
    expect_accounting(snap);
    service.stop();
}

TEST(Chaos, OverloadBurstDegradesToFallbackSizeAndRecovers) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 64;
    sc.degrade_high_watermark = 4;
    sc.degrade_low_watermark = 1;
    sc.degraded_size = 64;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(128), 4, /*seed=*/0x5eed);

    constexpr int kBurst = 16;
    {
        // Slow every forward a little so the burst reliably outruns the
        // worker and the queue crosses the high watermark.
        fault::ScopedFaultPlan plan("network.forward:latency:latency=20:every=1");
        std::vector<std::future<ServeResult>> futures;
        for (int i = 0; i < kBurst; ++i) {
            futures.push_back(
                service.submit(frames.image(static_cast<std::size_t>(i) % frames.size())));
        }
        // The burst outran the worker: the service is already in degraded
        // mode before the backlog clears.
        EXPECT_TRUE(service.degraded());
        for (auto& f : futures) {
            EXPECT_EQ(get_or_die(f).status, ServeStatus::kOk);
        }
    }
    // The backlog cleared below the low watermark, so the worker switched
    // back to full resolution before the final frames.
    EXPECT_FALSE(service.degraded());

    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(kBurst));
    EXPECT_GE(snap.degraded_frames, 1u);
    EXPECT_LT(snap.degraded_frames, snap.completed);  // recovery frames at full size
    EXPECT_GE(snap.degrade_transitions, 2u);  // at least one full->degraded->full
    expect_accounting(snap);
    const std::string json = snap.to_json();
    EXPECT_GE(json_counter(json, "degraded_frames"), 1u);
    EXPECT_GE(json_counter(json, "degrade_transitions"), 2u);
    service.stop();
}

TEST(Chaos, MidSaveCrashLeavesPreviousCheckpointIntact) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    const auto dir = std::filesystem::temp_directory_path() / "dronet_chaos_ckpt";
    std::filesystem::create_directories(dir);
    const auto path = dir / "model.weights";
    const auto tmp = std::filesystem::path(path.string() + ".tmp");

    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    save_weights(net, path);
    std::vector<char> before;
    {
        std::ifstream in(path, std::ios::binary);
        before.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(before.empty());

    // Perturb the weights so a *successful* second save would change the file
    // — making "the old checkpoint survived" a non-vacuous assertion.
    auto& conv = dynamic_cast<ConvolutionalLayer&>(net.layer(0));
    conv.weights().v[0] += 1.0f;

    {
        // Crash (exception) after the header and first layer hit the temp
        // file: the in-process stand-in for power loss mid-checkpoint.
        fault::ScopedFaultPlan plan("weights.write:throw:nth=2");
        EXPECT_THROW(save_weights(net, path), fault::FaultInjected);
    }
    std::vector<char> after;
    {
        std::ifstream in(path, std::ios::binary);
        after.assign(std::istreambuf_iterator<char>(in), {});
    }
    EXPECT_EQ(before, after) << "interrupted save corrupted the live checkpoint";
    EXPECT_FALSE(std::filesystem::exists(tmp)) << "temp file leaked";

    // The surviving checkpoint is still loadable...
    Network fresh = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    EXPECT_NO_THROW(load_weights(fresh, path));

    // ...and a clean save afterwards replaces it atomically.
    save_weights(net, path);
    std::vector<char> replaced;
    {
        std::ifstream in(path, std::ios::binary);
        replaced.assign(std::istreambuf_iterator<char>(in), {});
    }
    EXPECT_NE(before, replaced);
    EXPECT_NO_THROW(load_weights(fresh, path));
    std::filesystem::remove_all(dir);
}

TEST(Chaos, DirFsyncFaultAfterRenameSurfacesWithoutCorruptingCheckpoint) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    const auto dir =
        std::filesystem::temp_directory_path() / "dronet_chaos_dirsync";
    std::filesystem::create_directories(dir);
    const auto path = dir / "model.weights";
    const auto tmp = std::filesystem::path(path.string() + ".tmp");

    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    save_weights(net, path);
    auto& conv = dynamic_cast<ConvolutionalLayer&>(net.layer(0));
    conv.weights().v[0] += 1.0f;

    {
        // Fault between rename(2) and the parent-directory fsync: the new
        // checkpoint's data and name are in place, but the directory entry's
        // durability is not guaranteed yet — save_weights must surface that
        // instead of reporting success.
        fault::ScopedFaultPlan plan("weights.dir_fsync:throw");
        EXPECT_THROW(save_weights(net, path), fault::FaultInjected);
        auto& inj = fault::FaultInjector::instance();
        EXPECT_EQ(inj.calls(fault::kSiteWeightsDirFsync), 1u);
        EXPECT_EQ(inj.fires(fault::kSiteWeightsDirFsync), 1u);
    }
    EXPECT_FALSE(std::filesystem::exists(tmp)) << "temp file leaked";

    // Whichever generation the crash would leave behind, the visible file is
    // a complete, loadable checkpoint — never a torn one.
    Network fresh = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    EXPECT_NO_THROW(load_weights(fresh, path));

    // A clean retry commits durably.
    EXPECT_NO_THROW(save_weights(net, path));
    EXPECT_NO_THROW(load_weights(fresh, path));
    std::filesystem::remove_all(dir);
}

TEST(Chaos, StopReturnsWithEveryFutureReadyWhileEveryForwardKills) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 16;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 5, /*seed=*/7);

    fault::ScopedFaultPlan plan("network.forward:kill:every=1");
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        futures.push_back(service.submit(frames.image(i)));
    }
    service.stop();
    // Regression contract for stop(): every future is ready the moment stop()
    // returns. The sole worker dies on every frame and restarts in place, so
    // it still takes each queued frame before the closed queue lets it exit.
    for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
            << "future left unresolved by stop()";
        const ServeResult r = f.get();
        EXPECT_EQ(r.status, ServeStatus::kFailed);
        EXPECT_NE(r.error.find("worker died"), std::string::npos) << r.error;
    }
    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.failed, frames.size());
    EXPECT_EQ(snap.worker_restarts, frames.size());  // one restart per kill
    expect_accounting(snap);
}

// queue.pop fires after the batch is taken: a kill there escapes with the
// frame the worker holds, which fails, and the worker restarts, so every
// frame is taken once and stop() returns with the plan still armed. Fired
// before the take, the same plan would never let a frame out of the queue.
TEST(Chaos, QueuePopKillFailsTheTakenFrameAndRestarts) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;  // max_batch 1: one frame per pop, one restart per frame
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 4, /*seed=*/7);

    {
        fault::ScopedFaultPlan plan("queue.pop:kill:every=1");
        std::vector<std::future<ServeResult>> futures;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            futures.push_back(service.submit(frames.image(i)));
        }
        for (auto& f : futures) {
            // Bounded well below kFutureTimeout: a stuck queue fails fast.
            ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
            const ServeResult r = f.get();
            EXPECT_EQ(r.status, ServeStatus::kFailed);
            EXPECT_NE(r.error.find("worker died"), std::string::npos) << r.error;
        }
        service.stop();
    }
    const ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.failed, frames.size());
    EXPECT_EQ(snap.worker_restarts, frames.size());  // one restart per kill
    expect_accounting(snap);
}

TEST(Chaos, TruncatedWeightsReadReportsExpectedVsActual) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    const auto dir = std::filesystem::temp_directory_path() / "dronet_chaos_short";
    std::filesystem::create_directories(dir);
    const auto path = dir / "model.weights";
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    save_weights(net, path);

    // A short read mid-stream must surface as a clean truncation error even
    // when the on-disk byte count is exactly right.
    fault::ScopedFaultPlan plan("weights.read:short-read:bytes=64:nth=2");
    Network fresh = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    try {
        load_weights(fresh, path);
        FAIL() << "short read went unnoticed";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    }
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dronet
