// Model lifecycle tests (docs/robustness.md, "Model lifecycle"): hot
// checkpoint reload under live load, the canary gate (truncated files, NaN
// weights, divergence threshold), probation auto-rollback, explicit rollback,
// and reloads through the fp16 and int8 serving modes. These carry the
// `reload` ctest label; scripts/run_all.sh re-runs it under TSan and ASan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "models/model_zoo.hpp"
#include "nn/clone.hpp"
#include "nn/conv_layer.hpp"
#include "nn/weights_io.hpp"
#include "serve/detection_service.hpp"
#include "tensor/rng.hpp"
#include "video/pipeline.hpp"

namespace dronet {
namespace {

using serve::DetectionService;
using serve::ReloadOutcome;
using serve::ServeResult;
using serve::ServeStatus;

Network small_net() {
    return build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
}

PipelineConfig low_threshold_pipeline() {
    // Near-zero threshold so random-weight networks emit detections and the
    // "outputs changed / stayed identical" assertions are non-vacuous.
    PipelineConfig pc;
    pc.eval.score_threshold = 5e-4f;
    pc.eval.nms_threshold = 0.45f;
    return pc;
}

serve::ServiceConfig small_config() {
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.queue_capacity = 8;
    sc.pipeline = low_threshold_pipeline();
    return sc;
}

std::filesystem::path temp_ckpt(const char* name) {
    return std::filesystem::temp_directory_path() / name;
}

void randomize_params(Network& net, std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        for (Param* p : net.layer(static_cast<int>(i)).params()) {
            rng.fill_uniform(p->v, -1.0f, 1.0f);
        }
        if (auto* conv = dynamic_cast<ConvolutionalLayer*>(
                &net.layer(static_cast<int>(i)))) {
            if (conv->config().batch_normalize) {
                rng.fill_uniform(conv->rolling_mean(), -0.5f, 0.5f);
                rng.fill_uniform(conv->rolling_variance(), 0.5f, 1.5f);
            }
        }
    }
}

/// Saves a same-architecture checkpoint with different (seeded) weights.
std::filesystem::path save_perturbed_checkpoint(const Network& live,
                                                const char* name,
                                                std::uint64_t seed) {
    Network cand = clone_network(live);
    randomize_params(cand, seed);
    const auto path = temp_ckpt(name);
    save_weights(cand, path);
    return path;
}

Detections detect_one(DetectionService& service, const Image& frame) {
    auto fut = service.submit(frame);
    const ServeResult r = fut.get();
    EXPECT_EQ(r.status, ServeStatus::kOk);
    return r.frame.detections;
}

void expect_same_detections(const Detections& got, const Detections& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t d = 0; d < want.size(); ++d) {
        EXPECT_EQ(got[d].box.x, want[d].box.x);
        EXPECT_EQ(got[d].box.y, want[d].box.y);
        EXPECT_EQ(got[d].box.w, want[d].box.w);
        EXPECT_EQ(got[d].box.h, want[d].box.h);
        EXPECT_EQ(got[d].objectness, want[d].objectness);
        EXPECT_EQ(got[d].class_prob, want[d].class_prob);
        EXPECT_EQ(got[d].class_id, want[d].class_id);
    }
}

// ---- hot swap under load ----------------------------------------------------

TEST(Reload, HotSwapUnderLoadResolvesEveryFutureAndMatchesColdStart) {
    Network net = small_net();
    const auto path =
        save_perturbed_checkpoint(net, "dronet_reload_live.weights", 0xabc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 8, /*seed=*/0x5eed);

    DetectionService service(net, small_config());
    EXPECT_EQ(service.model_version(), 1u);

    // Sustained load from two producer streams while the swap happens.
    std::atomic<std::uint64_t> ok{0}, not_ok{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < 40; ++i) {
                auto fut = service.submit(
                    frames.image(static_cast<std::size_t>(p * 7 + i) % frames.size()));
                const ServeResult r = fut.get();
                (r.status == ServeStatus::kOk ? ok : not_ok).fetch_add(1);
            }
        });
    }
    // Let the load get going, then swap mid-stream.
    while (service.stats().completed < 4) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const ReloadOutcome out = service.reload_checkpoint(path);
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.model_version, 2u);
    EXPECT_EQ(service.model_version(), 2u);
    for (auto& t : producers) t.join();
    service.drain();

    // Zero dropped futures: kBlock policy + healthy swap means every one of
    // the 80 submissions resolved kOk.
    EXPECT_EQ(ok.load(), 80u);
    EXPECT_EQ(not_ok.load(), 0u);
    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.completed, snap.submitted);
    EXPECT_EQ(snap.model_version, 2u);
    EXPECT_EQ(snap.reloads, 1u);
    EXPECT_EQ(snap.reload_failures, 0u);
    const std::string json = snap.to_json();
    EXPECT_NE(json.find("\"model_version\":2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"reloads\":1"), std::string::npos) << json;

    // Post-swap outputs are bit-identical to a service cold-started from the
    // new checkpoint.
    Network cold = clone_network(net);
    load_weights(cold, path);
    DetectionService cold_service(cold, small_config());
    std::size_t nonempty = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        const Detections want = detect_one(cold_service, frames.image(i));
        const Detections got = detect_one(service, frames.image(i));
        if (!want.empty()) ++nonempty;
        expect_same_detections(got, want);
    }
    EXPECT_GT(nonempty, 0u) << "comparison is vacuous: no detections at all";
    std::filesystem::remove(path);
}

// ---- canary gate ------------------------------------------------------------

TEST(Reload, TruncatedCandidateIsRejectedAndServingIsUnchanged) {
    Network net = small_net();
    const auto path =
        save_perturbed_checkpoint(net, "dronet_reload_trunc.weights", 0xdead);
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 2, /*seed=*/7);

    DetectionService service(net, small_config());
    const Detections before = detect_one(service, frames.image(0));

    const ReloadOutcome out = service.reload_checkpoint(path);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.error.empty());
    EXPECT_EQ(out.model_version, 1u);
    EXPECT_EQ(service.model_version(), 1u);
    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.reloads, 0u);
    EXPECT_EQ(snap.reload_failures, 1u);

    // The live model is byte-identical: same frame, same detections.
    expect_same_detections(detect_one(service, frames.image(0)), before);
    std::filesystem::remove(path);
}

TEST(Reload, NaNCandidateIsRejectedByTheCanaryGate) {
    Network net = small_net();
    Network cand = clone_network(net);
    auto& conv = dynamic_cast<ConvolutionalLayer&>(cand.layer(0));
    conv.weights().v[0] = std::numeric_limits<float>::quiet_NaN();
    const auto path = temp_ckpt("dronet_reload_nan.weights");
    save_weights(cand, path);

    DetectionService service(net, small_config());
    const ReloadOutcome out = service.reload_checkpoint(path);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("canary"), std::string::npos) << out.error;
    EXPECT_EQ(service.model_version(), 1u);
    EXPECT_EQ(service.stats().reload_failures, 1u);
    std::filesystem::remove(path);
}

TEST(Reload, DivergenceThresholdRejectsDifferentAcceptsIdenticalWeights) {
    Network net = small_net();
    const auto diverged =
        save_perturbed_checkpoint(net, "dronet_reload_div.weights", 0xfeed);
    const auto identical = temp_ckpt("dronet_reload_same.weights");
    save_weights(net, identical);

    serve::ServiceConfig sc = small_config();
    sc.canary_max_divergence = 1e-12;  // only a byte-identical model passes
    DetectionService service(net, sc);

    const ReloadOutcome reject = service.reload_checkpoint(diverged);
    EXPECT_FALSE(reject.ok);
    EXPECT_NE(reject.error.find("diverge"), std::string::npos) << reject.error;
    EXPECT_EQ(service.model_version(), 1u);

    const ReloadOutcome accept = service.reload_checkpoint(identical);
    EXPECT_TRUE(accept.ok) << accept.error;
    EXPECT_EQ(accept.model_version, 2u);
    std::filesystem::remove(diverged);
    std::filesystem::remove(identical);
}

// ---- probation & rollback ---------------------------------------------------

TEST(Reload, ProbationWindowAutoRollsBackOnFrameFailure) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = small_net();
    const auto path =
        save_perturbed_checkpoint(net, "dronet_reload_prob.weights", 0xaa);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 2, /*seed=*/7);

    serve::ServiceConfig sc = small_config();
    sc.workers = 1;
    sc.reload_probation_ms = 60'000;   // stays open for the whole test
    sc.reload_rollback_failures = 1;   // first failure rolls back
    DetectionService service(net, sc);
    const Detections before = detect_one(service, frames.image(0));

    const ReloadOutcome out = service.reload_checkpoint(path);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(service.model_version(), 2u);

    {
        // One failed frame inside the probation window: the new model is
        // deemed bad and the service rolls itself back. times=2 covers both
        // the batch attempt and the automatic solo retry of the frame.
        fault::ScopedFaultPlan plan("network.forward:throw:every=1:times=2");
        auto fut = service.submit(frames.image(1));
        EXPECT_EQ(fut.get().status, ServeStatus::kFailed);
    }
    EXPECT_EQ(service.model_version(), 1u);
    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.rollbacks, 1u);
    EXPECT_EQ(snap.model_version, 1u);
    // Back on the original weights, bit-identical.
    expect_same_detections(detect_one(service, frames.image(0)), before);
    std::filesystem::remove(path);
}

TEST(Reload, ExplicitRollbackRestoresPreviousModelOnceOnly) {
    Network net = small_net();
    const auto path =
        save_perturbed_checkpoint(net, "dronet_reload_rb.weights", 0xbb);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 1, /*seed=*/7);

    DetectionService service(net, small_config());
    const Detections before = detect_one(service, frames.image(0));
    ASSERT_TRUE(service.reload_checkpoint(path).ok);
    EXPECT_EQ(service.model_version(), 2u);

    const ReloadOutcome rb = service.rollback();
    EXPECT_TRUE(rb.ok) << rb.error;
    EXPECT_EQ(rb.model_version, 1u);
    EXPECT_EQ(service.model_version(), 1u);
    expect_same_detections(detect_one(service, frames.image(0)), before);

    // The previous set is consumed: a second rollback has nowhere to go.
    const ReloadOutcome again = service.rollback();
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(service.model_version(), 1u);
    std::filesystem::remove(path);
}

// ---- reload composes with the fp16 / int8 serving modes ---------------------

TEST(Reload, Int8ServiceReloadRecalibratesAndMatchesColdStart) {
    Network net = small_net();
    const auto path =
        save_perturbed_checkpoint(net, "dronet_reload_int8.weights", 0xcc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 4, /*seed=*/0x5eed);

    serve::ServiceConfig sc = small_config();
    sc.precision = Precision::kInt8;
    DetectionService service(net, sc);
    const ReloadOutcome out = service.reload_checkpoint(path);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(service.model_version(), 2u);

    // Calibration re-ran against the new weights: outputs match an int8
    // service cold-started from the new checkpoint, bit for bit.
    Network cold = clone_network(net);
    load_weights(cold, path);
    DetectionService cold_service(cold, sc);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        expect_same_detections(detect_one(service, frames.image(i)),
                               detect_one(cold_service, frames.image(i)));
    }
    std::filesystem::remove(path);
}

TEST(Reload, Fp16ServiceReloadReencodesAndMatchesColdStart) {
    Network proto = small_net();
    const auto path =
        save_perturbed_checkpoint(proto, "dronet_reload_fp16.weights", 0xdd);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 4, /*seed=*/0x5eed);

    serve::ServiceConfig sc = small_config();
    sc.precision = Precision::kF16;
    DetectionService service(proto, sc);
    const ReloadOutcome out = service.reload_checkpoint(path);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(service.model_version(), 2u);

    Network cold = clone_network(proto);
    load_weights(cold, path);
    DetectionService cold_service(cold, sc);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        expect_same_detections(detect_one(service, frames.image(i)),
                               detect_one(cold_service, frames.image(i)));
    }
    std::filesystem::remove(path);
}

// ---- fault sites ------------------------------------------------------------

TEST(Reload, ReadFaultSiteRejectsCandidateWithoutSwapping) {
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = small_net();
    const auto path =
        save_perturbed_checkpoint(net, "dronet_reload_fault.weights", 0xee);

    DetectionService service(net, small_config());
    {
        fault::ScopedFaultPlan plan("reload.read:throw");
        const ReloadOutcome out = service.reload_checkpoint(path);
        EXPECT_FALSE(out.ok);
        EXPECT_EQ(service.model_version(), 1u);
    }
    {
        fault::ScopedFaultPlan plan("reload.canary:throw");
        const ReloadOutcome out = service.reload_checkpoint(path);
        EXPECT_FALSE(out.ok);
        EXPECT_EQ(service.model_version(), 1u);
    }
    EXPECT_EQ(service.stats().reload_failures, 2u);
    // With the plans cleared the same candidate goes through.
    const ReloadOutcome out = service.reload_checkpoint(path);
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(service.model_version(), 2u);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace dronet
