// Chaos tests for the sharded serving tier: SIGKILL a worker process in the
// middle of a loaded run (and in the middle of a rolling model reload) and
// assert the PR-5 invariant fleet-wide — every accepted future resolves (kOk,
// retried-kOk, kRejected, or kShutdown; never hung), the accounting identity
// holds, and recovery restores the fleet: the respawned worker rejoins at
// full capacity, and an aborted rollout rolls every committed worker back to
// the old model. Carries the `chaos` + `cluster` ctest labels;
// scripts/run_all.sh re-runs it under both TSan and ASan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/router.hpp"
#include "data/dataset.hpp"
#include "models/model_zoo.hpp"
#include "nn/clone.hpp"
#include "nn/conv_layer.hpp"
#include "nn/weights_io.hpp"
#include "serve/detection_service.hpp"
#include "tensor/rng.hpp"

#ifndef DRONET_SERVE_WORKER_PATH
#define DRONET_SERVE_WORKER_PATH ""
#endif

namespace dronet {
namespace {

using serve::ServeResult;
using serve::ServeStatus;

TEST(ClusterChaos, WorkerKillMidLoadResolvesEveryFuture) {
    const std::string worker_bin = DRONET_SERVE_WORKER_PATH;
    ASSERT_FALSE(worker_bin.empty());

    cluster::RouterConfig rc;
    rc.worker_argv = {worker_bin, "--size", "64", "--filter-scale", "0.25",
                      "--workers", "1"};
    rc.workers = 2;
    rc.worker_inflight_limit = 2;
    rc.max_retries = 1;
    rc.health_interval_ms = 20;
    rc.respawn = true;
    cluster::Router router(rc);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(64), 8, /*seed=*/21);
    constexpr int kTotal = 48;
    std::vector<std::future<ServeResult>> futures;
    futures.reserve(kTotal);
    bool killed = false;
    for (int i = 0; i < kTotal; ++i) {
        futures.push_back(router.submit(/*client_id=*/1 + (i % 4),
                                        frames.image(static_cast<std::size_t>(i % 8))));
        if (!killed && i == kTotal / 3) {
            router.kill_worker(0);  // SIGKILL mid-load, in-flight frames stranded
            killed = true;
        }
    }

    // The invariant under test: every accepted future resolves. The deadline
    // is a hang detector, not a latency bound.
    std::uint64_t by_status[6] = {};
    int unresolved = 0;
    for (auto& f : futures) {
        if (f.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
            ++unresolved;
            continue;
        }
        const ServeResult r = f.get();
        by_status[static_cast<int>(r.status)]++;
    }
    EXPECT_EQ(unresolved, 0) << "futures abandoned after worker kill";
    EXPECT_EQ(by_status[static_cast<int>(ServeStatus::kOk)] +
                  by_status[static_cast<int>(ServeStatus::kDropped)] +
                  by_status[static_cast<int>(ServeStatus::kRejected)] +
                  by_status[static_cast<int>(ServeStatus::kTimeout)] +
                  by_status[static_cast<int>(ServeStatus::kFailed)] +
                  by_status[static_cast<int>(ServeStatus::kShutdown)],
              static_cast<std::uint64_t>(kTotal));
    // Most of the load must still succeed: only frames in flight on the dying
    // worker at the kill instant can shed, and the retry budget covers one
    // re-dispatch each.
    EXPECT_GE(by_status[static_cast<int>(ServeStatus::kOk)],
              static_cast<std::uint64_t>(kTotal - 2 * rc.worker_inflight_limit));

    const cluster::FleetStats fs = router.fleet_stats();
    EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
    EXPECT_EQ(fs.submitted, static_cast<std::uint64_t>(kTotal));
    EXPECT_GE(fs.worker_deaths, 1u);

    // The router must respawn the killed worker process and restore capacity.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (router.alive_workers() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(router.alive_workers(), 2);
    EXPECT_GE(router.fleet_stats(/*timeout_ms=*/5000).worker_respawns, 1u);

    // And the respawned fleet serves again.
    auto after = router.submit(/*client_id=*/1, frames.image(0));
    EXPECT_EQ(after.get().status, ServeStatus::kOk);
    router.stop();
}

TEST(ClusterChaos, WorkerKillMidRolloutAbortsAndRollsBackFleet) {
    const std::string worker_bin = DRONET_SERVE_WORKER_PATH;
    ASSERT_FALSE(worker_bin.empty());

    // A loadable same-architecture candidate: the spawned workers build the
    // identical deterministic model at this size and filter scale.
    Network local =
        build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Network cand = clone_network(local);
    {
        Rng rng(0x7a1);
        for (std::size_t i = 0; i < cand.num_layers(); ++i) {
            for (Param* p : cand.layer(static_cast<int>(i)).params()) {
                rng.fill_uniform(p->v, -1.0f, 1.0f);
            }
            if (auto* conv = dynamic_cast<ConvolutionalLayer*>(
                    &cand.layer(static_cast<int>(i)))) {
                if (conv->config().batch_normalize) {
                    rng.fill_uniform(conv->rolling_mean(), -0.5f, 0.5f);
                    rng.fill_uniform(conv->rolling_variance(), 0.5f, 1.5f);
                }
            }
        }
    }
    // Removed however the test ends, a failed ASSERT included.
    struct RemoveOnExit {
        std::filesystem::path path;
        explicit RemoveOnExit(std::filesystem::path p) : path(std::move(p)) {}
        ~RemoveOnExit() {
            std::error_code ec;
            std::filesystem::remove(path, ec);
        }
        RemoveOnExit(const RemoveOnExit&) = delete;
        RemoveOnExit& operator=(const RemoveOnExit&) = delete;
    };
    const RemoveOnExit file(std::filesystem::temp_directory_path() /
                            "dronet_rollout_kill.weights");
    const std::filesystem::path& path = file.path;
    save_weights(cand, path);

    cluster::RouterConfig rc;
    rc.worker_argv = {worker_bin, "--size", "64", "--filter-scale", "0.25",
                      "--workers", "1"};
    rc.workers = 2;
    rc.max_retries = 1;
    rc.health_interval_ms = 20;
    rc.respawn = false;  // keep the kill permanent so the abort is forced
    cluster::Router router(rc);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(64), 8, /*seed=*/33);
    // Warm both workers and settle the queue so the rollout's per-slot drain
    // starts from a known state.
    std::vector<std::future<ServeResult>> warm;
    for (int i = 0; i < 8; ++i) {
        warm.push_back(router.submit(1 + (i % 2), frames.image(i)));
    }
    for (auto& f : warm) EXPECT_EQ(f.get().status, ServeStatus::kOk);

    // Kill slot 1, then roll out: slot 0 reloads to the candidate, slot 1 is
    // dead when the rollout reaches it, the rollout aborts and rolls slot 0
    // back to the old model — the fleet never ends split across versions.
    router.kill_worker(1);
    const cluster::RolloutReport report =
        router.rolling_reload(path.string(), /*timeout_ms=*/60000);
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.error.empty());
    EXPECT_EQ(report.total, 2u);
    EXPECT_EQ(report.reloaded, 1u);
    EXPECT_EQ(report.rolled_back, 1u);
    EXPECT_EQ(report.model_version, 0u);

    // The surviving worker serves the OLD model version (rolled back), and
    // submits still resolve on the degraded fleet — zero stranded futures.
    const cluster::FleetStats fs = router.fleet_stats(/*timeout_ms=*/5000);
    EXPECT_TRUE(fs.accounting_ok()) << fs.to_json();
    ASSERT_GE(fs.workers.size(), 1u);
    for (const auto& w : fs.workers) {
        EXPECT_EQ(w.model_version, 1u) << "fleet left split across versions";
        EXPECT_EQ(w.reloads, 1u);
        EXPECT_EQ(w.rollbacks, 1u);
    }
    std::vector<std::future<ServeResult>> after;
    for (int i = 0; i < 4; ++i) {
        after.push_back(router.submit(5, frames.image(i)));
    }
    for (auto& f : after) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(120)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().status, ServeStatus::kOk);
    }
    router.stop();
}

}  // namespace
}  // namespace dronet
