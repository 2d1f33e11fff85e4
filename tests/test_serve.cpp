// Concurrency tests for the serving subsystem (src/serve): bounded-queue
// semantics under contention, latency-histogram math, the circuit-breaker
// policy on explicit time, network replication fidelity, and the determinism
// contract — a multi-worker DetectionService must produce bit-identical
// detections to the serial DetectionPipeline.
// These tests carry the `concurrency` ctest label and run under TSan in
// scripts/run_all.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "models/model_zoo.hpp"
#include "nn/clone.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/breaker.hpp"
#include "serve/detection_service.hpp"
#include "serve/serve_stats.hpp"
#include "tensor/rng.hpp"
#include "video/pipeline.hpp"

namespace dronet {
namespace {

using serve::BackpressurePolicy;
using serve::BoundedQueue;
using serve::Breaker;
using serve::DetectionService;
using serve::LatencyHistogram;
using serve::PushOutcome;
using serve::ServeResult;
using serve::ServeStatus;

// ---- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueue, FifoSingleThread) {
    BoundedQueue<int> q(4);
    std::optional<int> evicted;
    EXPECT_EQ(q.push(1, &evicted), PushOutcome::kEnqueued);
    EXPECT_EQ(q.push(2, &evicted), PushOutcome::kEnqueued);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, MultiProducerMultiConsumerDeliversEachItemOnce) {
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 500;
    BoundedQueue<int> q(8);
    std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int item = p * kPerProducer + i;
                ASSERT_EQ(q.push(std::move(item)), PushOutcome::kEnqueued);
            }
        });
    }
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            while (auto item = q.pop()) {
                seen[static_cast<std::size_t>(*item)].fetch_add(1);
            }
        });
    }
    for (auto& t : threads) t.join();
    q.close();
    for (auto& t : consumers) t.join();
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].load(), 1) << "item " << i;
    }
}

TEST(BoundedQueue, BlockPolicyBlocksProducerUntilSpace) {
    BoundedQueue<int> q(1, BackpressurePolicy::kBlock);
    ASSERT_EQ(q.push(1), PushOutcome::kEnqueued);
    std::atomic<bool> second_push_done{false};
    std::thread producer([&] {
        int item = 2;
        EXPECT_EQ(q.push(std::move(item)), PushOutcome::kEnqueued);
        second_push_done.store(true);
    });
    // The producer must be parked: the queue is full.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(second_push_done.load());
    EXPECT_EQ(q.pop(), 1);  // frees a slot
    producer.join();
    EXPECT_TRUE(second_push_done.load());
    EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueue, RejectPolicyFailsFastWhenFull) {
    BoundedQueue<int> q(2, BackpressurePolicy::kReject);
    EXPECT_EQ(q.push(1), PushOutcome::kEnqueued);
    EXPECT_EQ(q.push(2), PushOutcome::kEnqueued);
    int item = 3;
    EXPECT_EQ(q.push(std::move(item)), PushOutcome::kRejected);
    EXPECT_EQ(item, 3);  // not consumed
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 1);  // FIFO intact
}

TEST(BoundedQueue, DropOldestEvictsHeadAndReportsIt) {
    BoundedQueue<int> q(2, BackpressurePolicy::kDropOldest);
    EXPECT_EQ(q.push(1), PushOutcome::kEnqueued);
    EXPECT_EQ(q.push(2), PushOutcome::kEnqueued);
    std::optional<int> evicted;
    EXPECT_EQ(q.push(3, &evicted), PushOutcome::kEvictedOldest);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueue, PopBatchTakesWhatIsQueuedWithoutLinger) {
    serve::BoundedQueue<int> q(8);
    for (int i = 0; i < 5; ++i) (void)q.push(int(i));
    std::vector<int> out;
    EXPECT_EQ(q.pop_batch(out, 3, std::chrono::microseconds(0)), 3u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.pop_batch(out, 3, std::chrono::microseconds(0)), 2u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
    q.close();
    EXPECT_EQ(q.pop_batch(out, 3, std::chrono::microseconds(0)), 0u);
}

TEST(BoundedQueue, PopBatchLingersForLateItems) {
    serve::BoundedQueue<int> q(8);
    (void)q.push(1);
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        (void)q.push(2);
    });
    std::vector<int> out;
    // Generous linger so the late push lands inside the window even on a
    // loaded CI host.
    const std::size_t n = q.pop_batch(out, 2, std::chrono::microseconds(2'000'000));
    producer.join();
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(BoundedQueue, PopBatchReturnsRemainderWhenClosedMidLinger) {
    serve::BoundedQueue<int> q(8);
    (void)q.push(7);
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        q.close();
    });
    std::vector<int> out;
    const std::size_t n = q.pop_batch(out, 4, std::chrono::microseconds(5'000'000));
    closer.join();
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(BoundedQueue, PopBatchZeroLingerBlocksForFirstItemOnly) {
    serve::BoundedQueue<int> q(8);
    std::vector<int> out;
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        (void)q.push(42);
    });
    // Empty queue + zero linger: pop_batch still blocks for the first item
    // (like pop()) but returns the moment it has it, without lingering for a
    // fuller batch.
    const std::size_t n = q.pop_batch(out, 4, std::chrono::microseconds(0));
    producer.join();
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(out, (std::vector<int>{42}));
}

TEST(BoundedQueue, PopBatchExactlyAtMaxSkipsLinger) {
    serve::BoundedQueue<int> q(8);
    for (int i = 0; i < 3; ++i) (void)q.push(int(i));
    std::vector<int> out;
    const auto t0 = std::chrono::steady_clock::now();
    // The batch fills from what is already queued, so the (long) linger
    // window must not be entered at all.
    const std::size_t n = q.pop_batch(out, 3, std::chrono::microseconds(30'000'000));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
    EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(BoundedQueue, CloseMidLingerDeliversLatePushThenEndsEarly) {
    serve::BoundedQueue<int> q(8);
    (void)q.push(1);
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        (void)q.push(2);  // lands inside the linger window...
        q.close();        // ...then the queue stops mid-linger
    });
    std::vector<int> out;
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = q.pop_batch(out, 4, std::chrono::microseconds(30'000'000));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    closer.join();
    // Items pushed before the close are still delivered; the close ends the
    // linger well before its 30 s window instead of waiting it out.
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(out, (std::vector<int>{1, 2}));
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    // Closed and drained: the next batched pop reports end-of-stream.
    EXPECT_EQ(q.pop_batch(out, 4, std::chrono::microseconds(0)), 0u);
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
    BoundedQueue<int> q(2);
    std::atomic<bool> got_nullopt{false};
    std::thread consumer([&] {
        got_nullopt.store(!q.pop().has_value());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.close();
    consumer.join();
    EXPECT_TRUE(got_nullopt.load());
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
    BoundedQueue<int> q(1, BackpressurePolicy::kBlock);
    ASSERT_EQ(q.push(1), PushOutcome::kEnqueued);
    std::atomic<bool> got_closed{false};
    std::thread producer([&] {
        int item = 2;
        got_closed.store(q.push(std::move(item)) == PushOutcome::kClosed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.close();
    producer.join();
    EXPECT_TRUE(got_closed.load());
    // Already-queued items stay poppable after close.
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, PushAfterCloseReturnsClosed) {
    BoundedQueue<int> q(4);
    q.close();
    int item = 1;
    EXPECT_EQ(q.push(std::move(item)), PushOutcome::kClosed);
}

// ---- LatencyHistogram -------------------------------------------------------

TEST(LatencyHistogram, CountMeanMax) {
    LatencyHistogram h;
    h.record(1.0);
    h.record(2.0);
    h.record(3.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_NEAR(h.mean_ms(), 2.0, 1e-9);
    EXPECT_NEAR(h.max_ms(), 3.0, 1e-9);
}

TEST(LatencyHistogram, PercentilesBracketTrueValues) {
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 0.1);  // 0.1..100 ms
    // Log-bucketed percentiles carry one bucket (x1.33) of resolution error.
    EXPECT_NEAR(h.percentile(50), 50.0, 50.0 * 0.35);
    EXPECT_NEAR(h.percentile(99), 99.0, 99.0 * 0.35);
    EXPECT_GE(h.percentile(99), h.percentile(50));
    EXPECT_LE(h.percentile(100), h.max_ms() + 1e-9);
    EXPECT_EQ(LatencyHistogram{}.percentile(50), 0.0);
}

// ---- Breaker ----------------------------------------------------------------

using std::chrono::milliseconds;

/// Time point `ms` milliseconds after an arbitrary epoch.
Breaker::Clock::time_point at_ms(std::int64_t ms) {
    return Breaker::Clock::time_point{} + milliseconds(ms);
}

TEST(Breaker, TransitionsOnExplicitTime) {
    Breaker b(3, milliseconds(100));
    // Closed: a success zeroes the count, so only 3 failures in a row open it.
    EXPECT_FALSE(b.fail(at_ms(0)));
    EXPECT_FALSE(b.fail(at_ms(1)));
    b.succeed();
    EXPECT_FALSE(b.fail(at_ms(2)));
    EXPECT_FALSE(b.fail(at_ms(3)));
    EXPECT_EQ(b.poll(at_ms(4)), Breaker::State::kClosed);
    EXPECT_TRUE(b.fail(at_ms(10)));
    EXPECT_EQ(b.state(), Breaker::State::kOpen);
    EXPECT_EQ(b.opened_at(), at_ms(10));

    // Open: results change nothing, and the window runs from the opening.
    EXPECT_FALSE(b.fail(at_ms(20)));
    b.succeed();
    EXPECT_EQ(b.opened_at(), at_ms(10));
    EXPECT_EQ(b.poll(at_ms(109)), Breaker::State::kOpen);
    EXPECT_EQ(b.poll(at_ms(110)), Breaker::State::kHalfOpen);

    // Half-open: one failure re-opens it at once, with a fresh window...
    EXPECT_TRUE(b.fail(at_ms(120)));
    EXPECT_EQ(b.opened_at(), at_ms(120));
    EXPECT_EQ(b.poll(at_ms(219)), Breaker::State::kOpen);
    EXPECT_EQ(b.poll(at_ms(220)), Breaker::State::kHalfOpen);
    // ...and one success closes it with the count at zero.
    b.succeed();
    EXPECT_EQ(b.state(), Breaker::State::kClosed);
    EXPECT_FALSE(b.fail(at_ms(230)));
    EXPECT_FALSE(b.fail(at_ms(231)));
    EXPECT_TRUE(b.fail(at_ms(232)));

    // reset() closes an open breaker and forgets the count.
    b.reset();
    EXPECT_EQ(b.poll(at_ms(233)), Breaker::State::kClosed);
    EXPECT_FALSE(b.fail(at_ms(234)));
    b.reset();
    EXPECT_FALSE(b.fail(at_ms(235)));
    EXPECT_FALSE(b.fail(at_ms(236)));
    EXPECT_TRUE(b.fail(at_ms(237)));
}

/// The policy written out row by row, independently of Breaker: failures
/// count only while closed, an opening records its time, and nothing but a
/// poll past the window leaves the open state.
struct ReferenceBreaker {
    int threshold = 1;
    std::int64_t window_ms = 0;
    bool open = false;
    bool half_open = false;
    int failures = 0;
    std::int64_t opened_ms = 0;

    bool fail(std::int64_t now_ms) {
        if (open) return false;
        if (!half_open && ++failures < threshold) return false;
        open = true;
        half_open = false;
        failures = 0;
        opened_ms = now_ms;
        return true;
    }
    void succeed() {
        if (open) return;
        half_open = false;
        failures = 0;
    }
    void poll(std::int64_t now_ms) {
        if (open && now_ms - opened_ms >= window_ms) {
            open = false;
            half_open = true;
        }
    }
    [[nodiscard]] Breaker::State state() const {
        if (open) return Breaker::State::kOpen;
        return half_open ? Breaker::State::kHalfOpen : Breaker::State::kClosed;
    }
};

TEST(Breaker, SeededSchedulesMatchReferenceModel) {
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        Rng rng(seed);
        ReferenceBreaker ref;
        ref.threshold = rng.uniform_int(1, 4);
        ref.window_ms = rng.uniform_int(0, 49);
        Breaker b(ref.threshold, milliseconds(ref.window_ms));
        std::int64_t now = 0;
        for (int event = 0; event < 100; ++event) {
            now += rng.uniform_int(0, 29);
            switch (rng.uniform_int(0, 2)) {
                case 0:
                    ASSERT_EQ(b.fail(at_ms(now)), ref.fail(now))
                        << "seed " << seed << " event " << event;
                    break;
                case 1:
                    b.succeed();
                    ref.succeed();
                    break;
                default:
                    ref.poll(now);
                    ASSERT_EQ(b.poll(at_ms(now)), ref.state())
                        << "seed " << seed << " event " << event;
                    break;
            }
            ASSERT_EQ(b.state(), ref.state()) << "seed " << seed << " event " << event;
            if (ref.open) {
                ASSERT_EQ(b.opened_at(), at_ms(ref.opened_ms));
            }
        }
    }
}

TEST(CloneNetwork, ReplicaForwardIsBitIdentical) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.5f});
    Network replica = clone_network(net);
    EXPECT_EQ(replica.describe(), net.describe());
    EXPECT_EQ(replica.total_params(), net.total_params());

    Tensor input(net.input_shape());
    Rng rng(123);
    for (std::int64_t i = 0; i < input.size(); ++i) {
        input.data()[i] = rng.uniform(-1.0f, 1.0f);
    }
    const Tensor& out_a = net.forward(input, false);
    const Tensor& out_b = replica.forward(input, false);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::int64_t i = 0; i < out_a.size(); ++i) {
        ASSERT_EQ(out_a.data()[i], out_b.data()[i]) << "element " << i;
    }
}

// ---- DetectionService -------------------------------------------------------

PipelineConfig low_threshold_pipeline() {
    // A near-zero threshold makes random-weight networks emit detections, so
    // the determinism comparison below is non-vacuous without checkpoints.
    PipelineConfig pc;
    pc.eval.score_threshold = 5e-4f;
    pc.eval.nms_threshold = 0.45f;
    return pc;
}

TEST(DetectionService, FourWorkersMatchSerialPipelineBitIdentically) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.5f});
    const PipelineConfig pc = low_threshold_pipeline();
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(128), 16, /*seed=*/0x5eed);

    // Serial reference.
    Network serial_net = clone_network(net);
    DetectionPipeline serial(serial_net, pc);
    std::vector<Detections> expected;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        expected.push_back(serial.process(frames.image(i)).detections);
    }

    serve::ServiceConfig sc;
    sc.workers = 4;
    sc.queue_capacity = 8;
    sc.pipeline = pc;
    DetectionService service(net, sc);
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        futures.push_back(service.submit(frames.image(i)));
    }
    std::size_t nonempty = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const ServeResult r = futures[i].get();
        ASSERT_EQ(r.status, ServeStatus::kOk);
        EXPECT_EQ(r.frame.frame_index, static_cast<int>(i));
        const Detections& got = r.frame.detections;
        const Detections& want = expected[i];
        ASSERT_EQ(got.size(), want.size()) << "frame " << i;
        if (!want.empty()) ++nonempty;
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
    EXPECT_GT(nonempty, 0u) << "determinism test is vacuous: no detections at all";

    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.submitted, frames.size());
    EXPECT_EQ(snap.completed, frames.size());
    EXPECT_EQ(snap.dropped, 0u);
    EXPECT_EQ(snap.rejected, 0u);
    EXPECT_EQ(snap.total.count, frames.size());
}

TEST(DetectionService, DropOldestShedsFramesUnderOverload) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 1;
    sc.policy = BackpressurePolicy::kDropOldest;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 4, /*seed=*/7);

    constexpr int kSubmitted = 24;
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < kSubmitted; ++i) {
        futures.push_back(
            service.submit(frames.image(static_cast<std::size_t>(i) % frames.size())));
    }
    service.drain();
    int ok = 0, dropped = 0;
    for (auto& f : futures) {
        const ServeResult r = f.get();
        if (r.status == ServeStatus::kOk) ++ok;
        if (r.status == ServeStatus::kDropped) {
            EXPECT_TRUE(r.frame.detections.empty());
            ++dropped;
        }
    }
    EXPECT_EQ(ok + dropped, kSubmitted);
    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(ok));
    EXPECT_EQ(snap.dropped, static_cast<std::uint64_t>(dropped));
    EXPECT_EQ(snap.submitted, static_cast<std::uint64_t>(kSubmitted));
}

TEST(DetectionService, RejectPolicyResolvesShedFramesImmediately) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 1;
    sc.policy = BackpressurePolicy::kReject;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 4, /*seed=*/7);

    constexpr int kSubmitted = 24;
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < kSubmitted; ++i) {
        futures.push_back(
            service.submit(frames.image(static_cast<std::size_t>(i) % frames.size())));
    }
    service.drain();
    int ok = 0, rejected = 0;
    for (auto& f : futures) {
        const ServeResult r = f.get();
        (r.status == ServeStatus::kOk ? ok : rejected)++;
    }
    EXPECT_EQ(ok + rejected, kSubmitted);
    EXPECT_GT(ok, 0);
    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.completed + snap.rejected, static_cast<std::uint64_t>(kSubmitted));
}

// drain() waits for the accounting identity, and finish() counts a frame in
// the same critical section that makes its future ready: once drain()
// returns, every future is ready, shed and served alike, with no get().
TEST(DetectionService, DrainReturnsWithEveryFutureReady) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 1;
    sc.policy = BackpressurePolicy::kReject;  // quick submits overflow: some shed
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 8, /*seed=*/7);

    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        futures.push_back(service.submit(frames.image(i)));
    }
    service.drain();
    for (std::size_t i = 0; i < futures.size(); ++i) {
        EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)), std::future_status::ready)
            << "frame " << i;
    }
    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.in_flight, 0u);
    EXPECT_TRUE(snap.accounting_ok()) << snap.to_json();
    EXPECT_GT(snap.completed, 0u);  // the first frame always finds room
}

TEST(DetectionService, MicroBatchingMatchesSerialBitIdentically) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    const PipelineConfig pc = low_threshold_pipeline();
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 16, /*seed=*/0x5eed);

    Network serial_net = clone_network(net);
    DetectionPipeline serial(serial_net, pc);
    std::vector<Detections> expected;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        expected.push_back(serial.process(frames.image(i)).detections);
    }

    // One worker + fast submission guarantees a backlog, so real multi-frame
    // batches form (asserted below to keep the test non-vacuous).
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 8;
    sc.max_batch = 4;
    sc.batch_timeout_us = 1000;
    sc.pipeline = pc;
    DetectionService service(net, sc);
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        futures.push_back(service.submit(frames.image(i)));
    }
    std::size_t nonempty = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const ServeResult r = futures[i].get();
        ASSERT_EQ(r.status, ServeStatus::kOk);
        const Detections& got = r.frame.detections;
        const Detections& want = expected[i];
        ASSERT_EQ(got.size(), want.size()) << "frame " << i;
        if (!want.empty()) ++nonempty;
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
    EXPECT_GT(nonempty, 0u) << "determinism test is vacuous: no detections at all";

    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.completed, frames.size());
    EXPECT_GT(snap.batches, 0u);
    EXPECT_LT(snap.batches, frames.size());  // at least one multi-frame batch
    std::uint64_t frames_in_batches = 0;
    int max_size_seen = 0;
    for (const auto& [size, count] : snap.batch_sizes) {
        EXPECT_GE(size, 1);
        EXPECT_LE(size, sc.max_batch);
        frames_in_batches += static_cast<std::uint64_t>(size) * count;
        max_size_seen = std::max(max_size_seen, size);
    }
    EXPECT_EQ(frames_in_batches, snap.completed);
    EXPECT_GE(max_size_seen, 2);
}

TEST(DetectionService, BadFrameInBatchFailsOnlyItsOwnFuture) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 8;
    sc.max_batch = 4;
    sc.batch_timeout_us = 1000;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 4, /*seed=*/7);

    std::vector<std::future<ServeResult>> good;
    good.push_back(service.submit(frames.image(0)));
    std::future<ServeResult> bad =
        service.submit(Image(96, 96, 2));  // unsupported channel count
    good.push_back(service.submit(frames.image(1)));
    good.push_back(service.submit(frames.image(2)));
    service.drain();
    EXPECT_THROW((void)bad.get(), std::invalid_argument);
    for (auto& f : good) {
        const ServeResult r = f.get();
        EXPECT_EQ(r.status, ServeStatus::kOk);
    }
    // The bad frame counts as failed, and the failed batch forward counts as
    // no batch: both identities hold once drained.
    const serve::ServeStatsSnapshot snap = service.stats();
    EXPECT_EQ(snap.failed, 1u) << snap.to_json();
    EXPECT_EQ(snap.completed, good.size());
    EXPECT_TRUE(snap.accounting_ok()) << snap.to_json();
    std::uint64_t frames_in_batches = 0;
    for (const auto& [size, count] : snap.batch_sizes) {
        frames_in_batches += static_cast<std::uint64_t>(size) * count;
    }
    EXPECT_EQ(frames_in_batches, snap.completed) << snap.to_json();
}

TEST(DetectionService, RejectsInvalidBatchConfig) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.max_batch = 0;
    EXPECT_THROW(DetectionService(net, sc), std::invalid_argument);
    sc.max_batch = 2;
    sc.batch_timeout_us = -1;
    EXPECT_THROW(DetectionService(net, sc), std::invalid_argument);
}

TEST(ServeStats, BatchHistogramAccounting) {
    serve::ServeStats stats;
    stats.record_batch(1);
    stats.record_batch(4);
    stats.record_batch(1);
    const serve::ServeStatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.batches, 3u);
    ASSERT_EQ(snap.batch_sizes.size(), 2u);
    EXPECT_EQ(snap.batch_sizes[0], (std::pair<int, std::uint64_t>{1, 2}));
    EXPECT_EQ(snap.batch_sizes[1], (std::pair<int, std::uint64_t>{4, 1}));
    EXPECT_NE(snap.to_json().find("\"batch_sizes\":{\"1\":2,\"4\":1}"),
              std::string::npos);
}

TEST(DetectionService, SubmitAfterStopIsRejected) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    service.stop();
    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 1, /*seed=*/7);
    ServeResult r = service.submit(frames.image(0)).get();
    EXPECT_EQ(r.status, ServeStatus::kRejected);
}

TEST(DetectionService, StatsJsonHasStableSchema) {
    serve::ServeStats stats;
    stats.record_submitted();
    stats.record_completed({.queue_wait_ms = 0.5, .preprocess_ms = 1.0,
                            .forward_ms = 10.0, .postprocess_ms = 0.5});
    const std::string json = stats.snapshot().to_json();
    for (const char* key :
         {"\"submitted\":", "\"completed\":", "\"dropped\":", "\"rejected\":",
          "\"failed\":", "\"retries\":", "\"deadline_expired\":",
          "\"worker_restarts\":", "\"breaker_opens\":", "\"breaker_open_ms\":",
          "\"batches\":", "\"batch_sizes\":",
          "\"queue_depth\":", "\"in_flight\":", "\"uptime_ms\":",
          "\"throughput_fps\":", "\"queue_wait\":", "\"preprocess\":",
          "\"forward\":", "\"postprocess\":", "\"total\":", "\"p99_ms\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
    }
}

TEST(DetectionService, LiveGaugesTrackQueueInflightAndUptime) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 96, .filter_scale = 0.35f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.pipeline = low_threshold_pipeline();
    DetectionService service(net, sc);
    const serve::ServeStatsSnapshot before = service.stats();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(96), 4, /*seed=*/7);
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 4; ++i) futures.push_back(service.submit(frames.image(i)));
    for (auto& f : futures) (void)f.get();
    // A ready future is counted: in_flight reads 0 before any drain().
    EXPECT_EQ(service.stats().in_flight, 0u);
    service.drain();

    const serve::ServeStatsSnapshot after = service.stats();
    // Uptime is a live gauge: it grows between snapshots regardless of load.
    EXPECT_GE(after.uptime_ms, before.uptime_ms + 10);
    // Quiescent after drain: nothing queued, nothing unresolved.
    EXPECT_EQ(after.queue_depth, 0u);
    EXPECT_EQ(after.in_flight, 0u);
}

TEST(ServeStats, SelfHealingCountersAccumulate) {
    serve::ServeStats stats;
    serve::ServeStatsSnapshot& c = stats.counters;
    ++c.failed;
    c.retries += 2;
    ++c.deadline_expired;
    ++c.worker_restarts;
    ++c.breaker_opens;
    c.breaker_open_ms += 12.5;
    const serve::ServeStatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.failed, 1u);
    EXPECT_EQ(snap.retries, 2u);
    EXPECT_EQ(snap.deadline_expired, 1u);
    EXPECT_EQ(snap.worker_restarts, 1u);
    EXPECT_EQ(snap.breaker_opens, 1u);
    EXPECT_DOUBLE_EQ(snap.breaker_open_ms, 12.5);
    const std::string json = snap.to_json();
    EXPECT_NE(json.find("\"retries\":2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"breaker_opens\":1"), std::string::npos) << json;
}

}  // namespace
}  // namespace dronet
