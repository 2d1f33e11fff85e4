// streams-local and streams-fleet: two 30 fps cameras into the in-process
// DetectionService, or into a Router over spawned serve_worker processes.
//
// One submit thread (the caller) and one reaper thread, fed by a source
// thread that copies frames out of the pool ahead of their send time, as a
// camera hands over a captured frame. Open loop: every frame has a due time
// and is timed from it to the reaper's first sight of its ready future, so a
// stall delays every frame due behind it. Closed loop: 16 frames
// outstanding, throughput in ok frames per second.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <semaphore>
#include <set>
#include <system_error>
#include <thread>

#include "bench.hpp"
#include "cluster/protocol.hpp"
#include "cluster/router.hpp"
#include "serve/detection_service.hpp"

namespace bench {
namespace {

using namespace dronet;

constexpr int kSize = 160;            ///< network input of both streams workloads
constexpr int kWorkers = 2;           ///< service threads, or worker processes
constexpr int kMaxBatch = 4;
constexpr std::int64_t kLingerUs = 1000;
constexpr std::size_t kQueue = 64;
/// 2 x 30 = the 60 fps nominal rate: at most two thirds of the fleet's
/// capacity, which was 90-280 fps on the reference host as its speed
/// drifted, so the open loop measures service time rather than a queue that
/// grows whenever the host slows. At 90 fps the fleet's queue ran away in 2
/// of 10 runs.
constexpr int kCameras = 2;
constexpr double kCameraFps = 30;
constexpr double kJitterNs = 2e6;     ///< a camera's send time varies by up to this
constexpr int kOutstanding = 16;      ///< closed-loop frames in flight
constexpr std::size_t kFleetInflight = 8;
constexpr auto kSweep = std::chrono::microseconds(50);  ///< reaper poll period
constexpr std::size_t kLookahead = 8;                  ///< frames the source copies ahead
constexpr std::int64_t kLeadNs = 20'000'000;           ///< first send after the phase starts

/// One frame the generator sent, with what came back.
struct Sent {
    std::int64_t id = 0;
    int pool_index = 0;
    int lane = 0;  ///< camera (open loop) or slot (closed loop)
    std::int64_t due_ns = 0;
    std::int64_t submit_begin_ns = 0;
    std::int64_t submit_end_ns = 0;
    std::int64_t done_ns = 0;
    bool ok = false;  ///< status ok and detections equal the frame's reference
    serve::FrameTimings timings;
};

struct BatchCounts {
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::set<int> sizes;  ///< batch sizes seen (in-process service only)
};

/// What the generator drives.
struct Target {
    std::function<std::future<serve::ServeResult>(int client, Image frame)> submit;
    std::function<BatchCounts()> counts;
    bool fleet = false;
};

struct Phase {
    std::vector<Sent> sent;
    std::int64_t start_ns = 0;
    std::int64_t stop_ns = 0;
    BatchCounts before;
    BatchCounts after;
};

/// The load generator runs on the last CPU and the system under test (the
/// service's threads, or the router's and the worker processes) on the
/// others. Sharing CPUs, a send due while a woken service worker ran on the
/// generator's CPU waited out the worker's scheduler slice: 1-7 ms late on
/// the 4-vCPU reference host, in about a third of the runs. A closed loop
/// has no due times, so its generator runs on every CPU: the fleet's
/// Router::submit encodes and writes each request on the caller's thread,
/// and pinned to one CPU it measured that CPU's share of the host. Empty
/// sets (no split) with fewer than 3 CPUs.
struct CpuSplit {
    std::optional<cpu_set_t> generator;
    std::optional<cpu_set_t> system;
    std::optional<cpu_set_t> all;
};

CpuSplit split_cpus() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 3) return {};
    int last = CPU_SETSIZE - 1;
    while (!CPU_ISSET(last, &all)) --last;
    cpu_set_t generator;
    CPU_ZERO(&generator);
    CPU_SET(last, &generator);
    cpu_set_t system = all;
    CPU_CLR(last, &system);
    return {generator, system, all};
}

/// Sets the calling thread's CPU affinity, which the threads and processes
/// it starts inherit, until destroyed.
class Pinned {
  public:
    explicit Pinned(const std::optional<cpu_set_t>& set) {
        if (!set) return;
        CPU_ZERO(&saved_);
        if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0 ||
            ::sched_setaffinity(0, sizeof *set, &*set) != 0) {
            throw std::system_error(errno, std::generic_category(), "sched_setaffinity");
        }
        active_ = true;
    }
    ~Pinned() {
        if (active_) (void)::sched_setaffinity(0, sizeof saved_, &saved_);
    }
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;

  private:
    cpu_set_t saved_{};
    bool active_ = false;
};

/// One frame's spans: the submit call, the stages the service reports (laid
/// back to back after the submit call), and the rest until the reaper saw it.
void record_spans(Trace& trace, const Sent& s, bool fleet) {
    const std::int64_t root = trace.new_id();
    const auto add = [&](const std::string& name, std::int64_t from, std::int64_t to) {
        trace.add({name, from, std::max(from, to), s.id, trace.new_id(), root, s.lane});
    };
    add(fleet ? "cluster.submit" : "serve.submit", s.submit_begin_ns, s.submit_end_ns);
    std::int64_t t = s.submit_end_ns;
    const std::pair<const char*, double> stages[] = {
        {"serve.queue_wait", s.timings.queue_wait_ms},
        {"serve.preprocess", s.timings.preprocess_ms},
        {"serve.forward", s.timings.forward_ms},
        {"serve.postprocess", s.timings.postprocess_ms}};
    for (const auto& [name, ms] : stages) {
        const std::int64_t end = t + static_cast<std::int64_t>(ms * 1e6);
        add(name, t, end);
        t = end;
    }
    add(fleet ? "cluster.wire" : "serve.handoff", t, s.done_ns);
    trace.add({"frame", s.due_ns, s.done_ns, s.id, root, 0, s.lane});
}

class Generator {
  public:
    Generator(const Target& target, const DetectionDataset& pool,
              const std::vector<Detections>& refs, Trace& trace, CpuSplit cpus)
        : target_(target), pool_(pool), refs_(refs), trace_(trace), cpus_(std::move(cpus)) {}

    /// kCameras staggered cameras for `seconds`: camera c sends one frame in
    /// every 1/kCameraFps slot, c/kCameras of the slot in, plus a seeded
    /// jitter of up to kJitterNs, starting from a seeded pool frame. Frames
    /// of different cameras then rarely overlap in the service. Where they
    /// did (cameras at random points of the slot), an overlapping frame's
    /// latency depended on how fast the host ran two workers at once, which
    /// changed from run to run: the p99 of ten runs read 12-25 ms.
    Phase open_loop(double seconds, std::mt19937_64& rng) {
        const double period_ns = 1e9 / kCameraFps;
        std::uniform_real_distribution<double> jitter(0.0, kJitterNs);
        std::uniform_int_distribution<int> first(0, kPoolFrames - 1);
        struct Due {
            std::int64_t t;
            int camera;
            int index;
        };
        std::vector<Due> due;
        Phase phase;
        phase.start_ns = now_ns() + kLeadNs;  // time to copy the first frames
        int next_index[kCameras];
        for (int& i : next_index) i = first(rng);
        const auto slots = static_cast<int>(std::lround(seconds * kCameraFps));
        for (int slot = 0; slot < slots; ++slot) {
            for (int c = 0; c < kCameras; ++c) {
                const double t = (slot + static_cast<double>(c) / kCameras) * period_ns + jitter(rng);
                due.push_back({phase.start_ns + static_cast<std::int64_t>(t), c,
                               next_index[c]++ % kPoolFrames});
            }
        }
        std::sort(due.begin(), due.end(), [](const Due& a, const Due& b) { return a.t < b.t; });
        phase.stop_ns = phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
        run(phase, 0, [&](std::size_t k, Sent& s) {
            if (k >= due.size()) return false;
            s.due_ns = due[k].t;
            s.lane = due[k].camera;
            s.pool_index = due[k].index;
            return true;
        });
        return phase;
    }

    /// `outstanding` frames in flight for `seconds`.
    Phase closed_loop(double seconds, int outstanding, std::mt19937_64& rng) {
        const int start = std::uniform_int_distribution<int>(0, kPoolFrames - 1)(rng);
        Phase phase;
        phase.start_ns = now_ns() + kLeadNs;
        phase.stop_ns = phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
        run(phase, outstanding, [&](std::size_t k, Sent& s) {
            s.lane = static_cast<int>(k % static_cast<std::size_t>(outstanding));
            s.pool_index = static_cast<int>((static_cast<std::size_t>(start) + k) % kPoolFrames);
            return true;
        });
        return phase;
    }

    /// `n` frames back to back, copied beforehand so that they reach the
    /// queue together, then waits for all of them.
    Phase burst(int n, std::mt19937_64& rng) {
        std::uniform_int_distribution<int> pick(0, kPoolFrames - 1);
        std::vector<Pending> pending(static_cast<std::size_t>(n));
        std::vector<Image> frames;
        for (Pending& p : pending) {
            p.sent.id = ++next_id_;
            p.sent.pool_index = pick(rng);
            frames.push_back(pool_.image(static_cast<std::size_t>(p.sent.pool_index)));
        }
        Phase phase;
        phase.before = target_.counts();
        phase.start_ns = now_ns();
        for (std::size_t k = 0; k < pending.size(); ++k) {
            Sent& s = pending[k].sent;
            s.lane = static_cast<int>(k);
            s.due_ns = s.submit_begin_ns = now_ns();
            pending[k].result = target_.submit(s.lane + 1, std::move(frames[k]));
            s.submit_end_ns = now_ns();
        }
        for (Pending& p : pending) {
            p.result.wait();
            p.sent.done_ns = now_ns();
            check(p.sent, p.result);
            phase.sent.push_back(p.sent);
        }
        phase.stop_ns = now_ns();
        phase.after = target_.counts();
        return phase;
    }

  private:
    struct Pending {
        Sent sent;
        std::future<serve::ServeResult> result;
    };

    /// Submits frames as `next` schedules them (open loop: at each due time;
    /// closed loop: whenever fewer than `outstanding` are in flight, until
    /// phase.stop_ns) while the reaper collects and checks the results. The
    /// source thread copies scheduled frames up to kLookahead ahead, so a
    /// 3 MB copy never delays a send.
    template <typename Next>
    void run(Phase& phase, int outstanding, Next&& next) {
        const Pinned pin(outstanding > 0 ? cpus_.all : cpus_.generator);
        // Precise send times and sweeps for this thread and the two it
        // starts; the service's own threads keep the default timer slack.
        const int slack = ::prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        phase.before = target_.counts();
        std::counting_semaphore<kOutstanding> slots(outstanding);
        std::mutex mu;
        std::vector<Pending> incoming;  // guarded by mu
        bool submit_done = false;       // guarded by mu
        std::exception_ptr reaper_error;
        std::atomic<bool> reaper_failed{false};

        std::mutex staged_mu;
        std::condition_variable staged_cv;
        std::deque<std::pair<Sent, Image>> staged;  // guarded by staged_mu
        bool source_done = false;                   // guarded by staged_mu
        bool source_stop = false;                   // guarded by staged_mu
        std::exception_ptr source_error;
        std::thread source([&] {
            try {
                // Lowest priority: on the generator's CPU a copy must never
                // delay a send or a sweep.
                ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 19);
                for (std::size_t k = 0;; ++k) {
                    Sent s;
                    if (!next(k, s)) break;
                    Image frame = pool_.image(static_cast<std::size_t>(s.pool_index));
                    std::unique_lock lock(staged_mu);
                    staged_cv.wait(lock, [&] { return source_stop || staged.size() < kLookahead; });
                    if (source_stop) break;
                    staged.emplace_back(s, std::move(frame));
                    staged_cv.notify_all();
                }
            } catch (...) {
                source_error = std::current_exception();
            }
            std::lock_guard lock(staged_mu);
            source_done = true;
            staged_cv.notify_all();
        });

        std::thread reaper([&] {
            try {
                std::vector<Pending> live;
                while (true) {
                    bool finished = false;
                    {
                        std::lock_guard lock(mu);
                        for (Pending& p : incoming) live.push_back(std::move(p));
                        incoming.clear();
                        finished = submit_done;
                    }
                    for (auto it = live.begin(); it != live.end();) {
                        if (it->result.wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready) {
                            ++it;
                            continue;
                        }
                        it->sent.done_ns = now_ns();
                        check(it->sent, it->result);
                        if (trace_.enabled()) record_spans(trace_, it->sent, target_.fleet);
                        phase.sent.push_back(it->sent);
                        if (outstanding > 0) slots.release();
                        it = live.erase(it);
                    }
                    if (finished && live.empty()) return;
                    std::this_thread::sleep_for(kSweep);
                }
            } catch (...) {
                reaper_error = std::current_exception();
                reaper_failed = true;
            }
        });
        const auto finish = [&] {
            {
                std::lock_guard lock(staged_mu);
                source_stop = true;
            }
            staged_cv.notify_all();
            source.join();
            {
                std::lock_guard lock(mu);
                submit_done = true;
            }
            reaper.join();
            ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack), 0UL, 0UL, 0UL);
            if (source_error) std::rethrow_exception(source_error);
            if (reaper_error) std::rethrow_exception(reaper_error);
        };
        const auto sleep_until = [](std::int64_t ns) {
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
        };
        try {
            if (outstanding > 0) sleep_until(phase.start_ns);
            while (!reaper_failed) {
                std::pair<Sent, Image> item;
                {
                    std::unique_lock lock(staged_mu);
                    staged_cv.wait(lock, [&] { return source_done || !staged.empty(); });
                    if (staged.empty()) break;
                    item = std::move(staged.front());
                    staged.pop_front();
                }
                staged_cv.notify_all();
                auto& [s, frame] = item;
                if (outstanding > 0) {
                    while (!slots.try_acquire_for(std::chrono::milliseconds(10))) {
                        if (reaper_failed) break;
                    }
                    if (reaper_failed) break;
                    s.due_ns = now_ns();
                    if (s.due_ns >= phase.stop_ns) break;
                } else {
                    sleep_until(s.due_ns);
                }
                s.id = ++next_id_;
                s.submit_begin_ns = now_ns();
                std::future<serve::ServeResult> result =
                    target_.submit(s.lane + 1, std::move(frame));
                s.submit_end_ns = now_ns();
                std::lock_guard lock(mu);
                incoming.push_back({s, std::move(result)});
            }
        } catch (...) {
            finish();
            throw;
        }
        finish();
        phase.after = target_.counts();
    }

    void check(Sent& s, std::future<serve::ServeResult>& result) const {
        try {
            const serve::ServeResult r = result.get();
            s.timings = r.timings;
            s.ok = r.status == serve::ServeStatus::kOk &&
                   same_detections(r.frame.detections,
                                   refs_[static_cast<std::size_t>(s.pool_index)]);
        } catch (const std::exception&) {
            s.ok = false;
        }
    }

    const Target& target_;
    const DetectionDataset& pool_;
    const std::vector<Detections>& refs_;
    Trace& trace_;
    CpuSplit cpus_;
    std::int64_t next_id_ = 0;
};

/// Counts a phase's frames into the run totals.
void tally(Outcome& out, const Phase& phase) {
    out.attempted += phase.sent.size();
    for (const Sent& s : phase.sent) out.failed += s.ok ? 0 : 1;
}

void note_phase(Outcome& out, const char* name, const Phase& phase) {
    std::vector<double> late;
    for (const Sent& s : phase.sent) late.push_back(ms_between(s.due_ns, s.submit_begin_ns));
    const std::uint64_t bad = static_cast<std::uint64_t>(std::count_if(
        phase.sent.begin(), phase.sent.end(), [](const Sent& s) { return !s.ok; }));
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: sent %zu ok %zu failed %llu; generator late p50 %.3f p99 %.3f "
                  "max %.3f ms",
                  name, phase.sent.size(), phase.sent.size() - bad,
                  static_cast<unsigned long long>(bad), percentile(late, 50),
                  percentile(late, 99), percentile(late, 100));
    out.notes.push_back(line);
}

/// Bursts until every batch size 1..kMaxBatch has run, then 2 s at the
/// nominal rate: a batch size first seen inside a timed phase pays its
/// allocations there. The fleet gets two rounds only: the router writes one
/// frame at a time, so its workers see batches of one or two whatever the
/// burst.
void warm_up(Outcome& out, const Target& target, Generator& gen, double nominal_s,
             std::mt19937_64& rng) {
    const auto all_sizes = [&] {
        const std::set<int> seen = target.counts().sizes;
        for (int b = 1; b <= kMaxBatch; ++b) {
            if (seen.count(b) == 0) return false;
        }
        return true;
    };
    const int rounds = target.fleet ? 2 : 25;
    for (int round = 0; round < rounds && (target.fleet || !all_sizes()); ++round) {
        for (const int b : {1, 2, 3, 4, 8}) tally(out, gen.burst(b, rng));
    }
    if (!target.fleet && !all_sizes()) {
        std::string seen;
        for (const int b : target.counts().sizes) seen += " " + std::to_string(b);
        out.notes.push_back("warm-up bursts did not reach every batch size 1-4:" + seen);
    }
    tally(out, gen.open_loop(nominal_s, rng));
}

/// Each frame's latency: from its due time to the reaper's sight of it.
std::vector<double> due_to_done_ms(const Phase& p) {
    std::vector<double> ms;
    ms.reserve(p.sent.size());
    for (const Sent& s : p.sent) ms.push_back(ms_between(s.due_ns, s.done_ns));
    return ms;
}

double closed_fps(const Phase& p) {
    std::vector<std::int64_t> done;
    for (const Sent& s : p.sent) {
        if (s.ok) done.push_back(s.done_ns);
    }
    return throughput(run_rates(std::move(done)));
}

/// serve.* and cluster.* per-layer metrics of one traced phase.
void add_stage_metrics(Outcome& out, const Phase& p, bool fleet, const char* suffix) {
    std::vector<double> submit, queue, pre, fwd, post, rest;
    double busy_ms = 0;
    std::int64_t last_done = p.start_ns;
    for (const Sent& s : p.sent) {
        submit.push_back(ms_between(s.submit_begin_ns, s.submit_end_ns));
        last_done = std::max(last_done, s.done_ns);
        if (!s.ok) continue;
        const serve::FrameTimings& t = s.timings;
        queue.push_back(t.queue_wait_ms);
        pre.push_back(t.preprocess_ms);
        fwd.push_back(t.forward_ms);
        post.push_back(t.postprocess_ms);
        busy_ms += t.preprocess_ms + t.forward_ms + t.postprocess_ms;
        // Client latency runs from the submit call; the in-process remainder
        // after the submit call and the stages is the future handoff, the
        // fleet remainder is the wire round trip including the submit call.
        const double client_ms = ms_between(s.submit_begin_ns, s.done_ns);
        const double submit_ms = ms_between(s.submit_begin_ns, s.submit_end_ns);
        rest.push_back(client_ms - t.total_ms() - (fleet ? 0.0 : submit_ms));
    }
    const std::string sfx = suffix;
    const std::string tier = fleet ? "cluster" : "serve";
    out.set(tier + ".submit_ms_p99" + sfx, percentile(submit, 99), "ms");
    out.set(fleet ? "cluster.wire_ms" + sfx : "serve.handoff_ms" + sfx, mean(rest), "ms");
    out.set("serve.queue_wait_ms" + sfx, mean(queue), "ms");
    out.set("serve.preprocess_ms" + sfx, mean(pre), "ms");
    out.set("serve.forward_ms" + sfx, mean(fwd), "ms");
    out.set("serve.postprocess_ms" + sfx, mean(post), "ms");
    const std::uint64_t batches = p.after.batches - p.before.batches;
    const std::uint64_t frames = p.after.completed - p.before.completed;
    out.set("serve.batch_size_mean" + sfx,
            batches > 0 ? static_cast<double>(frames) / static_cast<double>(batches) : 0.0,
            "frames");
    const double wall_ms = ms_between(p.start_ns, last_done);
    out.set("serve.worker_busy_share" + sfx, wall_ms > 0 ? busy_ms / (kWorkers * wall_ms) : 0.0,
            "share");
}

serve::ServiceConfig service_config() {
    serve::ServiceConfig sc;
    sc.workers = kWorkers;
    sc.queue_capacity = kQueue;
    sc.policy = serve::BackpressurePolicy::kBlock;
    sc.max_batch = kMaxBatch;
    sc.batch_timeout_us = kLingerUs;
    return sc;
}

cluster::RouterConfig router_config() {
    cluster::RouterConfig rc;
    rc.worker_argv = {DRONET_BENCH_WORKER_PATH,
                      "--workers", "1",
                      "--size", std::to_string(kSize),
                      "--capacity", std::to_string(kQueue),
                      "--batch", std::to_string(kMaxBatch),
                      "--batch-timeout-us", std::to_string(kLingerUs),
                      "--gemm-threads", "1"};
    rc.workers = kWorkers;
    rc.worker_inflight_limit = kFleetInflight;
    return rc;
}

/// Times encode_detect_request / decode_detect_request on pool frames and
/// checks the round trip is exact.
void add_codec_metrics(Outcome& out, const DetectionDataset& pool) {
    std::vector<double> enc, dec;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < 16; ++i) {
        const Image& frame = pool.image(i % pool.size());
        const std::int64_t t0 = now_ns();
        const std::vector<std::uint8_t> payload = cluster::encode_detect_request(frame);
        const std::int64_t t1 = now_ns();
        const Image back = cluster::decode_detect_request(payload);
        const std::int64_t t2 = now_ns();
        enc.push_back(ms_between(t0, t1));
        dec.push_back(ms_between(t1, t2));
        bytes = payload.size();
        if (back.width() != frame.width() || back.height() != frame.height() ||
            back.channels() != frame.channels() ||
            std::memcmp(back.data(), frame.data(), frame.size() * sizeof(float)) != 0) {
            out.fail_check("detect-request codec round trip changed the frame");
        }
    }
    out.set("cluster.request_bytes", static_cast<double>(bytes), "B");
    out.set("cluster.encode_ms", mean(enc), "ms");
    out.set("cluster.decode_ms", mean(dec), "ms");
}

}  // namespace

Outcome run_streams(const Options& opt, bool fleet, Trace& trace) {
    const Phases ph = phases_for(opt);
    const Frames frames = make_frames(opt.seed);
    const serve::ServiceConfig sc = service_config();
    const EvalConfig& post = sc.pipeline.eval;
    Outcome out;
    std::mt19937_64 rng(opt.seed ^ 0x5354524541ull);
    const CpuSplit cpus = split_cpus();
    const Pinned system_cpus(cpus.system);  // inherited by the service or fleet

    // Serial reference with the service's thresholds; every served result
    // must equal its frame's entry exactly, whatever batch it rode in.
    Network serial = load_dronet(kSize);
    const DetectFn detect = [&](const Image& im) { return detect_image(serial, im, post); };
    const std::vector<Detections> refs = detect_all(frames.pool, detect);
    const std::vector<Detections> accuracy_refs = detect_all(frames.accuracy, detect);

    std::unique_ptr<serve::DetectionService> service;
    std::unique_ptr<cluster::Router> router;
    Target target;
    target.fleet = fleet;
    target.submit = [&](int client, Image frame) {
        return fleet ? router->submit(static_cast<std::uint64_t>(client), std::move(frame))
                     : service->submit(std::move(frame));
    };
    target.counts = [&] {
        BatchCounts c;
        if (fleet) {
            for (const cluster::WireStats& w : router->fleet_stats().workers) {
                c.completed += w.completed;
                c.batches += w.batches;
            }
        } else {
            const serve::ServeStatsSnapshot s = service->stats();
            c.completed = s.completed;
            c.batches = s.batches;
            for (const auto& [size, count] : s.batch_sizes) c.sizes.insert(size);
        }
        return c;
    };
    Generator gen(target, frames.pool, refs, trace, cpus);

    std::vector<double> setup_s;
    for (int rep = 0; rep < ph.streams_setup_reps; ++rep) {
        if (router) router->stop();  // the previous set-up's fleet, untimed
        router.reset();
        service.reset();
        const std::int64_t t0 = now_ns();
        if (fleet) {
            router = std::make_unique<cluster::Router>(router_config());
        } else {
            service = std::make_unique<serve::DetectionService>(load_dronet(kSize), sc);
        }
        warm_up(out, target, gen, ph.warm_nominal_s, rng);
        setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    }

    const auto measure = [&](bool traced) {
        trace.set_enabled(traced);
        std::pair<Phase, Phase> p{gen.open_loop(ph.open_s, rng),
                                  gen.closed_loop(ph.closed_s, kOutstanding, rng)};
        trace.set_enabled(false);
        tally(out, p.first);
        tally(out, p.second);
        const std::string tag = traced ? " (traced)" : "";
        note_phase(out, ("nominal 60 fps" + tag).c_str(), p.first);
        note_phase(out, ("capacity 16 outstanding" + tag).c_str(), p.second);
        const auto in_slo = static_cast<std::uint64_t>(
            std::count_if(p.first.sent.begin(), p.first.sent.end(), [](const Sent& s) {
                return s.ok && ms_between(s.due_ns, s.done_ns) <= kSloMs;
            }));
        out.notes.push_back(latency_note("nominal 60 fps" + tag, due_to_done_ms(p.first), in_slo));
        return p;
    };
    const auto untraced = measure(false);
    const double fps = closed_fps(untraced.second);

    double rss = peak_rss_mb();
    if (fleet) {
        router->drain();
        std::string parts = "peak rss MB: router " + std::to_string(std::lround(rss));
        for (std::size_t slot = 0; slot < router->slots(); ++slot) {
            const double w = peak_rss_mb(router->worker_pid(slot));
            parts += ", worker " + std::to_string(std::lround(w));
            rss += w;
        }
        out.notes.push_back(parts);
    }

    std::optional<std::pair<Phase, Phase>> traced;
    if (opt.trace) traced = measure(true);

    // Accounting: every frame sent was completed, none shed.
    if (fleet) {
        router->drain();
        const cluster::FleetStats fs = router->fleet_stats();
        if (!fs.accounting_ok() || fs.ok != fs.submitted) {
            out.fail_check("fleet accounting: " + fs.to_json());
        }
        router->stop();
    } else {
        service->drain();
        const serve::ServeStatsSnapshot s = service->stats();
        if (s.completed != s.submitted) out.fail_check("service accounting: " + s.to_json());
        service->stop();
    }

    if (traced) {
        // The serial probes run after the service or fleet has stopped.
        trace.set_enabled(true);
        add_stage_metrics(out, traced->first, fleet, ".nominal");
        add_stage_metrics(out, traced->second, fleet, ".capacity");
        out.set("trace_overhead", 1.0 - closed_fps(traced->second) / fps, "share");
        if (fleet) add_codec_metrics(out, frames.pool);
        add_layer_metrics(out, serial, nullptr, frames, refs, post, trace);
        add_gemm_metrics(out, serial, /*int8=*/false);
        out.select(per_layer_names(serial));
        return out;
    }
    out.set("throughput_fps", fps, "fps");
    out.set("latency_p1_ms", percentile(due_to_done_ms(untraced.first), kLatencyPercentile),
            "ms");
    add_accuracy(out, frames.accuracy, accuracy_refs, post);
    out.set("peak_rss_mb", rss, "MB");
    out.set("setup_s", median(setup_s), "s");
    out.select(end_to_end_names());
    return out;
}

}  // namespace bench
