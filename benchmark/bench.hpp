// Shared pieces of the repository benchmark (README.md in this directory):
// run options, the in-memory span recorder, the seeded frame pool with its
// serial reference detections, and the per-layer probes every workload uses.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "detect/box.hpp"
#include "eval/evaluator.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"

namespace bench {

inline constexpr int kPoolFrames = 32;   ///< seeded 512x512 camera frames per run
inline constexpr int kFrameSize = 512;
inline constexpr int kCalibFrames = 8;   ///< int8 calibration frames
/// Accuracy is scored on one fixed 32-frame set (the pool of this seed), not
/// on the run's pool: over 32 seeded frames the seed-to-seed spread of
/// sensitivity and precision is 2-5%, wider than the accuracy bounds. For the
/// same reason int8 calibrates on fixed frames (the first 8 of seed + 1).
inline constexpr std::uint64_t kAccuracySeed = 0;
inline constexpr double kSloMs = 1000.0 / 30.0;  ///< one 30 fps frame interval

/// The reported latency percentile. The reference host runs a frame up to
/// 1.6x slower while its neighbours are busy, in stretches of milliseconds
/// to minutes, and the busy share changes from run to run: over ten runs
/// the quartiles of p50 lay up to 1.0 of its median apart. The fastest
/// hundredth of a run's frames ran at the code's own speed, which is what
/// a change to the code moves. README.md compares it with p5 and p50 over
/// sets of ten runs.
inline constexpr double kLatencyPercentile = 1;
/// Throughput is measured over every run of this many intervals between
/// consecutive completions: four full batches of the streams workloads.
/// Shorter runs read a batch's completions as one burst.
inline constexpr std::size_t kRateFrames = 16;
/// The percentile of those rates reported as throughput: the loop's
/// fastest stretches, for the reason given at kLatencyPercentile.
inline constexpr double kRatePercentile = 99;

/// How long each phase of one measured pass lasts.
struct Phases {
    double camera_s = 0;       ///< camera closed loop
    double open_s = 0;         ///< streams open loop at the nominal rate
    double closed_s = 0;       ///< streams closed loop, 16 frames outstanding
    double warm_nominal_s = 2; ///< streams warm-up at the nominal rate
    /// Set-ups per run; setup_s is their median. The camera loop runs one
    /// segment after each of its set-ups. A camera set-up takes ~0.1-0.7 s,
    /// a streams set-up ~2 s (its warm-up is 2 s at 60 fps). One camera-fp32
    /// run's set-ups took 0.12-0.25 s on the reference host, so the camera
    /// workloads take the median of many.
    int camera_setup_reps = 15;
    int streams_setup_reps = 3;
};

/// The run_seconds of BENCHMARK.json: the length every bound was set at.
inline constexpr double kRunSeconds = 20;

struct Options {
    std::string workload;      ///< empty = every workload
    std::uint64_t seed = 1;
    double seconds = kRunSeconds;
    bool trace = false;
    bool smoke = false;
    std::string commit = "unknown";
};

/// Phase lengths for one measured pass. A traced run makes two passes
/// (untraced, then traced) and gives each half of --seconds.
[[nodiscard]] Phases phases_for(const Options& opt);

// ---- span recorder ---------------------------------------------------------

[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] double ms_between(std::int64_t from_ns, std::int64_t to_ns) noexcept;

/// Spans kept in memory and written as Chrome trace-event JSON at exit.
/// Recording is a no-op while disabled, so untraced passes pay nothing.
class Trace {
  public:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t frame = -1;  ///< request identifier shared by a frame's spans
        std::int64_t id = 0;
        std::int64_t parent = 0;  ///< id of the enclosing span, 0 = none
        int lane = 0;             ///< trace row
    };

    void set_enabled(bool on) noexcept { enabled_ = on; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    [[nodiscard]] std::int64_t new_id() noexcept { return next_id_.fetch_add(1) + 1; }
    void add(Span span);
    /// Mean duration in ms of every span called `name` (0 when none).
    [[nodiscard]] double mean_ms(const std::string& name) const;
    void write_chrome(const std::filesystem::path& path,
                      const std::string& metadata_json) const;

  private:
    bool enabled_ = false;
    std::atomic<std::int64_t> next_id_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;  ///< guarded by mu_
};

// ---- results ---------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

using MetricNames = std::vector<std::pair<std::string, std::string>>;  ///< name, unit

/// What one workload run reports: the final JSON line plus human-readable
/// notes printed above it.
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] double get(const std::string& name) const;
    /// Records a failed check: the run is no longer correct.
    void fail_check(const std::string& why);
    /// Keeps exactly `names`, in that order; a metric the workload did not
    /// measure is reported as 0.
    void select(const MetricNames& names);
    [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] MetricNames end_to_end_names();
/// Every per-layer metric, for `net`'s layers.
[[nodiscard]] MetricNames per_layer_names(const dronet::Network& net);

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Completions per second over every kRateFrames + 1 consecutive
/// completions in `done_ns` (one rate over all of them when there are
/// fewer, none for fewer than two).
[[nodiscard]] std::vector<double> run_rates(std::vector<std::int64_t> done_ns);

/// Throughput of a closed loop from its run rates: their kRatePercentile.
[[nodiscard]] double throughput(const std::vector<double>& rates);

/// "<what>: latency p1 .. p50 .. p99 .. ms over N frames; ok within 33.3 ms:
/// S" -- the percentiles a user would also ask for, printed as a note: on the
/// reference host the median and tail move with the neighbours' load, too
/// far from run to run to carry a regression bound.
[[nodiscard]] std::string latency_note(const std::string& what,
                                       const std::vector<double>& latency_ms,
                                       std::uint64_t in_slo);

/// VmHWM of a process in MB (2^20 B); 0 if unreadable. pid 0 = this process.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

// ---- frames and references --------------------------------------------------

struct Frames {
    dronet::DetectionDataset pool;      ///< the run's seeded frames
    dronet::DetectionDataset accuracy;  ///< the fixed accuracy set
};

[[nodiscard]] dronet::DetectionDataset make_scenes(int count, std::uint64_t seed);
[[nodiscard]] Frames make_frames(std::uint64_t seed);

/// Exact equality: count, boxes, scores and classes compared bit for bit.
[[nodiscard]] bool same_detections(const dronet::Detections& a,
                                   const dronet::Detections& b);

/// The shipped DroNet checkpoint through load_pretrained at `input_size`,
/// batch 1. Throws when the checkpoint is missing: the benchmark never falls
/// back to random weights.
[[nodiscard]] dronet::Network load_dronet(int input_size);

using DetectFn = std::function<dronet::Detections(const dronet::Image&)>;

/// Serial detections for every image of `ds`.
[[nodiscard]] std::vector<dronet::Detections> detect_all(
    const dronet::DetectionDataset& ds, const DetectFn& detect);

/// Sets sensitivity, precision and mean_iou of `dets` against `ds`.
void add_accuracy(Outcome& out, const dronet::DetectionDataset& ds,
                  const std::vector<dronet::Detections>& dets,
                  const dronet::EvalConfig& post);

// ---- per-layer probes --------------------------------------------------------

/// detect_image taken apart into its public steps (resize_bilinear, each
/// layer's Layer::forward in order, RegionLayer::decode, filter_by_score +
/// nms), each recorded as a span. With `int8` set the forward is one
/// QuantizedNetwork::forward span. The result must equal detect_image's.
[[nodiscard]] dronet::Detections traced_detect(dronet::Network& net,
                                               dronet::QuantizedNetwork* int8,
                                               const dronet::Image& frame,
                                               const dronet::EvalConfig& post,
                                               Trace& trace, std::int64_t frame_id);

/// Sets image.resize_ms, nn.*, detect.decode_ms and detect.nms_ms. Unless the
/// trace already holds detect spans, runs traced_detect once over the pool
/// and checks it against `refs`. nn.forward_ms is an untraced forward.
void add_layer_metrics(Outcome& out, dronet::Network& net,
                       dronet::QuantizedNetwork* int8, const Frames& frames,
                       const std::vector<dronet::Detections>& refs,
                       const dronet::EvalConfig& post, Trace& trace);

/// Sets tensor.gemm_gflops.L<i> (fp32 gemm) or tensor.gemm_i8_gops.L<i>
/// (gemm_i8), each timed at conv layer i's own m x k x n.
void add_gemm_metrics(Outcome& out, const dronet::Network& net, bool int8);

// ---- workloads -----------------------------------------------------------------

/// camera-fp32 (int8 = false) and camera-int8: one caller, closed loop.
[[nodiscard]] Outcome run_camera(const Options& opt, bool int8, Trace& trace);

/// streams-local (fleet = false) and streams-fleet: open loop at the nominal
/// rate, then closed loop at capacity.
[[nodiscard]] Outcome run_streams(const Options& opt, bool fleet, Trace& trace);

}  // namespace bench
