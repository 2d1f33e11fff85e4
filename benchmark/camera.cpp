// camera-fp32 and camera-int8: the paper's deployment, one camera feeding one
// core. One caller in a closed loop; the serve and cluster layers are
// bypassed. 224 is the shipped checkpoint's stand-in for paper-scale 512.
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/detector.hpp"
#include "models/pretrained.hpp"

namespace bench {
namespace {

using namespace dronet;

constexpr int kSize = 224;
constexpr int kWarmFrames = 20;  ///< detections per set-up before timing

/// A Detector carrying the shipped checkpoint: the options load_pretrained
/// reads from the checkpoint's meta file, then its weights.
Detector make_detector(const EvalConfig& post) {
    const auto dir = find_weights_dir(ModelId::kDroNet);
    if (!dir) throw std::runtime_error("weights/DroNet.weights not found");
    const PretrainedMeta meta = read_meta(*dir / "DroNet.meta");
    Detector detector({.model = ModelId::kDroNet,
                       .input_size = kSize,
                       .classes = meta.classes,
                       .filter_scale = meta.filter_scale,
                       .post = post});
    detector.load_weights(*dir / "DroNet.weights");
    return detector;
}

/// One closed loop's frames; segments of a loop add to it.
struct Loop {
    std::vector<double> latency_ms;
    std::vector<double> rates;  ///< run_rates of each segment's ok frames
    std::uint64_t ok = 0;
    std::uint64_t in_slo = 0;
};

}  // namespace

Outcome run_camera(const Options& opt, bool int8, Trace& trace) {
    const Phases ph = phases_for(opt);
    const EvalConfig post;
    const Frames frames = make_frames(opt.seed);
    std::vector<Image> calibration;
    if (int8) {
        const DetectionDataset ds = make_scenes(kCalibFrames, kAccuracySeed + 1);
        for (std::size_t i = 0; i < ds.size(); ++i) calibration.push_back(ds.image(i));
    }
    Outcome out;

    std::optional<Detector> detector;
    std::unique_ptr<Network> int8_source;
    std::unique_ptr<QuantizedNetwork> int8_net;
    const DetectFn detect = [&](const Image& im) {
        return int8 ? detect_image_timed(*int8_source, im, post, nullptr, int8_net.get())
                    : detector->detect(im);
    };
    std::vector<double> setup_s;
    const auto set_up = [&] {
        int8_net.reset();
        int8_source.reset();
        detector.reset();
        const std::int64_t t0 = now_ns();
        if (int8) {
            int8_source = std::make_unique<Network>(load_dronet(kSize));
            const Int8Calibration calib = calibrate_int8(*int8_source, calibration, post);
            int8_net = std::make_unique<QuantizedNetwork>(*int8_source, calib);
        } else {
            detector.emplace(make_detector(post));
        }
        for (int i = 0; i < kWarmFrames; ++i) {
            (void)detect(frames.pool.image(static_cast<std::size_t>(i % kPoolFrames)));
        }
        setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    };
    const auto net = [&]() -> Network& { return int8 ? *int8_source : detector->network(); };
    set_up();

    // fp32 references come from detect_image on a second load_pretrained
    // network (the serial path); the int8 reference is each frame's first
    // int8 result, which every repeat, and every later set-up, must equal.
    std::vector<Detections> refs;
    std::vector<Detections> accuracy_refs;
    if (int8) {
        refs = detect_all(frames.pool, detect);
        accuracy_refs = detect_all(frames.accuracy, detect);
    } else {
        Network serial = load_dronet(kSize);
        const DetectFn reference = [&](const Image& im) { return detect_image(serial, im, post); };
        refs = detect_all(frames.pool, reference);
        accuracy_refs = detect_all(frames.accuracy, reference);
    }

    std::int64_t n = 0;  // frames sent so far; picks the next pool frame
    const auto loop = [&](bool traced, double seconds, Loop& l) {
        trace.set_enabled(traced);
        const std::int64_t start = now_ns();
        const auto stop = start + static_cast<std::int64_t>(seconds * 1e9);
        std::vector<std::int64_t> ok_at_ns;
        std::int64_t end = start;
        std::uint64_t sent = 0;
        for (; end < stop; ++n, ++sent) {
            const auto idx = static_cast<std::size_t>((opt.seed + static_cast<std::uint64_t>(n)) %
                                                      kPoolFrames);
            const Image& frame = frames.pool.image(idx);
            const std::int64_t t0 = now_ns();
            const Detections dets =
                traced ? traced_detect(net(), int8_net.get(), frame, post, trace, n) : detect(frame);
            end = now_ns();
            const double ms = ms_between(t0, end);
            const bool ok = same_detections(dets, refs[idx]);
            l.latency_ms.push_back(ms);
            if (ok) ok_at_ns.push_back(end);
            l.in_slo += ok && ms <= kSloMs ? 1 : 0;
        }
        const std::vector<double> rates = run_rates(ok_at_ns);
        l.rates.insert(l.rates.end(), rates.begin(), rates.end());
        l.ok += ok_at_ns.size();
        const std::uint64_t bad = sent - ok_at_ns.size();
        out.attempted += sent;
        out.failed += bad;
        if (bad > 0) {
            out.fail_check(std::to_string(bad) + (traced ? " traced" : "") +
                           " frames differ from the reference detections");
        }
    };
    const auto note = [&](const std::string& name, const Loop& l) {
        out.notes.push_back(name + ": frames " + std::to_string(l.latency_ms.size()) + " ok " +
                            std::to_string(l.ok) + " failed " +
                            std::to_string(l.latency_ms.size() - l.ok));
        out.notes.push_back(latency_note(name, l.latency_ms, l.in_slo));
    };

    // The set-ups are spread over the run, one before each of its segments,
    // so that setup_s samples the host at several moments, as the loop does.
    Loop untraced;
    for (int rep = 0; rep < ph.camera_setup_reps; ++rep) {
        if (rep > 0) set_up();
        loop(false, ph.camera_s / ph.camera_setup_reps, untraced);
    }
    note("closed loop", untraced);

    if (opt.trace) {
        Loop traced;
        loop(true, ph.camera_s, traced);
        note("traced loop", traced);
        out.set("trace_overhead", 1.0 - throughput(traced.rates) / throughput(untraced.rates),
                "share");
        add_layer_metrics(out, net(), int8_net.get(), frames, refs, post, trace);
        add_gemm_metrics(out, net(), int8);
        out.select(per_layer_names(net()));
        return out;
    }
    out.set("throughput_fps", throughput(untraced.rates), "fps");
    out.set("latency_p1_ms", percentile(untraced.latency_ms, kLatencyPercentile), "ms");
    add_accuracy(out, frames.accuracy, accuracy_refs, post);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("setup_s", median(setup_s), "s");
    out.select(end_to_end_names());
    return out;
}

}  // namespace bench
