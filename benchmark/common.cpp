#include "bench.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <random>
#include <sstream>
#include <stdexcept>

#include "detect/nms.hpp"
#include "eval/metrics.hpp"
#include "image/resize.hpp"
#include "models/pretrained.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_i8.hpp"

namespace bench {

using namespace dronet;

Phases phases_for(const Options& opt) {
    Phases p;
    if (opt.smoke) {
        p.camera_s = p.open_s = p.closed_s = p.warm_nominal_s = 1;
        p.camera_setup_reps = p.streams_setup_reps = 1;
        return p;
    }
    const double s = opt.trace ? opt.seconds / 2 : opt.seconds;
    p.camera_s = s;
    p.open_s = s / 2;
    p.closed_s = s / 2;
    if (opt.trace) p.camera_setup_reps = p.streams_setup_reps = 1;  // no setup_s
    return p;
}

// ---- span recorder ---------------------------------------------------------

std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double ms_between(std::int64_t from_ns, std::int64_t to_ns) noexcept {
    return static_cast<double>(to_ns - from_ns) / 1e6;
}

void Trace::add(Span span) {
    if (!enabled_) return;
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(span));
}

double Trace::mean_ms(const std::string& name) const {
    std::lock_guard lock(mu_);
    double total = 0;
    std::size_t n = 0;
    for (const Span& s : spans_) {
        if (s.name != name) continue;
        total += ms_between(s.start_ns, s.end_ns);
        ++n;
    }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
}

void Trace::write_chrome(const std::filesystem::path& path,
                         const std::string& metadata_json) const {
    std::lock_guard lock(mu_);
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace " + path.string());
    const std::int64_t origin = spans_.empty() ? 0 : std::min_element(
        spans_.begin(), spans_.end(),
        [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; })->start_ns;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
       << ",\"traceEvents\":[";
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const auto us = [&](std::int64_t ns) {
            const auto r = std::to_chars(buf, buf + sizeof buf,
                                         static_cast<double>(ns) / 1e3);
            return std::string(buf, r.ptr);
        };
        const auto dot = s.name.find('.');
        os << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
           << s.name.substr(0, dot) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
           << ",\"ts\":" << us(s.start_ns - origin) << ",\"dur\":"
           << us(s.end_ns - s.start_ns) << ",\"args\":{\"frame\":" << s.frame
           << ",\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
}

// ---- results ---------------------------------------------------------------

void Outcome::set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

double Outcome::get(const std::string& name) const {
    for (const Metric& m : metrics) {
        if (m.name == name) return m.value;
    }
    return 0.0;
}

void Outcome::fail_check(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
}

void Outcome::select(const MetricNames& names) {
    std::vector<Metric> kept;
    kept.reserve(names.size());
    for (const auto& [name, unit] : names) kept.push_back({name, get(name), unit});
    metrics = std::move(kept);
}

std::string Outcome::to_json() const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        const auto r = std::to_chars(buf, buf + sizeof buf, v);
        os << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << std::string(buf, r.ptr) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

MetricNames end_to_end_names() {
    return {{"throughput_fps", "fps"}, {"latency_p1_ms", "ms"}, {"sensitivity", "ratio"},
            {"precision", "ratio"},    {"mean_iou", "ratio"},   {"peak_rss_mb", "MB"},
            {"setup_s", "s"}};
}

MetricNames per_layer_names(const Network& net) {
    MetricNames names = {{"image.resize_ms", "ms"}, {"nn.forward_ms", "ms"}};
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        names.emplace_back("nn.L" + std::to_string(i) + "_ms", "ms");
    }
    names.emplace_back("nn.layer_coverage", "ratio");
    const MetricNames gemms = {{"tensor.gemm_gflops.L", "GFLOP/s"},
                               {"tensor.gemm_i8_gops.L", "GOP/s"}};
    for (const auto& [prefix, unit] : gemms) {
        for (std::size_t i = 0; i < net.num_layers(); ++i) {
            if (net.layer(static_cast<int>(i)).kind() != LayerKind::kConvolutional) continue;
            names.emplace_back(prefix + std::to_string(i), unit);
        }
    }
    names.emplace_back("detect.decode_ms", "ms");
    names.emplace_back("detect.nms_ms", "ms");
    for (const char* phase : {"nominal", "capacity"}) {
        const std::string p = std::string(".") + phase;
        names.emplace_back("serve.submit_ms_p99" + p, "ms");
        names.emplace_back("serve.queue_wait_ms" + p, "ms");
        names.emplace_back("serve.preprocess_ms" + p, "ms");
        names.emplace_back("serve.forward_ms" + p, "ms");
        names.emplace_back("serve.postprocess_ms" + p, "ms");
        names.emplace_back("serve.handoff_ms" + p, "ms");
        names.emplace_back("serve.batch_size_mean" + p, "frames");
        names.emplace_back("serve.worker_busy_share" + p, "share");
        names.emplace_back("cluster.submit_ms_p99" + p, "ms");
        names.emplace_back("cluster.wire_ms" + p, "ms");
    }
    names.emplace_back("cluster.request_bytes", "B");
    names.emplace_back("cluster.encode_ms", "ms");
    names.emplace_back("cluster.decode_ms", "ms");
    names.emplace_back("trace_overhead", "share");
    return names;
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double total = 0;
    for (const double v : values) total += v;
    return total / static_cast<double>(values.size());
}

std::vector<double> run_rates(std::vector<std::int64_t> done_ns) {
    std::sort(done_ns.begin(), done_ns.end());
    const std::size_t n = done_ns.size();
    // A run of k intervals between k + 1 completions.
    const std::size_t k = std::min(kRateFrames, n > 0 ? n - 1 : 0);
    std::vector<double> rates;
    for (std::size_t i = 0; k > 0 && i + k < n; ++i) {
        const std::int64_t span = std::max<std::int64_t>(done_ns[i + k] - done_ns[i], 1);
        rates.push_back(static_cast<double>(k) * 1e9 / static_cast<double>(span));
    }
    return rates;
}

double throughput(const std::vector<double>& rates) { return percentile(rates, kRatePercentile); }

std::string latency_note(const std::string& what, const std::vector<double>& latency_ms,
                         std::uint64_t in_slo) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: latency p%g %.3f p50 %.3f p99 %.3f ms over %zu frames; ok within "
                  "%.1f ms: %.4f",
                  what.c_str(), kLatencyPercentile, percentile(latency_ms, kLatencyPercentile),
                  percentile(latency_ms, 50), percentile(latency_ms, 99), latency_ms.size(),
                  kSloMs,
                  latency_ms.empty() ? 0.0
                                     : static_cast<double>(in_slo) /
                                           static_cast<double>(latency_ms.size()));
    return line;
}

double peak_rss_mb(pid_t pid) {
    const std::string path =
        pid > 0 ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
        }
    }
    return 0.0;
}

// ---- frames and references --------------------------------------------------

DetectionDataset make_scenes(int count, std::uint64_t seed) {
    return generate_dataset(benchmark_scene_config(kFrameSize), count, seed);
}

Frames make_frames(std::uint64_t seed) {
    // The two sets are generated side by side: ~50 ms a frame, before any timing.
    std::future<DetectionDataset> accuracy;
    if (seed != kAccuracySeed) {
        accuracy = std::async(std::launch::async, make_scenes, kPoolFrames, kAccuracySeed);
    }
    Frames f;
    f.pool = make_scenes(kPoolFrames, seed);
    f.accuracy = accuracy.valid() ? accuracy.get() : f.pool;
    return f;
}

bool same_detections(const Detections& a, const Detections& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Detection& x = a[i];
        const Detection& y = b[i];
        if (x.box.x != y.box.x || x.box.y != y.box.y || x.box.w != y.box.w ||
            x.box.h != y.box.h || x.objectness != y.objectness ||
            x.class_id != y.class_id || x.class_prob != y.class_prob) {
            return false;
        }
    }
    return true;
}

Network load_dronet(int input_size) {
    std::optional<Network> net = load_pretrained(ModelId::kDroNet, input_size);
    if (!net) {
        throw std::runtime_error(
            "weights/DroNet.weights not found; run from the repository root");
    }
    net->set_batch(1);
    return std::move(*net);
}

std::vector<Detections> detect_all(const DetectionDataset& ds, const DetectFn& detect) {
    std::vector<Detections> out;
    out.reserve(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) out.push_back(detect(ds.image(i)));
    return out;
}

void add_accuracy(Outcome& out, const DetectionDataset& ds,
                  const std::vector<Detections>& dets, const EvalConfig& post) {
    DetectionMetrics total;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        total += match_detections(dets[i], ds.truths(i), post.match_iou);
    }
    out.set("sensitivity", total.sensitivity(), "ratio");
    out.set("precision", total.precision(), "ratio");
    out.set("mean_iou", total.avg_iou(), "ratio");
}

// ---- per-layer probes --------------------------------------------------------

Detections traced_detect(Network& net, QuantizedNetwork* int8, const Image& frame,
                         const EvalConfig& post, Trace& trace, std::int64_t frame_id) {
    const std::int64_t root = trace.new_id();
    const auto span = [&](const std::string& name, std::int64_t from, std::int64_t to) {
        trace.add({name, from, to, frame_id, trace.new_id(), root, 0});
    };
    net.set_batch(1);
    const Shape in = net.input_shape();
    const std::int64_t t0 = now_ns();
    Tensor input(in);
    if (frame.width() == in.w && frame.height() == in.h) {
        frame.copy_to_batch(input, 0);
    } else {
        resize_bilinear(frame, in.w, in.h).copy_to_batch(input, 0);
    }
    std::int64_t mark = now_ns();
    span("image.resize", t0, mark);
    if (int8 != nullptr) {
        int8->forward(input);
        const std::int64_t t = now_ns();
        span("nn.forward", mark, t);
        mark = t;
    } else {
        const Tensor* x = &input;
        for (std::size_t i = 0; i < net.num_layers(); ++i) {
            Layer& layer = net.layer(static_cast<int>(i));
            layer.forward(*x, net, /*train=*/false);
            x = &layer.output();
            const std::int64_t t = now_ns();
            span("nn.L" + std::to_string(i), mark, t);
            mark = t;
        }
    }
    const Detections raw = net.region()->decode(0);
    const std::int64_t decoded = now_ns();
    span("detect.decode", mark, decoded);
    Detections out = nms(filter_by_score(raw, post.score_threshold), post.nms_threshold);
    const std::int64_t end = now_ns();
    span("detect.nms", decoded, end);
    trace.add({"detect", t0, end, frame_id, root, 0, 0});
    return out;
}

void add_layer_metrics(Outcome& out, Network& net, QuantizedNetwork* int8,
                       const Frames& frames, const std::vector<Detections>& refs,
                       const EvalConfig& post, Trace& trace) {
    if (trace.mean_ms("detect") == 0.0) {
        const bool traced = trace.enabled();
        for (const bool record : {false, traced}) {  // the first pass warms caches
            trace.set_enabled(record);
            for (std::size_t i = 0; i < frames.pool.size(); ++i) {
                const Detections d = traced_detect(net, int8, frames.pool.image(i), post,
                                                   trace, -static_cast<std::int64_t>(i) - 1);
                ++out.attempted;
                if (!same_detections(d, refs[i])) {
                    ++out.failed;
                    out.fail_check("layer-by-layer decomposition differs from the serial "
                                   "detections on pool frame " + std::to_string(i));
                }
            }
        }
    }
    net.set_batch(1);
    const Shape in = net.input_shape();
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < frames.pool.size(); ++i) {
        inputs.emplace_back(in);
        resize_bilinear(frames.pool.image(i), in.w, in.h).copy_to_batch(inputs.back(), 0);
    }
    std::vector<double> forward;
    for (int pass = 0; pass < 3; ++pass) {
        for (const Tensor& x : inputs) {
            const std::int64_t t0 = now_ns();
            if (int8 != nullptr) {
                int8->forward(x);
            } else {
                net.forward(x, /*train=*/false);
            }
            if (pass > 0) forward.push_back(ms_between(t0, now_ns()));  // pass 0 warms
        }
    }
    const double forward_ms = mean(forward);
    out.set("nn.forward_ms", forward_ms, "ms");
    out.set("image.resize_ms", trace.mean_ms("image.resize"), "ms");
    out.set("detect.decode_ms", trace.mean_ms("detect.decode"), "ms");
    out.set("detect.nms_ms", trace.mean_ms("detect.nms"), "ms");
    if (int8 != nullptr) return;  // int8 conv layers are not separately callable
    double layers_ms = 0;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        const double ms = trace.mean_ms("nn.L" + std::to_string(i));
        out.set("nn.L" + std::to_string(i) + "_ms", ms, "ms");
        layers_ms += ms;
    }
    out.set("nn.layer_coverage", forward_ms > 0 ? layers_ms / forward_ms : 0.0, "ratio");
}

namespace {

/// Median wall time of `call` in seconds, over at least 5 calls and 30 ms.
template <typename F>
double time_call(F&& call) {
    call();
    call();
    std::vector<double> secs;
    const std::int64_t start = now_ns();
    while (secs.size() < 5 || now_ns() - start < 30'000'000) {
        const std::int64_t t0 = now_ns();
        call();
        secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    return median(std::move(secs));
}

}  // namespace

void add_gemm_metrics(Outcome& out, const Network& net, bool int8) {
    std::mt19937_64 rng(0x9e37);
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        const auto* conv =
            dynamic_cast<const ConvolutionalLayer*>(&net.layer(static_cast<int>(i)));
        if (conv == nullptr) continue;
        const int m = conv->config().filters;
        const int k = conv->input_shape().c * conv->config().ksize * conv->config().ksize;
        const int n = static_cast<int>(conv->output_shape().hw());
        const auto a_len = static_cast<std::size_t>(m) * static_cast<std::size_t>(k);
        const auto b_len = static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
        const auto c_len = static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
        const double ops = 2.0 * m * n * k;
        const std::string suffix = ".L" + std::to_string(i);
        if (int8) {
            std::uniform_int_distribution<int> dist(-127, 127);
            std::vector<std::int8_t> a(a_len), b(b_len);
            for (auto& v : a) v = static_cast<std::int8_t>(dist(rng));
            for (auto& v : b) v = static_cast<std::int8_t>(dist(rng));
            std::vector<std::int32_t> c(c_len);
            const double s = time_call(
                [&] { gemm_i8(m, n, k, a.data(), k, b.data(), n, c.data(), n); });
            out.set("tensor.gemm_i8_gops" + suffix, ops / s / 1e9, "GOP/s");
        } else {
            std::uniform_real_distribution<float> dist(0.0f, 1.0f);
            std::vector<float> a(a_len), b(b_len), c(c_len);
            for (auto& v : a) v = dist(rng);
            for (auto& v : b) v = dist(rng);
            const double s = time_call([&] {
                gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                     c.data(), n);
            });
            out.set("tensor.gemm_gflops" + suffix, ops / s / 1e9, "GFLOP/s");
        }
    }
}

}  // namespace bench
