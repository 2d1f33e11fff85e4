// detect — command-line detector: runs a model over PPM images and writes
// annotated copies plus darknet-format detection text.
//
// Usage:
//   detect [--model DroNet] [--size 512] [--weights FILE] [--cfg FILE]
//          [--thresh 0.3] [--nms 0.45] [--letterbox] [--threads N]
//          [--batch B] [--int8] [--profile] image.ppm [more.ppm...]
//
// --threads N enables intra-op GEMM parallelism (tensor/gemm.hpp) for the
// forward pass; serving-mode (inter-frame) parallelism lives in tools/serve_bench.
// --batch B > 1 runs the image list through detect_images in chunks of B
// (one forward pass per chunk; per-image results are bit-identical to B=1).
// --int8 serves through the calibrated quantized conv path: the loaded images
// double as the calibration set (docs/quantization.md).
// --profile prints a per-layer timing table after all images (docs/performance.md).
//
// With --cfg the network is built from a darknet cfg file; otherwise the
// named zoo model is used and, when no --weights is given, the pretrained
// checkpoint from the weights/ directory (if present).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/visualize.hpp"
#include "eval/evaluator.hpp"
#include "image/ppm.hpp"
#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "nn/cfg.hpp"
#include "nn/weights_io.hpp"
#include "profile/profiler.hpp"
#include "tensor/gemm.hpp"

namespace {

// One line per parsed flag; tests/test_tools_cli.cpp asserts the parser and
// this text never drift apart.
constexpr const char* kUsage =
    "usage: detect [options] image.ppm [more.ppm...]\n"
    "  --model NAME     model zoo entry to build (default DroNet)\n"
    "  --cfg FILE       build the network from a darknet cfg instead\n"
    "  --weights FILE   load weights from a checkpoint file\n"
    "  --size N         square input resolution (default 512)\n"
    "  --thresh T       detection score threshold\n"
    "  --nms T          non-max-suppression IoU threshold\n"
    "  --letterbox      aspect-preserving letterbox resize\n"
    "  --threads N      intra-op GEMM threads\n"
    "  --batch B        images per forward pass\n"
    "  --int8           calibrated int8 conv path (calibrates on the input images)\n"
    "  --profile        per-layer timing table after all images\n"
    "  --help           print this help\n";

int run(int argc, char** argv) {
    using namespace dronet;
    std::string model_name = "DroNet";
    std::string weights_path, cfg_path;
    int size = 512;
    int batch = 1;
    bool int8 = false;
    EvalConfig post;
    std::vector<std::string> images;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--model") model_name = next();
        else if (a == "--weights") weights_path = next();
        else if (a == "--cfg") cfg_path = next();
        else if (a == "--size") size = std::stoi(next());
        else if (a == "--thresh") post.score_threshold = std::stof(next());
        else if (a == "--nms") post.nms_threshold = std::stof(next());
        else if (a == "--letterbox") post.use_letterbox = true;
        else if (a == "--threads") set_gemm_threads(std::stoi(next()));
        else if (a == "--batch") batch = std::max(1, std::stoi(next()));
        else if (a == "--int8") int8 = true;
        else if (a == "--profile") profile::set_profiling(true);
        else if (a == "--help") { std::printf("%s", kUsage); return 0; }
        else if (a.rfind("--", 0) == 0) throw std::runtime_error("unknown flag " + a);
        else images.push_back(a);
    }
    if (images.empty()) {
        std::fprintf(stderr, "%s", kUsage);
        return 2;
    }

    Network net = [&]() -> Network {
        if (!cfg_path.empty()) return load_cfg_file(cfg_path);
        const ModelId id = model_from_string(model_name);
        if (weights_path.empty()) {
            if (auto pre = load_pretrained(id, 0)) {
                std::printf("# loaded pretrained %s checkpoint\n", model_name.c_str());
                return std::move(*pre);
            }
            std::printf("# warning: no weights; using random initialization\n");
        }
        return build_model(id, {.input_size = size});
    }();
    if (!weights_path.empty()) load_weights(net, weights_path);
    net.set_batch(1);
    if (net.config().width != size && size > 0) {
        // Honor --size when it divides the model stride.
        try {
            net.resize_input(size, size);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "cannot resize to %d: %s\n", size, e.what());
        }
    }

    if (int8) {
        // Calibrate on the input imagery itself — the most representative
        // sample set this tool can get (docs/quantization.md).
        std::vector<Image> calib_frames;
        for (std::size_t i = 0; i < images.size() && i < 8; ++i) {
            calib_frames.push_back(read_ppm(images[i]));
        }
        const std::size_t float_bytes = net.weight_bytes();
        net.set_precision(Precision::kInt8, calibrate_int8(net, calib_frames, post));
        std::printf("# int8: calibrated on %zu frame(s); conv weights %zu -> %zu bytes\n",
                    calib_frames.size(), float_bytes, net.weight_bytes());
        // --profile reports the detection forwards, not the calibration one.
        if (net.profiler() != nullptr) net.profiler()->reset();
    }

    for (std::size_t start = 0; start < images.size();
         start += static_cast<std::size_t>(batch)) {
        const std::size_t count =
            std::min(static_cast<std::size_t>(batch), images.size() - start);
        std::vector<Image> chunk;
        chunk.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            chunk.push_back(read_ppm(images[start + i]));
        }
        const std::vector<Detections> results = detect_images(net, chunk, post);
        for (std::size_t i = 0; i < count; ++i) {
            const std::string& path = images[start + i];
            const Detections& dets = results[i];
            std::printf("%s: %zu detections\n", path.c_str(), dets.size());
            for (const Detection& d : dets) {
                std::printf("  class %d  score %.3f  box %.4f %.4f %.4f %.4f\n",
                            d.class_id, d.score(), d.box.x, d.box.y, d.box.w, d.box.h);
            }
            const std::string out =
                std::filesystem::path(path).stem().string() + "_detections.ppm";
            write_ppm(draw_detections(chunk[i], dets), out);
            std::printf("  annotated image -> %s\n", out.c_str());
        }
    }
    if (profile::profiling_enabled() && net.profiler() != nullptr) {
        std::printf("%s", net.profiler()->report_text().c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    // Every failure mode below this point — unreadable or corrupt image,
    // missing cfg, truncated checkpoint (the loader reports expected vs
    // actual bytes) — surfaces as one actionable line and a non-zero exit,
    // never an unhandled exception.
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "detect: error: %s\n", e.what());
        return 1;
    }
}
