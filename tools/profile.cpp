// profile — per-layer forward-pass cost breakdown for any model.
//
// Loads a darknet cfg (or a zoo model), runs warmup + timed forward passes
// with the per-layer profiler enabled, and prints where the time went:
// wall-time, share-of-total and achieved GFLOP/s per layer, plus the
// end-to-end forward time the per-layer numbers are checked against
// (the JSON "coverage" field; see docs/performance.md).
//
// Usage:
//   profile models/DroNet.cfg [--json] [--runs N] [--warmup N]
//           [--threads N] [--size S] [--weights FILE]
//   profile --model DroNet --size 512 ...
//
// --threads N sets intra-op GEMM/im2col parallelism (persistent pool).
// With --model, a <name>.meta beside --weights sets the filter_scale and
// classes the checkpoint was trained with.
// --size resizes the fully-convolutional network before profiling.
#include <cstdio>
#include <filesystem>
#include <string>

#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "nn/cfg.hpp"
#include "nn/weights_io.hpp"
#include "profile/profiler.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace {

// One line per parsed flag; tests/test_tools_cli.cpp asserts the parser and
// this text never drift apart.
constexpr const char* kUsage =
    "usage: profile <model.cfg | --model NAME> [options]\n"
    "  --model NAME    model zoo entry (alternative to a cfg path)\n"
    "  --weights FILE  load weights from a checkpoint file (with --model, a\n"
    "                  .meta beside it sets the trained width and classes)\n"
    "  --runs N        timed forward passes (default 10)\n"
    "  --warmup N      untimed warm-up passes (default 2)\n"
    "  --size S        square input resolution\n"
    "  --threads N     intra-op GEMM/im2col threads\n"
    "  --json          machine-readable report\n"
    "  --help          print this help\n";

}  // namespace

int main(int argc, char** argv) {
    using namespace dronet;
    std::string cfg_path, model_name, weights_path;
    int runs = 10;
    int warmup = 2;
    int size = 0;
    bool json = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
                return argv[++i];
            };
            if (a == "--model") model_name = next();
            else if (a == "--weights") weights_path = next();
            else if (a == "--runs") runs = std::stoi(next());
            else if (a == "--warmup") warmup = std::stoi(next());
            else if (a == "--size") size = std::stoi(next());
            else if (a == "--threads") set_gemm_threads(std::stoi(next()));
            else if (a == "--json") json = true;
            else if (a == "--help") { std::printf("%s", kUsage); return 0; }
            else if (a.rfind("--", 0) == 0) throw std::runtime_error("unknown flag " + a);
            else cfg_path = a;
        }
        if ((cfg_path.empty() && model_name.empty()) || runs < 1) {
            std::fprintf(stderr, "%s", kUsage);
            return 2;
        }

        const int input_size = size > 0 ? size : 512;
        ModelOptions options{.input_size = input_size};
        if (cfg_path.empty() && !weights_path.empty()) {
            // A checkpoint's .meta records the width it was trained at; the
            // zoo default would not match the weight file's byte count. The
            // resolution stays --size (default 512) rather than the meta's
            // training resolution, as for a zoo model without a checkpoint.
            const auto meta_path = std::filesystem::path(weights_path).replace_extension(".meta");
            if (std::filesystem::exists(meta_path)) {
                options = model_options(read_meta(meta_path), input_size);
            }
        }
        Network net = cfg_path.empty()
                          ? build_model(model_from_string(model_name), options)
                          : load_cfg_file(cfg_path);
        if (!weights_path.empty()) load_weights(net, weights_path);
        net.set_batch(1);
        if (size > 0 && net.config().width != size) net.resize_input(size, size);

        Tensor input(net.input_shape());
        Rng rng(0xD20);
        rng.fill_uniform(input.span(), 0.0f, 1.0f);

        profile::set_profiling(true);
        for (int i = 0; i < warmup; ++i) net.forward(input);
        if (net.profiler() != nullptr) net.profiler()->reset();
        for (int i = 0; i < runs; ++i) net.forward(input);

        const profile::ForwardProfiler* prof = net.profiler();
        if (prof == nullptr) {
            std::fprintf(stderr, "profiler produced no data\n");
            return 1;
        }
        if (json) {
            std::printf("%s\n", prof->report_json().c_str());
        } else {
            std::printf("# %s  input %dx%dx%d  %d runs  %d gemm thread(s)\n",
                        cfg_path.empty() ? model_name.c_str() : cfg_path.c_str(),
                        net.config().width, net.config().height,
                        net.config().channels, runs, gemm_threads());
            std::printf("%s", prof->report_text().c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "profile: %s\n", e.what());
        return 1;
    }
}
