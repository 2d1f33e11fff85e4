// INT8 quantization ablation — the paper's §V future-work item
// ("performance improvements by applying finer-level optimizations to reduce
// bitwidth precisions"). Compares the fp32 and calibrated int8 inference
// paths on the shipped DroNet checkpoint: weight format size, host latency,
// detection accuracy on the synthetic benchmark, and the paper's weighted
// composite Score (eq. 3) across the two precisions. The numbers land in
// docs/performance.md and docs/quantization.md.
#include <cstdio>

#include "bench_util.hpp"
#include "eval/fps_meter.hpp"
#include "eval/score.hpp"
#include "nn/clone.hpp"
#include "simd/dispatch.hpp"

int main() {
    using namespace dronet;
    using namespace dronet::bench;
    const DetectionDataset train_set = benchmark_train_set();
    const DetectionDataset test_set = benchmark_test_set(eval_count());

    Network net = load_or_train(ModelId::kDroNet, train_set);
    net.set_batch(1);
    net.resize_input(224, 224);

    EvalConfig ec;
    ec.score_threshold = 0.30f;

    // One clone per row, batch norm folded in both (int8 requires it), so
    // the rows differ only in precision.
    net.fold_batchnorm();
    Network fp32_net = clone_network(net);
    // Calibrated int8: calibrate on the benchmark's train split, evaluate
    // through the same evaluator as the float paths.
    Network int8_net = clone_network(net);
    std::vector<Image> calib;
    for (std::size_t i = 0; i < train_set.size() && i < 8; ++i) {
        calib.push_back(train_set.image(i));
    }
    int8_net.set_precision(Precision::kInt8, calibrate_int8(int8_net, calib, ec));
    int8_net.set_batch(1);

    const DetectionMetrics fp32_m = evaluate_detector(fp32_net, test_set, ec);
    const DetectionMetrics int8_m = evaluate_detector(int8_net, test_set, ec);

    std::printf("== fp32 / int8 ablation of DroNet (input 224, %s dispatch) ==\n",
                simd::to_string(simd::active_level()));
    std::printf("weight storage: %.1f KB float -> %.1f KB int8 (%.2fx smaller)\n",
                fp32_net.weight_bytes() / 1024.0, int8_net.weight_bytes() / 1024.0,
                static_cast<double>(fp32_net.weight_bytes()) / int8_net.weight_bytes());

    Tensor input(net.input_shape());
    const double fps_fp32 = measure_fps([&] { fp32_net.forward(input); }, 1, 3);
    const double fps_int8 = measure_fps([&] { int8_net.forward(input); }, 1, 3);

    // The paper's composite Score (eq. 3): metrics normalized by their max
    // across the compared configurations, FPS weighted 0.4.
    const ScoreInputs rows[] = {
        {static_cast<float>(fps_fp32), fp32_m.avg_iou(), fp32_m.sensitivity(),
         fp32_m.precision()},
        {static_cast<float>(fps_int8), int8_m.avg_iou(), int8_m.sensitivity(),
         int8_m.precision()},
    };
    const std::vector<float> scores = score_table(rows);

    std::printf("\n%-8s %8s %12s %12s %8s %8s\n", "path", "FPS", "sensitivity",
                "precision", "IoU", "Score");
    const char* names[] = {"fp32", "int8"};
    for (int i = 0; i < 2; ++i) {
        std::printf("%-8s %8.2f %11.1f%% %11.1f%% %8.3f %8.3f\n", names[i],
                    rows[i].fps, 100.0f * rows[i].sensitivity,
                    100.0f * rows[i].precision, rows[i].iou,
                    scores[static_cast<std::size_t>(i)]);
    }
    return 0;
}
