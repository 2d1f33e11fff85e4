#include "nn/network.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "analysis/numerics.hpp"
#include "fault/fault.hpp"

namespace dronet {
namespace {

std::string guard_context(const char* pass, std::size_t index, const Layer& layer,
                          const char* tensor) {
    return std::string(pass) + " layer " + std::to_string(index) + " (" +
           layer.describe() + ") " + tensor;
}

}  // namespace

Network::Network(NetConfig config)
    : config_(config),
      schedule_(config.learning_rate, config.burn_in, config.lr_steps),
      rng_(config.seed) {
    if (config_.width <= 0 || config_.height <= 0 || config_.channels <= 0 ||
        config_.batch <= 0) {
        throw std::invalid_argument("Network: invalid [net] dimensions");
    }
}

Shape Network::next_input_shape() const {
    if (layers_.empty()) return input_shape();
    return layers_.back()->output_shape();
}

void Network::refresh_workspace() {
    std::size_t bytes = 0;
    for (const auto& l : layers_) bytes = std::max(bytes, l->workspace_bytes());
    // Grow-only: every conv forward fully rewrites the scratch it uses, so a
    // shrinking resize (batch toggling in the serving micro-batch path) need
    // not reallocate or zero.
    if (workspace_size_ < bytes) {
        workspace_ = std::make_unique<std::byte[]>(bytes);
        workspace_size_ = bytes;
    }
}

template <typename L, typename... Args>
L& Network::emplace_layer(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    refresh_workspace();
    return ref;
}

ConvolutionalLayer& Network::add_conv(const ConvConfig& config) {
    return emplace_layer<ConvolutionalLayer>(config, next_input_shape(), rng_);
}

MaxPoolLayer& Network::add_maxpool(const MaxPoolConfig& config) {
    return emplace_layer<MaxPoolLayer>(config, next_input_shape());
}

RegionLayer& Network::add_region(const RegionConfig& config) {
    return emplace_layer<RegionLayer>(config, next_input_shape());
}

UpsampleLayer& Network::add_upsample(int stride) {
    return emplace_layer<UpsampleLayer>(stride, next_input_shape());
}

RouteLayer& Network::add_route(std::vector<int> sources) {
    auto layer = std::make_unique<RouteLayer>(std::move(sources));
    RouteLayer& ref = *layer;
    layers_.push_back(std::move(layer));
    ref.setup_with_network(*this, static_cast<int>(layers_.size()) - 1);
    refresh_workspace();
    return ref;
}

AvgPoolLayer& Network::add_avgpool() {
    return emplace_layer<AvgPoolLayer>(next_input_shape());
}

DropoutLayer& Network::add_dropout(float probability) {
    return emplace_layer<DropoutLayer>(probability, next_input_shape(),
                                       rng_.engine()());
}

const Tensor& Network::forward(const Tensor& input, bool train) {
    if (layers_.empty()) throw std::logic_error("Network::forward: no layers");
    if (input.shape() != input_shape()) {
        throw std::invalid_argument("Network::forward: input shape " +
                                    input.shape().str() + " != expected " +
                                    input_shape().str());
    }
    DRONET_FAULT_POINT(fault::kSiteForward);
    profile::ForwardProfiler* prof = nullptr;
    if (profile::profiling_enabled()) {
        if (!profiler_) profiler_ = std::make_unique<profile::ForwardProfiler>();
        prof = profiler_.get();
    }
    profile::ScopedForwardTimer forward_timer(prof);
    // The input snapshot only feeds backward(); inference skips the copy.
    if (train) input_copy_ = input;
    const Tensor* x = train ? &input_copy_ : &input;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        Layer& l = *layers_[i];
        {
            profile::ScopedLayerTimer timer(prof, static_cast<int>(i),
                                            to_string(l.kind()), l.flops());
            l.forward(*x, *this, train);
        }
        if (numerics_checks_enabled()) {
            check_finite(l.output().span(), guard_context("forward", i, l, "output"));
        }
        x = &l.output();
    }
    return *x;
}

void Network::backward() {
    if (layers_.empty()) return;
    // Clear deltas of all but the last layer (whose delta holds dL/dOut, set
    // by the region layer's loss).
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i) layers_[i]->delta().zero();
    for (int i = static_cast<int>(layers_.size()) - 1; i >= 0; --i) {
        const Tensor& in = (i == 0) ? input_copy_ : layers_[static_cast<std::size_t>(i - 1)]->output();
        Tensor* in_delta = (i == 0) ? nullptr : &layers_[static_cast<std::size_t>(i - 1)]->delta();
        Layer& l = *layers_[static_cast<std::size_t>(i)];
        l.backward(in, in_delta, *this);
        if (numerics_checks_enabled()) {
            const auto idx = static_cast<std::size_t>(i);
            for (Param* p : l.params()) {
                check_finite(p->g, guard_context("backward", idx, l,
                                                 ("gradient of " + p->name).c_str()));
            }
            if (in_delta != nullptr) {
                check_finite(in_delta->span(),
                             guard_context("backward", idx, l, "propagated delta"));
            }
        }
    }
}

void Network::update() {
    SgdConfig sgd;
    sgd.learning_rate = schedule_.at(batch_num_);
    sgd.momentum = config_.momentum;
    sgd.decay = config_.decay;
    sgd.batch = config_.batch;
    for (auto& l : layers_) {
        for (Param* p : l->params()) sgd_step(*p, sgd);
    }
    ++batch_num_;
}

float Network::train_step(const Tensor& input,
                          std::vector<std::vector<GroundTruth>> truths) {
    RegionLayer* head = region();
    if (head == nullptr) throw std::logic_error("Network::train_step: no region layer");
    head->set_ground_truth(std::move(truths));
    forward(input, /*train=*/true);
    backward();
    update();
    return head->stats().loss;
}

void Network::resize_input(int width, int height) {
    if (width <= 0 || height <= 0) {
        throw std::invalid_argument("Network::resize_input: bad dimensions");
    }
    config_.width = width;
    config_.height = height;
    Shape in = input_shape();
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        if (auto* route = dynamic_cast<RouteLayer*>(layers_[i].get())) {
            route->setup_with_network(*this, static_cast<int>(i));
        } else {
            layers_[i]->setup(in);
        }
        in = layers_[i]->output_shape();
    }
    refresh_workspace();
}

void Network::set_batch(int batch) {
    if (batch <= 0) throw std::invalid_argument("Network::set_batch: bad batch");
    if (batch == config_.batch) return;
    config_.batch = batch;
    resize_input(config_.width, config_.height);
}

RegionLayer* Network::region() noexcept {
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        if (auto* r = dynamic_cast<RegionLayer*>(it->get())) return r;
    }
    return nullptr;
}

const RegionLayer* Network::region() const noexcept {
    return const_cast<Network*>(this)->region();
}

std::int64_t Network::total_flops() const {
    std::int64_t total = 0;
    for (const auto& l : layers_) total += l->flops();
    return total;
}

std::int64_t Network::total_params() const {
    std::int64_t total = 0;
    for (const auto& l : layers_) total += l->param_count();
    return total;
}

std::int64_t Network::total_memory_bytes() const {
    std::int64_t total = 0;
    for (const auto& l : layers_) total += l->memory_bytes();
    return total;
}

std::string Network::describe() const {
    std::ostringstream os;
    os << "input " << config_.width << "x" << config_.height << "x" << config_.channels
       << "\n";
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        os << i << ": " << layers_[i]->describe() << "\n";
    }
    os << "total params " << total_params() << ", flops/image " << total_flops() << "\n";
    return os.str();
}

void Network::fold_batchnorm() {
    for (auto& l : layers_) {
        if (auto* conv = dynamic_cast<ConvolutionalLayer*>(l.get())) {
            conv->fold_batchnorm();
        }
    }
}

void Network::set_precision(Precision precision, const Int8Calibration& calibration) {
    std::vector<ConvolutionalLayer*> convs;
    for (auto& l : layers_) {
        if (auto* conv = dynamic_cast<ConvolutionalLayer*>(l.get())) convs.push_back(conv);
    }
    if (precision == Precision::kInt8 && calibration.layer_count() != convs.size()) {
        throw std::invalid_argument(
            "Network::set_precision: calibration covers " +
            std::to_string(calibration.layer_count()) + " conv layers, the network has " +
            std::to_string(convs.size()));
    }
    for (std::size_t i = 0; i < convs.size(); ++i) {
        const float range = precision == Precision::kInt8 ? calibration.max_abs[i] : 0.0f;
        convs[i]->set_precision(precision, range);
    }
    precision_ = precision;
    calibration_ = precision == Precision::kInt8 ? calibration : Int8Calibration{};
    refresh_workspace();
}

std::size_t Network::weight_bytes() const {
    std::size_t total = 0;
    for (const auto& l : layers_) {
        if (const auto* conv = dynamic_cast<const ConvolutionalLayer*>(l.get())) {
            total += conv->weight_bytes();
        }
    }
    return total;
}

}  // namespace dronet
