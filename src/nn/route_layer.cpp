#include "nn/route_layer.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/network.hpp"
#include "tensor/ops.hpp"

namespace dronet {

RouteLayer::RouteLayer(std::vector<int> sources) : sources_(std::move(sources)) {
    if (sources_.empty()) throw std::invalid_argument("RouteLayer: no sources");
}

void RouteLayer::setup(const Shape&) {
    throw std::logic_error("RouteLayer::setup: use setup_with_network");
}

void RouteLayer::setup_with_network(Network& net, int self_index) {
    int channels = 0;
    Shape first{};
    bool have_first = false;
    for (int src : sources_) {
        if (src < 0 || src >= self_index) {
            throw std::invalid_argument("RouteLayer: source index out of range");
        }
        const Shape& s = net.layer(src).output_shape();
        if (!have_first) {
            first = s;
            have_first = true;
        } else if (s.h != first.h || s.w != first.w || s.n != first.n) {
            throw std::invalid_argument("RouteLayer: spatial shape mismatch between sources");
        }
        channels += s.c;
    }
    input_shape_ = first;
    output_shape_ = Shape{first.n, channels, first.h, first.w};
    output_.resize(output_shape_);
}

std::string RouteLayer::describe() const {
    std::ostringstream os;
    os << "route";
    for (int s : sources_) os << " " << s;
    os << " -> " << output_shape_.w << "x" << output_shape_.h << "x" << output_shape_.c;
    return os.str();
}

void RouteLayer::forward(const Tensor&, Network& net, bool) {
    for (int b = 0; b < output_shape_.n; ++b) {
        std::int64_t offset = 0;
        for (int src : sources_) {
            const Tensor& src_out = net.layer(src).output();
            const std::int64_t chw = src_out.shape().chw();
            const float* from = src_out.data() + static_cast<std::int64_t>(b) * chw;
            float* to = output_.data() + static_cast<std::int64_t>(b) * output_shape_.chw() + offset;
            std::copy(from, from + chw, to);
            offset += chw;
        }
    }
}

void RouteLayer::backward(const Tensor&, Tensor*, Network& net) {
    // Scatter this layer's delta back into each source layer's delta.
    for (int b = 0; b < output_shape_.n; ++b) {
        std::int64_t offset = 0;
        for (int src : sources_) {
            Tensor& src_delta = net.layer(src).delta();
            const std::int64_t chw = src_delta.shape().chw();
            const float* from =
                delta_.data() + static_cast<std::int64_t>(b) * output_shape_.chw() + offset;
            float* to = src_delta.data() + static_cast<std::int64_t>(b) * chw;
            for (std::int64_t i = 0; i < chw; ++i) to[i] += from[i];
            offset += chw;
        }
    }
}

}  // namespace dronet
