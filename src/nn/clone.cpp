#include "nn/clone.hpp"

#include <stdexcept>
#include <string>

#include "nn/cfg.hpp"

namespace dronet {

Network clone_network(const Network& src) {
    Network dst = parse_cfg(network_to_cfg(src));
    if (dst.num_layers() != src.num_layers()) {
        throw std::logic_error("clone_network: cfg round-trip changed layer count");
    }
    // params() and serialized_stats() are non-const accessors (they hand out
    // mutable views for the optimizer), but cloning only reads the source.
    Network& mutable_src = const_cast<Network&>(src);
    for (std::size_t i = 0; i < src.num_layers(); ++i) {
        const int idx = static_cast<int>(i);
        Layer& from = mutable_src.layer(idx);
        Layer& to = dst.layer(idx);
        const auto from_params = from.params();
        const auto to_params = to.params();
        if (from_params.size() != to_params.size()) {
            throw std::logic_error("clone_network: layer " + std::to_string(i) +
                                   " param block count mismatch");
        }
        for (std::size_t p = 0; p < from_params.size(); ++p) {
            if (from_params[p]->size() != to_params[p]->size()) {
                throw std::logic_error("clone_network: layer " + std::to_string(i) +
                                       " param size mismatch (" + from_params[p]->name + ")");
            }
            to_params[p]->v = from_params[p]->v;
            to_params[p]->g = from_params[p]->g;
            to_params[p]->m = from_params[p]->m;
        }
        const auto from_stats = from.serialized_stats();
        const auto to_stats = to.serialized_stats();
        if (from_stats.size() != to_stats.size()) {
            throw std::logic_error("clone_network: layer " + std::to_string(i) +
                                   " stats block count mismatch");
        }
        for (std::size_t s = 0; s < from_stats.size(); ++s) {
            *to_stats[s] = *from_stats[s];
        }
    }
    dst.set_batch_num(src.batch_num());
    if (const RegionLayer* from_head = src.region()) {
        dst.region()->set_seen(from_head->seen());
    }
    // After the weight copy, so the clone's halves or int8 weights encode the
    // copied floats (an int8 source is already folded, and so is its clone).
    if (src.precision() != Precision::kF32) {
        dst.set_precision(src.precision(), src.calibration());
    }
    return dst;
}

}  // namespace dronet
