// Locating and loading pretrained checkpoints.
//
// The training tool (tools/train_models) writes `<Model>.weights` +
// `<Model>.meta` pairs into a weights directory; benches and examples load
// them through this helper so figure regeneration does not retrain. If
// $DRONET_WEIGHTS_DIR is set it is the only directory searched; otherwise
// ./weights, ../weights, ../../weights are tried in order.
#pragma once

#include <filesystem>
#include <optional>

#include "models/model_zoo.hpp"

namespace dronet {

struct PretrainedMeta {
    float filter_scale = 1.0f;
    int classes = 1;
    int input_size = 192;  ///< resolution the checkpoint was last trained at
};

/// Directory containing `<Model>.weights` for the given model, if any.
[[nodiscard]] std::optional<std::filesystem::path> find_weights_dir(ModelId id);

/// Parses `<Model>.meta` (key=value lines). Throws on malformed content.
[[nodiscard]] PretrainedMeta read_meta(const std::filesystem::path& meta_path);

/// Writes a meta file next to a checkpoint.
void write_meta(const PretrainedMeta& meta, const std::filesystem::path& meta_path);

/// Build options matching a checkpoint: its meta's filter_scale and classes,
/// at `input_size` (0 = the resolution it was last trained at).
[[nodiscard]] ModelOptions model_options(const PretrainedMeta& meta,
                                         int input_size = 0 /*0 = meta*/);

/// Builds the model with the checkpoint's recorded options and loads its
/// weights. Returns nullopt when no checkpoint is found.
[[nodiscard]] std::optional<Network> load_pretrained(ModelId id,
                                                     int input_size = 0 /*0 = meta*/);

}  // namespace dronet
