#include "models/pretrained.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "nn/weights_io.hpp"

namespace dronet {
namespace {

std::vector<std::filesystem::path> search_dirs() {
    // An explicit DRONET_WEIGHTS_DIR is authoritative (no fallbacks), so a
    // caller can point at a specific checkpoint set deterministically.
    // Tools read this at startup before any thread spawns; the process
    // never calls setenv. NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("DRONET_WEIGHTS_DIR")) return {env};
    return {"weights", "../weights", "../../weights"};
}

}  // namespace

std::optional<std::filesystem::path> find_weights_dir(ModelId id) {
    const std::string file = to_string(id) + ".weights";
    for (const auto& dir : search_dirs()) {
        std::error_code ec;
        if (std::filesystem::exists(dir / file, ec)) return dir;
    }
    return std::nullopt;
}

PretrainedMeta read_meta(const std::filesystem::path& meta_path) {
    std::ifstream in(meta_path);
    if (!in) throw std::runtime_error("read_meta: cannot open " + meta_path.string());
    PretrainedMeta meta;
    std::string line;
    while (std::getline(in, line)) {
        const auto eq = line.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        try {
            if (key == "filter_scale") meta.filter_scale = std::stof(value);
            else if (key == "classes") meta.classes = std::stoi(value);
            else if (key == "input_size") meta.input_size = std::stoi(value);
        } catch (const std::exception&) {
            throw std::runtime_error("read_meta: bad value for " + key + " in " +
                                     meta_path.string());
        }
    }
    return meta;
}

void write_meta(const PretrainedMeta& meta, const std::filesystem::path& meta_path) {
    std::ofstream out(meta_path);
    if (!out) throw std::runtime_error("write_meta: cannot open " + meta_path.string());
    out << "filter_scale=" << meta.filter_scale << "\n"
        << "classes=" << meta.classes << "\n"
        << "input_size=" << meta.input_size << "\n";
}

ModelOptions model_options(const PretrainedMeta& meta, int input_size) {
    ModelOptions options;
    options.input_size = input_size > 0 ? input_size : meta.input_size;
    options.classes = meta.classes;
    options.filter_scale = meta.filter_scale;
    return options;
}

std::optional<Network> load_pretrained(ModelId id, int input_size) {
    const auto dir = find_weights_dir(id);
    if (!dir) return std::nullopt;
    const PretrainedMeta meta = read_meta(*dir / (to_string(id) + ".meta"));
    Network net = build_model(id, model_options(meta, input_size));
    load_weights(net, *dir / (to_string(id) + ".weights"));
    return net;
}

}  // namespace dronet
