#include "analysis/validate.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>

namespace dronet {
namespace {

/// Symbolic single-image activation shape (batch is irrelevant to structure).
struct SymShape {
    std::int64_t c = 0;
    std::int64_t h = 0;
    std::int64_t w = 0;
};

/// Keys each section type actually reads (nn/cfg.cpp); anything else is
/// silently ignored by the engine, which is worth a warning — a typo like
/// "fliters=32" otherwise builds a structurally different network.
const std::map<std::string, std::set<std::string>>& known_keys() {
    static const std::map<std::string, std::set<std::string>> keys = {
        {"net",
         {"batch", "width", "height", "channels", "learning_rate", "momentum",
          "decay", "burn_in", "max_batches", "policy", "steps", "scales", "seed"}},
        {"network",
         {"batch", "width", "height", "channels", "learning_rate", "momentum",
          "decay", "burn_in", "max_batches", "policy", "steps", "scales", "seed"}},
        {"convolutional",
         {"batch_normalize", "filters", "size", "stride", "pad", "padding",
          "activation"}},
        {"conv",
         {"batch_normalize", "filters", "size", "stride", "pad", "padding",
          "activation"}},
        {"maxpool", {"size", "stride", "padding"}},
        {"region",
         {"classes", "coords", "num", "anchors", "object_scale", "noobject_scale",
          "class_scale", "coord_scale", "thresh", "rescore", "bias_match_batches"}},
        {"route", {"layers"}},
        {"upsample", {"stride"}},
        {"dropout", {"probability"}},
        {"avgpool", {}},
    };
    return keys;
}

class Validator {
  public:
    explicit Validator(const std::vector<CfgSection>& sections)
        : sections_(sections) {}

    ValidationReport run() {
        if (sections_.empty()) {
            add(Severity::kError, -1, "empty-cfg", "cfg has no sections");
            return finish();
        }
        if (sections_[0].name != "net" && sections_[0].name != "network") {
            add(Severity::kError, 0, "missing-net",
                "first section must be [net], got [" + sections_[0].name + "]");
            return finish();
        }
        check_net(sections_[0]);
        if (sections_.size() == 1) {
            add(Severity::kError, -1, "no-layers", "cfg defines no layers after [net]");
            return finish();
        }
        for (std::size_t i = 1; i < sections_.size(); ++i) {
            check_section(static_cast<int>(i));
        }
        if (!saw_region_) {
            add(Severity::kWarning, -1, "no-detection-head",
                "cfg has no [region] section; the network cannot produce detections");
        }
        if (net_w_ > 0 && downsample_ > 1 &&
            (net_w_ % downsample_ != 0 || net_h_ % downsample_ != 0)) {
            std::ostringstream os;
            os << "input " << net_w_ << "x" << net_h_
               << " is not divisible by the total downsample factor " << downsample_
               << "; spatial information is truncated through the chain";
            add(Severity::kWarning, 0, "downsample-divisibility", os.str());
        }
        return finish();
    }

  private:
    void add(Severity sev, int section, std::string rule, std::string message) {
        std::string section_name =
            section >= 0 ? sections_[static_cast<std::size_t>(section)].name : "";
        report_.diagnostics.push_back(Diagnostic{sev, section, std::move(section_name),
                                                 std::move(rule), std::move(message)});
    }

    void check_unknown_keys(int idx) {
        const CfgSection& s = sections_[static_cast<std::size_t>(idx)];
        const auto it = known_keys().find(s.name);
        if (it == known_keys().end()) return;
        for (const auto& [key, value] : s.options) {
            if (it->second.count(key) == 0) {
                add(Severity::kWarning, idx, "unknown-key",
                    "key '" + key + "' is not read by the engine and will be ignored");
            }
        }
    }

    void check_net(const CfgSection& net) {
        check_unknown_keys(0);
        try {
            net_w_ = net.get_int("width", 416);
            net_h_ = net.get_int("height", 416);
            const int channels = net.get_int("channels", 3);
            const int batch = net.get_int("batch", 1);
            if (net_w_ <= 0 || net_h_ <= 0 || channels <= 0 || batch <= 0) {
                add(Severity::kError, 0, "net-dimensions",
                    "width/height/channels/batch must all be positive");
                return;
            }
            shape_in_ = SymShape{channels, net_h_, net_w_};
            if (net.get_int_list("steps").size() != net.get_float_list("scales").size()) {
                add(Severity::kError, 0, "steps-scales-mismatch",
                    "steps= and scales= must have the same length");
            }
            if (net.get_float("learning_rate", 1e-3f) <= 0.0f) {
                add(Severity::kWarning, 0, "learning-rate-range",
                    "learning_rate is not positive; training cannot make progress");
            }
            const float momentum = net.get_float("momentum", 0.9f);
            if (momentum < 0.0f || momentum >= 1.0f) {
                add(Severity::kWarning, 0, "momentum-range",
                    "momentum outside [0, 1) diverges under SGD");
            }
            if (net.get_float("decay", 5e-4f) < 0.0f) {
                add(Severity::kWarning, 0, "decay-range",
                    "negative decay amplifies weights every step");
            }
        } catch (const std::invalid_argument& e) {
            add(Severity::kError, 0, "bad-value", e.what());
            shape_in_ = std::nullopt;
        }
    }

    void check_section(int idx) {
        const CfgSection& s = sections_[static_cast<std::size_t>(idx)];
        check_unknown_keys(idx);
        std::optional<SymShape> out;
        try {
            if (s.name == "net" || s.name == "network") {
                add(Severity::kError, idx, "misplaced-net",
                    "[net] may only appear as the first section");
            } else if (s.name == "convolutional" || s.name == "conv") {
                out = check_conv(idx, s);
            } else if (s.name == "maxpool") {
                out = check_maxpool(idx, s);
            } else if (s.name == "region") {
                out = check_region(idx, s);
            } else if (s.name == "route") {
                out = check_route(idx, s);
            } else if (s.name == "upsample") {
                out = check_upsample(idx, s);
            } else if (s.name == "avgpool") {
                if (shape_in_) out = SymShape{shape_in_->c, 1, 1};
            } else if (s.name == "dropout") {
                const float p = s.get_float("probability", 0.5f);
                if (p < 0.0f || p >= 1.0f) {
                    add(Severity::kError, idx, "dropout-probability",
                        "probability must be in [0, 1)");
                }
                out = shape_in_;
            } else {
                add(Severity::kError, idx, "unknown-section",
                    "unsupported section [" + s.name + "]");
            }
        } catch (const std::invalid_argument& e) {
            add(Severity::kError, idx, "bad-value", e.what());
            out = std::nullopt;
        }
        layer_shapes_.push_back(out);
        shape_in_ = out;
    }

    std::optional<SymShape> check_conv(int idx, const CfgSection& s) {
        const int filters = s.get_int("filters", 1);
        const int ksize = s.get_int("size", 3);
        const int stride = s.get_int("stride", 1);
        const int pad = s.has("padding") ? s.get_int("padding", 0)
                                         : (s.get_int("pad", 0) != 0 ? ksize / 2 : 0);
        if (filters <= 0 || ksize <= 0 || stride <= 0 || pad < 0) {
            add(Severity::kError, idx, "conv-geometry",
                "filters/size/stride must be positive and padding non-negative");
            return std::nullopt;
        }
        if (ksize % 2 == 0) {
            add(Severity::kWarning, idx, "even-kernel",
                "even kernel size " + std::to_string(ksize) +
                    " has no symmetric 'same' padding");
        }
        const std::string activation = s.get_string("activation", "logistic");
        const auto& names = cfg_known_activations();
        const bool bn = s.get_int("batch_normalize", 0) != 0;
        if (std::find(names.begin(), names.end(), activation) == names.end()) {
            add(Severity::kError, idx, "unknown-activation",
                "unknown activation '" + activation + "'");
        }
        const bool feeds_region =
            static_cast<std::size_t>(idx) + 1 < sections_.size() &&
            sections_[static_cast<std::size_t>(idx) + 1].name == "region";
        if (feeds_region && bn) {
            add(Severity::kWarning, idx, "head-batchnorm",
                "detection-head convolution is batch-normalized; darknet heads are "
                "plain conv + linear");
        }
        if (feeds_region && activation != "linear") {
            add(Severity::kWarning, idx, "head-activation",
                "detection-head convolution uses '" + activation +
                    "'; the region layer expects raw (linear) logits");
        }
        conv_params_ +=
            static_cast<std::int64_t>(filters) * (bn ? 2 : 1);  // biases [+ scales]
        conv_stats_ += bn ? 2L * filters : 0;  // rolling mean + variance
        if (!shape_in_) {
            weight_bytes_known_ = false;
            return std::nullopt;
        }
        conv_params_ += static_cast<std::int64_t>(filters) * shape_in_->c * ksize * ksize;
        const std::int64_t out_h = (shape_in_->h + 2 * pad - ksize) / stride + 1;
        const std::int64_t out_w = (shape_in_->w + 2 * pad - ksize) / stride + 1;
        if (out_h <= 0 || out_w <= 0) {
            add(Severity::kError, idx, "degenerate-output",
                "output collapses to " + std::to_string(out_w) + "x" +
                    std::to_string(out_h) + " for input " + std::to_string(shape_in_->w) +
                    "x" + std::to_string(shape_in_->h));
            return std::nullopt;
        }
        check_coverage(idx, *shape_in_, out_h, out_w, stride, ksize, pad);
        if (stride > 1) downsample_ *= stride;
        return SymShape{filters, out_h, out_w};
    }

    std::optional<SymShape> check_maxpool(int idx, const CfgSection& s) {
        const int size = s.get_int("size", 2);
        const int stride = s.get_int("stride", size);
        // Negative explicit padding selects the darknet default, like the engine.
        const int given = s.has("padding") ? s.get_int("padding", -1) : -1;
        const int pad = given >= 0 ? given : size - 1;
        if (size <= 0 || stride <= 0) {
            add(Severity::kError, idx, "pool-geometry",
                "size and stride must be positive");
            return std::nullopt;
        }
        if (stride > 1) downsample_ *= stride;
        if (!shape_in_) return std::nullopt;
        const std::int64_t out_h = (shape_in_->h + pad - size) / stride + 1;
        const std::int64_t out_w = (shape_in_->w + pad - size) / stride + 1;
        if (out_h <= 0 || out_w <= 0) {
            add(Severity::kError, idx, "degenerate-output",
                "output collapses to " + std::to_string(out_w) + "x" +
                    std::to_string(out_h) + " for input " + std::to_string(shape_in_->w) +
                    "x" + std::to_string(shape_in_->h));
            return std::nullopt;
        }
        // Darknet pools pad half-before / half-after (offset -pad/2).
        check_coverage(idx, *shape_in_, out_h, out_w, stride, size, pad / 2);
        return SymShape{shape_in_->c, out_h, out_w};
    }

    /// Warns when flooring in the output-size division leaves trailing input
    /// rows/columns unread by any kernel window (silently cropped data).
    void check_coverage(int idx, const SymShape& in, std::int64_t out_h,
                        std::int64_t out_w, int stride, int ksize, int pad_before) {
        const std::int64_t last_row = (out_h - 1) * stride - pad_before + ksize - 1;
        const std::int64_t last_col = (out_w - 1) * stride - pad_before + ksize - 1;
        if (last_row < in.h - 1 || last_col < in.w - 1) {
            std::ostringstream os;
            os << "stride " << stride << " never reads the last "
               << std::max(in.h - 1 - last_row, in.w - 1 - last_col)
               << " input row(s)/column(s); input " << in.w << "x" << in.h
               << " is silently cropped";
            add(Severity::kWarning, idx, "drops-pixels", os.str());
        }
    }

    std::optional<SymShape> check_region(int idx, const CfgSection& s) {
        saw_region_ = true;
        const int classes = s.get_int("classes", 1);
        const int coords = s.get_int("coords", 4);
        const int num = s.get_int("num", 5);
        if (coords != 4) {
            add(Severity::kError, idx, "region-coords",
                "coords must be 4 (x, y, w, h)");
        }
        if (num <= 0 || classes <= 0) {
            add(Severity::kError, idx, "region-count",
                "num and classes must be positive");
            return shape_in_;
        }
        if (!s.has("anchors")) {
            add(Severity::kWarning, idx, "region-anchors-missing",
                "no anchors given; engine defaults every prior to 1x1 grid cells");
        } else {
            const auto anchors = s.get_float_list("anchors");
            if (anchors.size() != static_cast<std::size_t>(2 * num)) {
                add(Severity::kError, idx, "region-anchors-length",
                    "anchors holds " + std::to_string(anchors.size()) +
                        " values, expected 2*num = " + std::to_string(2 * num));
            }
            if (std::any_of(anchors.begin(), anchors.end(),
                            [](float a) { return a <= 0.0f; })) {
                add(Severity::kWarning, idx, "region-anchor-values",
                    "anchor width/height values must be positive to decode boxes");
            }
        }
        const float thresh = s.get_float("thresh", 0.6f);
        if (thresh < 0.0f || thresh > 1.0f) {
            add(Severity::kWarning, idx, "region-thresh-range",
                "thresh is an IoU and should lie in [0, 1]");
        }
        const std::int64_t expected_c =
            static_cast<std::int64_t>(num) * (coords + 1 + classes);
        if (shape_in_ && shape_in_->c != expected_c) {
            std::ostringstream os;
            os << "input channels " << shape_in_->c << " != num*(coords+1+classes) = "
               << expected_c << "; the preceding convolution needs filters="
               << expected_c;
            add(Severity::kError, idx, "region-input-channels", os.str());
        }
        if (sections_[static_cast<std::size_t>(idx) - 1].name != "convolutional" &&
            sections_[static_cast<std::size_t>(idx) - 1].name != "conv") {
            add(Severity::kWarning, idx, "region-head-kind",
                "region layer is not fed by a convolution ([" +
                    sections_[static_cast<std::size_t>(idx) - 1].name + "] precedes it)");
        }
        if (static_cast<std::size_t>(idx) + 1 < sections_.size()) {
            add(Severity::kWarning, idx, "region-not-last",
                "layers after the [region] detection head are dead weight");
        }
        return shape_in_;
    }

    std::optional<SymShape> check_route(int idx, const CfgSection& s) {
        std::vector<int> sources = s.get_int_list("layers");
        if (sources.empty()) {
            add(Severity::kError, idx, "route-empty", "missing layers=");
            return std::nullopt;
        }
        const int self = static_cast<int>(layer_shapes_.size());
        std::set<int> seen;
        std::optional<SymShape> out;
        bool all_known = true;
        for (int src : sources) {
            const int resolved = src < 0 ? src + self : src;
            if (resolved < 0 || resolved >= self) {
                add(Severity::kError, idx, "route-source-range",
                    "source " + std::to_string(src) + " resolves to layer " +
                        std::to_string(resolved) + ", outside [0, " +
                        std::to_string(self) + ")");
                all_known = false;
                continue;
            }
            if (!seen.insert(resolved).second) {
                add(Severity::kWarning, idx, "route-duplicate-source",
                    "layer " + std::to_string(resolved) + " is concatenated twice");
            }
            const auto& src_shape = layer_shapes_[static_cast<std::size_t>(resolved)];
            if (!src_shape) {
                all_known = false;
                continue;
            }
            if (!out) {
                out = *src_shape;
            } else if (src_shape->h != out->h || src_shape->w != out->w) {
                std::ostringstream os;
                os << "source layer " << resolved << " is " << src_shape->w << "x"
                   << src_shape->h << " but earlier sources are " << out->w << "x"
                   << out->h << "; channel concatenation needs equal spatial dims";
                add(Severity::kError, idx, "route-shape-mismatch", os.str());
                all_known = false;
            } else {
                out->c += src_shape->c;
            }
        }
        return all_known ? out : std::nullopt;
    }

    std::optional<SymShape> check_upsample(int idx, const CfgSection& s) {
        const int stride = s.get_int("stride", 2);
        if (stride <= 0) {
            add(Severity::kError, idx, "upsample-stride", "stride must be positive");
            return std::nullopt;
        }
        if (stride == 1) {
            add(Severity::kWarning, idx, "upsample-noop",
                "stride=1 upsample is an identity copy");
        } else if (stride > 8) {
            add(Severity::kWarning, idx, "upsample-extreme",
                "stride " + std::to_string(stride) +
                    " blows activations up by " + std::to_string(stride * stride) + "x");
        }
        if (!shape_in_) return std::nullopt;
        return SymShape{shape_in_->c, shape_in_->h * stride, shape_in_->w * stride};
    }

    ValidationReport finish() {
        if (weight_bytes_known_ && conv_params_ >= 0) {
            report_.param_count = conv_params_;
            // 3 version ints + the 8-byte `seen` counter, then float32 blocks.
            report_.expected_weight_bytes =
                20 + 4 * (conv_params_ + conv_stats_);
        }
        return std::move(report_);
    }

    const std::vector<CfgSection>& sections_;
    ValidationReport report_;
    std::optional<SymShape> shape_in_;           ///< input to the next layer
    std::vector<std::optional<SymShape>> layer_shapes_;
    std::int64_t conv_params_ = 0;  ///< weights + biases + bn scales
    std::int64_t conv_stats_ = 0;   ///< bn rolling mean/variance floats
    bool weight_bytes_known_ = true;
    bool saw_region_ = false;
    std::int64_t downsample_ = 1;
    int net_w_ = 0;
    int net_h_ = 0;
};

}  // namespace

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string to_string(Severity s) {
    return s == Severity::kError ? "error" : "warning";
}

std::string Diagnostic::str() const {
    std::ostringstream os;
    os << to_string(severity) << " [";
    if (section >= 0) {
        os << section << ":" << section_name;
    } else {
        os << "cfg";
    }
    os << "] " << rule << ": " << message;
    return os.str();
}

bool ValidationReport::ok() const noexcept { return errors() == 0; }

int ValidationReport::errors() const noexcept {
    return static_cast<int>(std::count_if(
        diagnostics.begin(), diagnostics.end(),
        [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

int ValidationReport::warnings() const noexcept {
    return static_cast<int>(diagnostics.size()) - errors();
}

std::string ValidationReport::str() const {
    std::ostringstream os;
    for (const Diagnostic& d : diagnostics) os << d.str() << "\n";
    os << errors() << " error(s), " << warnings() << " warning(s)";
    if (expected_weight_bytes >= 0) {
        os << "; " << param_count << " params, expected weight file "
           << expected_weight_bytes << " bytes";
    }
    return os.str();
}

std::string ValidationReport::json() const {
    std::ostringstream os;
    os << "{\"errors\":" << errors() << ",\"warnings\":" << warnings()
       << ",\"param_count\":" << param_count
       << ",\"expected_weight_bytes\":" << expected_weight_bytes
       << ",\"diagnostics\":[";
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic& d = diagnostics[i];
        os << (i ? "," : "") << "{\"severity\":\"" << to_string(d.severity)
           << "\",\"section\":" << d.section << ",\"section_name\":\""
           << json_escape(d.section_name) << "\",\"rule\":\"" << json_escape(d.rule)
           << "\",\"message\":\"" << json_escape(d.message) << "\"}";
    }
    os << "]}";
    return os.str();
}

ValidationReport validate_network(const std::vector<CfgSection>& sections) {
    return Validator(sections).run();
}

ValidationReport validate_network(const std::string& cfg_text) {
    try {
        return validate_network(parse_cfg_sections(cfg_text));
    } catch (const std::invalid_argument& e) {
        ValidationReport report;
        report.diagnostics.push_back(
            Diagnostic{Severity::kError, -1, "", "cfg-syntax", e.what()});
        return report;
    }
}

bool check_weights_file(ValidationReport& report,
                        const std::filesystem::path& weights_path) {
    std::error_code ec;
    const auto actual = std::filesystem::file_size(weights_path, ec);
    if (ec) {
        report.diagnostics.push_back(Diagnostic{
            Severity::kError, -1, "", "weights-unreadable",
            weights_path.string() + ": " + ec.message()});
        return false;
    }
    if (report.expected_weight_bytes < 0) {
        report.diagnostics.push_back(Diagnostic{
            Severity::kError, -1, "", "weights-size-unknown",
            "cfg is too broken to compute the expected weight layout"});
        return false;
    }
    if (static_cast<std::int64_t>(actual) != report.expected_weight_bytes) {
        std::ostringstream os;
        os << weights_path.string() << " holds " << actual << " bytes but the cfg's "
           << "parameter layout needs exactly " << report.expected_weight_bytes
           << " (truncated checkpoint or cfg/weights mismatch)";
        report.diagnostics.push_back(
            Diagnostic{Severity::kError, -1, "", "weights-size-mismatch", os.str()});
        return false;
    }
    return true;
}

const std::vector<std::string>& cfg_known_activations() {
    static const std::vector<std::string> names = {"linear", "leaky", "relu",
                                                   "logistic"};
    return names;
}

}  // namespace dronet
