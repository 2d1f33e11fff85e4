// CLI/help drift gate for the user-facing tools. Each tool's argument parser
// is the ground truth: this test scans the tool's source for the
// `a == "--flag"` parser idiom and asserts every parsed flag is documented in
// the tool's --help output (and that --help itself exits 0). This is what
// keeps kUsage and the parser from drifting apart — adding a flag without
// documenting it fails here. One case also runs detect end to end.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "data/dataset.hpp"
#include "image/ppm.hpp"

#ifndef DRONET_DETECT_PATH
#define DRONET_DETECT_PATH ""
#endif
#ifndef DRONET_SERVE_BENCH_PATH
#define DRONET_SERVE_BENCH_PATH ""
#endif
#ifndef DRONET_PROFILE_PATH
#define DRONET_PROFILE_PATH ""
#endif
#ifndef DRONET_TOOLS_SRC_DIR
#define DRONET_TOOLS_SRC_DIR ""
#endif

namespace {

std::set<std::string> parsed_flags(const std::string& source_path) {
    std::ifstream in(source_path);
    EXPECT_TRUE(in.good()) << "cannot read " << source_path;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    // The parser idiom: `a == "--flag"` (or `args.x = ...` variants all use
    // the same comparison on the left).
    static const std::regex kFlag("==\\s*\"(--[a-z0-9-]+)\"");
    std::set<std::string> flags;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kFlag);
         it != std::sregex_iterator(); ++it) {
        flags.insert((*it)[1].str());
    }
    EXPECT_FALSE(flags.empty()) << "no parsed flags found in " << source_path;
    return flags;
}

struct HelpRun {
    int exit_code = -1;
    std::string stdout_text;
};

HelpRun run_command(const std::string& command) {
    HelpRun r;
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) return r;
    char chunk[4096];
    std::size_t got;
    while ((got = fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
        r.stdout_text.append(chunk, got);
    }
    const int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

HelpRun run_help(const std::string& binary) {
    return run_command(binary + " --help 2>/dev/null");
}

void expect_help_covers_parser(const std::string& binary,
                               const std::string& source) {
    const HelpRun help = run_help(binary);
    ASSERT_EQ(help.exit_code, 0) << binary << " --help must exit 0";
    ASSERT_FALSE(help.stdout_text.empty()) << binary << " --help printed nothing";
    for (const std::string& flag : parsed_flags(source)) {
        EXPECT_NE(help.stdout_text.find(flag), std::string::npos)
            << flag << " is parsed by " << source
            << " but missing from --help output";
    }
}

TEST(ToolsCli, DetectHelpCoversEveryFlag) {
    expect_help_covers_parser(DRONET_DETECT_PATH,
                              std::string(DRONET_TOOLS_SRC_DIR) + "/detect.cpp");
}

TEST(ToolsCli, ServeBenchHelpCoversEveryFlag) {
    expect_help_covers_parser(
        DRONET_SERVE_BENCH_PATH,
        std::string(DRONET_TOOLS_SRC_DIR) + "/serve_bench.cpp");
}

TEST(ToolsCli, ProfileHelpCoversEveryFlag) {
    expect_help_covers_parser(
        DRONET_PROFILE_PATH,
        std::string(DRONET_TOOLS_SRC_DIR) + "/profile.cpp");
}

TEST(ToolsCli, DetectInt8ProfileReportsOnlyDetectionForwards) {
    // --int8 calibrates with one batched fp32 forward before detecting; the
    // --profile table must hold the two per-image int8 forwards alone.
    const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                      ("dronet_cli_int8_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir);
    const dronet::DetectionDataset frames =
        dronet::generate_dataset(dronet::benchmark_scene_config(128), 2, /*seed=*/0x1d8);
    std::string command = "cd " + dir.string() + " && " + DRONET_DETECT_PATH +
                          " --int8 --profile --size 128";
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const std::filesystem::path image = dir / ("frame" + std::to_string(i) + ".ppm");
        dronet::write_ppm(frames.image(i), image);
        command += " " + image.string();
    }
    const HelpRun run = run_command(command + " 2>&1");
    std::filesystem::remove_all(dir);
    ASSERT_EQ(run.exit_code, 0) << run.stdout_text;
    EXPECT_NE(run.stdout_text.find("forwards 2,"), std::string::npos) << run.stdout_text;
}

TEST(ToolsCli, UnknownFlagIsAnError) {
    // The parsers throw on unknown flags; the tools must exit non-zero.
    FILE* pipe = popen((std::string(DRONET_DETECT_PATH) +
                        " --definitely-not-a-flag x.ppm >/dev/null 2>&1")
                           .c_str(),
                       "r");
    ASSERT_NE(pipe, nullptr);
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_NE(WEXITSTATUS(status), 0);
}

}  // namespace
