// Deterministic, seeded fault injection for chaos testing.
//
// Production code is threaded with named injection sites (kSite* below). A
// test (or serve_bench --inject) installs a FaultPlan describing which sites
// fire and how — on exactly the Nth call, every Nth call, or with a seeded
// probability — and what happens when they do: throw a transient error, throw
// a worker-killing error, sleep, or shorten an I/O read. Everything is
// deterministic for a fixed plan (the probability path uses the plan's seed),
// so every recovery path in src/serve can be asserted rather than hoped for.
//
// Gating: sites are compiled in when the DRONET_FAULTS preprocessor flag is
// set (the default build; see the DRONET_FAULTS cmake option). With
// -DDRONET_FAULTS=OFF the DRONET_FAULT_* macros expand to nothing and the
// binary carries zero fault-injection overhead. Even when compiled in, an
// injector with no plan installed is a single relaxed atomic load per site.
//
// Plan grammar (one line, shell-friendly):
//   plan   := clause (';' clause)*
//   clause := site ':' action (':' key '=' value)*
//   action := throw | kill | latency | short-read
//   keys   := nth=N      fire on exactly the Nth matching call (1-based)
//           | every=N    fire on every Nth call
//           | p=F        fire with probability F (seeded, deterministic)
//           | times=N    stop after N fires (default: unlimited)
//           | latency=MS sleep MS milliseconds when firing (latency action)
//           | bytes=N    withhold N bytes (short-read action; default: all)
//           | msg=TEXT   exception message override
//           | seed=N     plan-level RNG seed (applies to the whole plan)
// With no nth/every/p selector a clause fires on every call (bounded by
// `times`). Example: "network.forward:kill:nth=3;weights.write:throw:nth=2".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sync/mutex.hpp"

namespace dronet::fault {

// Canonical site names (keep docs/robustness.md in sync).
inline constexpr const char* kSiteForward = "network.forward";
inline constexpr const char* kSiteWeightsRead = "weights.read";
inline constexpr const char* kSiteWeightsWrite = "weights.write";
inline constexpr const char* kSiteImageRead = "image.read";
inline constexpr const char* kSiteQueuePush = "queue.push";
inline constexpr const char* kSiteQueuePop = "queue.pop";
/// Candidate checkpoint read during a hot reload (DetectionService).
inline constexpr const char* kSiteReloadRead = "reload.read";
/// Canary forward validating a reload candidate before the swap commits.
inline constexpr const char* kSiteReloadCanary = "reload.canary";
/// Parent-directory fsync that durably commits a checkpoint rename.
inline constexpr const char* kSiteWeightsDirFsync = "weights.dir_fsync";

/// Transient injected failure: retryable by the serving layer (derives from
/// std::runtime_error like real transient I/O and numerics errors).
class FaultInjected : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/// Worker-killing injected failure. Deliberately NOT a std::runtime_error:
/// the serving layer's retry logic treats it as unrecoverable, so it escapes
/// the batch and exercises the worker loop's in-place restart.
class WorkerKillFault : public std::exception {
  public:
    explicit WorkerKillFault(std::string message) : message_(std::move(message)) {}
    [[nodiscard]] const char* what() const noexcept override { return message_.c_str(); }

  private:
    std::string message_;
};

enum class FaultAction {
    kThrow,      ///< throw FaultInjected (transient, retryable)
    kKill,       ///< throw WorkerKillFault (unrecoverable; kills the worker)
    kLatency,    ///< sleep latency_ms (wedge/overload simulation)
    kShortRead,  ///< withhold bytes from an I/O site (truncation simulation)
};

/// One armed fault: where, when, and what.
struct FaultSpec {
    std::string site;
    FaultAction action = FaultAction::kThrow;
    std::uint64_t nth = 0;    ///< fire on exactly this call index (1-based); 0 = off
    std::uint64_t every = 0;  ///< fire when call_index % every == 0; 0 = off
    double probability = 0;   ///< Bernoulli per call when > 0
    std::uint64_t times = UINT64_MAX;  ///< max fires
    double latency_ms = 0;             ///< kLatency sleep duration
    std::size_t bytes = SIZE_MAX;      ///< kShortRead: bytes withheld (SIZE_MAX = all)
    std::string message;               ///< exception text override
};

/// A set of armed faults plus the RNG seed for probabilistic clauses.
struct FaultPlan {
    std::vector<FaultSpec> specs;
    std::uint64_t seed = 0x5eed;

    /// Parses the grammar documented at the top of this header. Throws
    /// std::invalid_argument with a pointed message on malformed input.
    [[nodiscard]] static FaultPlan parse(const std::string& text);
};

/// Process-wide injector. Sites call fire()/io_bytes(); tests install plans.
/// Thread-safe: serving workers hit sites concurrently while a test thread
/// reads counters.
class FaultInjector {
  public:
    [[nodiscard]] static FaultInjector& instance();

    /// Installs `plan`, resetting all call/fire counters and reseeding.
    void install(FaultPlan plan);
    /// Removes any installed plan (sites return to no-op).
    void clear();
    [[nodiscard]] bool active() const noexcept {
        return active_.load(std::memory_order_acquire);
    }

    /// Trip point for non-I/O sites. May sleep (kLatency), throw FaultInjected
    /// (kThrow) or WorkerKillFault (kKill). kShortRead specs are ignored here.
    void fire(const char* site);

    /// Trip point for I/O sites reading `want` bytes: behaves like fire() and
    /// additionally returns the number of bytes the caller should actually
    /// read — `want` normally, less when a kShortRead spec fires.
    [[nodiscard]] std::size_t io_bytes(const char* site, std::size_t want);

    /// Total calls observed at `site` since install() (0 when inactive).
    [[nodiscard]] std::uint64_t calls(const std::string& site) const;
    /// Total fires triggered at `site` since install().
    [[nodiscard]] std::uint64_t fires(const std::string& site) const;

  private:
    FaultInjector() = default;

    struct Armed {
        FaultSpec spec;
        std::uint64_t calls = 0;
        std::uint64_t fires = 0;
    };

    // Decides and accounts under mu_; the action itself (sleep/throw) runs
    // outside the lock so a latency fault never stalls other sites.
    struct Decision {
        FaultAction action = FaultAction::kThrow;
        double latency_ms = 0;
        std::size_t bytes = 0;
        std::string message;
        bool fired = false;
    };
    [[nodiscard]] Decision decide(const char* site, bool io_site,
                                  std::size_t want) EXCLUDES(mu_);

    mutable sync::Mutex mu_{"FaultInjector::mu"};
    std::vector<Armed> armed_ GUARDED_BY(mu_);
    std::vector<std::pair<std::string, std::uint64_t>> site_calls_
        GUARDED_BY(mu_);
    std::mt19937_64 rng_ GUARDED_BY(mu_){0x5eed};
    std::atomic<bool> active_{false};
};

/// RAII plan install for tests: installs on construction, clears on scope
/// exit so a failing assertion never leaks an armed fault into later tests.
class ScopedFaultPlan {
  public:
    explicit ScopedFaultPlan(FaultPlan plan) {
        FaultInjector::instance().install(std::move(plan));
    }
    explicit ScopedFaultPlan(const std::string& text)
        : ScopedFaultPlan(FaultPlan::parse(text)) {}
    ~ScopedFaultPlan() { FaultInjector::instance().clear(); }
    ScopedFaultPlan(const ScopedFaultPlan&) = delete;
    ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

/// True when the build compiled injection sites in (DRONET_FAULTS). Tests
/// use this to skip chaos assertions in fault-free production builds.
[[nodiscard]] constexpr bool compiled_in() noexcept {
#if defined(DRONET_FAULTS) && DRONET_FAULTS
    return true;
#else
    return false;
#endif
}

}  // namespace dronet::fault

// Site macros: zero-cost when DRONET_FAULTS is off.
#if defined(DRONET_FAULTS) && DRONET_FAULTS
#define DRONET_FAULT_POINT(site)                                  \
    do {                                                          \
        auto& dronet_fault_inj = ::dronet::fault::FaultInjector::instance(); \
        if (dronet_fault_inj.active()) dronet_fault_inj.fire(site);          \
    } while (0)
#define DRONET_FAULT_IO(site, want)                               \
    (::dronet::fault::FaultInjector::instance().active()          \
         ? ::dronet::fault::FaultInjector::instance().io_bytes(site, want) \
         : (want))
#else
#define DRONET_FAULT_POINT(site) ((void)0)
#define DRONET_FAULT_IO(site, want) (want)
#endif
