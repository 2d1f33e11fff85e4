#!/usr/bin/env bash
# Full reproduction sweep: build, test, retrain checkpoints (optional),
# regenerate every figure/table. From the repository root:
#   scripts/run_all.sh [--retrain]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja -DDRONET_WERROR=ON
cmake --build build

if [[ "${1:-}" == "--retrain" ]]; then
  ./build/tools/train_models --out weights
fi

ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

# SIMD dispatch stage (docs/vectorization.md): rerun the kernel-sensitive
# label with the dispatch level forced from startup, exercising the same
# from-process-start path a user hits with DRONET_SIMD=... The scalar run
# must pass everywhere; the avx2 run is gated on host support (the dispatcher
# would silently downgrade, which would test scalar twice and prove nothing).
DRONET_SIMD=scalar ctest --test-dir build -L simd-kernels \
  --output-on-failure 2>&1 | tee simd_scalar_output.txt
if grep -qw avx2 /proc/cpuinfo; then
  DRONET_SIMD=avx2 ctest --test-dir build -L simd-kernels \
    --output-on-failure 2>&1 | tee simd_avx2_output.txt
else
  echo "host CPU lacks AVX2; skipping DRONET_SIMD=avx2 test pass" \
    | tee simd_avx2_output.txt
fi

# Calibrated int8 serving stage (docs/quantization.md): the int8 label runs
# in the suite above (and again per SIMD level — test_quantize carries the
# simd-kernels label too, and its GEMM is memcmp-gated across levels); here
# the full service path serves a micro-batched int8 run end to end:
# --expect-complete exits non-zero if any frame resolved as anything but kOk.
ctest --test-dir build -L int8 --output-on-failure 2>&1 | tee int8_output.txt
./build/tools/serve_bench --workers 2 --streams 4 --frames-per-stream 8 \
  --size 96 --batch 4 --batch-timeout-us 1000 --int8 --expect-complete 2>&1 \
  | tee int8_serve_bench_output.txt

# Repository benchmark harness (benchmark/README.md): a standalone build of
# benchmark/ against this library, then its --smoke run, so a library change
# that breaks the harness's use of the public API fails here.
cmake -S benchmark -B build-bench
cmake --build build-bench
ctest --test-dir build-bench --output-on-failure 2>&1 \
  | tee benchmark_smoke_output.txt

# Documentation hygiene: every relative link in README.md and docs/ must
# resolve, every docs/ page must be indexed in docs/README.md, and every
# DRONET_* build/runtime toggle must be documented in docs/build_flags.md.
scripts/check_docs.sh

# Static analysis over the library and tools (the curated check set lives in
# .clang-tidy; compile_commands.json comes from CMAKE_EXPORT_COMPILE_COMMANDS).
# Enforcing: WarningsAsErrors '*' makes clang-tidy exit non-zero on any
# finding, and pipefail propagates that — a hit fails the sweep. The tool is
# optional in minimal containers, so gate on its presence.
if command -v clang-tidy >/dev/null 2>&1; then
  git ls-files 'src/*.cpp' 'tools/*.cpp' \
    | xargs clang-tidy -p build --quiet 2>&1 | tee tidy_output.txt
else
  echo "clang-tidy not found; skipping static-analysis pass" | tee tidy_output.txt
fi

# Concurrency-correctness stage (docs/static_analysis.md): rebuild with the
# runtime lock-order deadlock detector compiled in (every sync::Mutex
# acquisition feeds the global lock-order graph; an ABBA inversion aborts
# with both acquisition stacks) and rerun the threaded, cluster, chaos and
# reload labels — chaos and reload reach the breaker-open -> probation
# rollback and reload-commit paths, where the service's one mutex meets
# reload_mu_. Under Clang this build also promotes -Wthread-safety to an
# error (DRONET_WERROR) and registers the tests/compile_fail negative cases.
cmake -B build-sync -G Ninja -DDRONET_WERROR=ON -DDRONET_DEADLOCK_DETECT=ON \
  -DDRONET_BUILD_BENCH=OFF -DDRONET_BUILD_EXAMPLES=OFF
cmake --build build-sync
ctest --test-dir build-sync -L "concurrency|cluster|chaos|reload" --output-on-failure 2>&1 \
  | tee sync_output.txt

# The sanitized trees below never run the `alloc-count` label
# (tests/test_frame_allocs.cpp): it counts heap allocations through its own
# global operator new, and a sanitizer's allocator makes those counts
# meaningless. The plain-tree suite at the top runs it.
sanitized=(-LE alloc-count)

# ThreadSanitizer pass over the threaded code paths (bounded queue,
# DetectionService workers, threaded GEMM): rebuild the `concurrency`-labeled
# tests in a dedicated sanitized tree and run just that label.
cmake -B build-tsan -G Ninja -DDRONET_SANITIZE=thread \
  -DDRONET_BUILD_BENCH=OFF -DDRONET_BUILD_EXAMPLES=OFF
cmake --build build-tsan
ctest --test-dir build-tsan -L concurrency "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee tsan_output.txt

# Cluster tier under TSan: the in-process slice (router + FakeWorker sockets,
# receiver/health/dispatch threads all in one process — the part TSan can
# see). Spawned-worker tests stay in the ASan stage below: TSan cannot follow
# fork/exec.
ctest --test-dir build-tsan -L cluster-inproc "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee tsan_cluster_output.txt

# Micro-batching under TSan: drive the full service (batch collector, batched
# forward, per-future completion) through serve_bench with --expect-complete,
# which exits non-zero if any submitted frame was dropped, rejected, or left
# incomplete.
./build-tsan/tools/serve_bench --workers 2 --streams 4 --frames-per-stream 8 \
  --size 96 --batch 4 --batch-timeout-us 1000 --expect-complete 2>&1 \
  | tee tsan_serve_bench_output.txt

# Chaos stage under TSan: deterministic fault injection through the live
# service (in-place worker restart, retries, breaker, deadlines, crash-safe
# checkpointing — tests/test_chaos.cpp), then a fault-injected
# serve_bench run: a worker-killing forward fault plus per-frame deadlines
# must still resolve every future (no --expect-complete: the killed frame is
# counted `failed` by design; the run exits non-zero if any future hangs or
# the drained stats break the accounting identity).
ctest --test-dir build-tsan -L chaos "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee tsan_chaos_output.txt
./build-tsan/tools/serve_bench --workers 2 --streams 2 --frames-per-stream 8 \
  --size 96 --deadline-ms 30000 --retries 1 \
  --inject "network.forward:kill:nth=5:times=1" 2>&1 \
  | tee tsan_chaos_bench_output.txt
# A kill at queue.pop fires after the batch is taken: every frame fails
# ("worker died") and each worker restarts, so the run ends instead of
# restarting back to back without ever taking a frame (the timeout turns a
# hang into a failure).
timeout 120 ./build-tsan/tools/serve_bench --workers 2 --streams 2 \
  --frames-per-stream 4 --size 96 --inject "queue.pop:kill:every=1" 2>&1 \
  | tee tsan_queue_pop_kill_output.txt

# Model lifecycle stage under TSan (docs/robustness.md, "Model lifecycle"):
# worker threads keep serving while reload_checkpoint canaries and swaps the
# model set — the exact shared-state handoff TSan exists to check. The label
# first, then a live reload-under-load through serve_bench: the pretrained
# checkpoint hot-swaps mid-run and --expect-complete exits non-zero if any
# future was dropped across the swap.
ctest --test-dir build-tsan -L reload "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee tsan_reload_output.txt
./build-tsan/tools/serve_bench --workers 2 --streams 4 --frames-per-stream 8 \
  --size 96 --reload weights/DroNet.weights --reload-after-ms 30 \
  --expect-complete 2>&1 | tee tsan_reload_bench_output.txt

# AddressSanitizer + UBSan pass over the FULL suite (memory errors and
# undefined behaviour are not confined to the threaded paths).
cmake -B build-asan -G Ninja -DDRONET_SANITIZE=address \
  -DDRONET_BUILD_BENCH=OFF -DDRONET_BUILD_EXAMPLES=OFF
cmake --build build-asan
ctest --test-dir build-asan "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee asan_output.txt

# Int8 stage under ASan: the quantized path moves through raw int8/int32
# scratch with hand-written bounds (im2col columns, per-filter rows) — the
# exact code ASan exists to check. The full-suite run above covers it too;
# rerun by label so a failure is attributable at a glance.
ctest --test-dir build-asan -L int8 "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee asan_int8_output.txt

# Chaos stage under ASan: the full suite above already includes the chaos
# label, but rerun it by name so a failure is attributable at a glance (and
# so the label is exercised even if someone filters the suite above).
ctest --test-dir build-asan -L chaos "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee asan_chaos_output.txt

# Cluster stage under ASan: the multi-process serving tier (wire protocol,
# router dispatch/breaker, spawned serve_worker fleet) plus the
# worker-kill chaos test. fork/exec + socket framing is exactly where ASan
# earns its keep (fd lifetimes, buffer reassembly, stale-frame handling).
ctest --test-dir build-asan -L cluster "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee asan_cluster_output.txt

# Model lifecycle under ASan: candidate loading, canary scratch buffers, and
# the model-set swap are allocation-heavy paths; rerun the label, then the
# same reload-under-load drive as the TSan stage.
ctest --test-dir build-asan -L reload "${sanitized[@]}" --output-on-failure 2>&1 \
  | tee asan_reload_output.txt
./build-asan/tools/serve_bench --workers 2 --streams 4 --frames-per-stream 8 \
  --size 96 --reload weights/DroNet.weights --reload-after-ms 30 \
  --expect-complete 2>&1 | tee asan_reload_bench_output.txt

# Router + worker fleet end to end through serve_bench's cluster mode: two
# spawned worker processes, then one. Every cluster run exits non-zero on an
# unresolved future or an accounting violation, and --expect-complete also
# fails any frame resolved as anything but kOk.
./build/tools/serve_bench --cluster 2 --workers 1 --streams 4 \
  --frames-per-stream 8 --size 96 --filter-scale 0.5 --expect-complete 2>&1 \
  | tee cluster_bench_output.txt
./build/tools/serve_bench --cluster 1 --workers 1 --streams 4 \
  --frames-per-stream 6 --size 96 --filter-scale 0.5 --expect-complete 2>&1 \
  | tee cluster1_bench_output.txt
# Worker-kill chaos: SIGKILL worker 0 while a flat-out load keeps both
# workers busy (the run lasts many times the 60 ms delay), so the kill
# strands the frames worker 0 holds. Every future must still resolve
# (retried onto the survivor or shed, never hung) with the accounting
# identity intact, and the fleet stats must record the death and at least
# one stranded frame — serve_bench exits non-zero otherwise, so a load that
# misses the kill, or leaves worker 0 idle when it dies, fails the stage
# instead of passing it vacuously.
./build/tools/serve_bench --cluster 2 --workers 1 --streams 4 \
  --frames-per-stream 64 --size 256 --filter-scale 0.5 \
  --kill-after-ms 60 2>&1 | tee cluster_kill_output.txt

# Model-lifecycle chaos smoke: a corrupt (truncated) candidate checkpoint
# must be rejected — canary gate, old model byte-identical, zero dropped
# futures (--expect-complete still enforced on the serving run; the verdict
# line exits non-zero if the reload was NOT rejected).
head -c 4096 weights/DroNet.weights > build/corrupt_candidate.weights
./build/tools/serve_bench --workers 2 --streams 2 --frames-per-stream 8 \
  --size 96 --reload build/corrupt_candidate.weights --reload-after-ms 30 \
  --reload-expect-reject --expect-complete 2>&1 \
  | tee reload_reject_output.txt
# Rolling fleet reload: two spawned pretrained workers, hot-swapped one at a
# time while paced streams keep submitting — the rollout must commit
# fleet-wide with every frame resolving kOk (exit 1 otherwise)...
./build/tools/serve_bench --cluster 2 --workers 1 --streams 4 \
  --frames-per-stream 16 --size 96 --interval-ms 10 \
  --reload weights/DroNet.weights --reload-after-ms 50 --expect-complete 2>&1 \
  | tee cluster_reload_output.txt
# ...and with a worker SIGKILLed mid-rollout the rollout must abort, roll
# already-reloaded workers back to the old version, and still resolve every
# future (serve_bench exits non-zero if the aborted rollout reports success
# or any future hangs).
./build/tools/serve_bench --cluster 2 --workers 1 --streams 4 \
  --frames-per-stream 8 --size 96 --reload weights/DroNet.weights \
  --reload-after-ms 50 --reload-kill-slot 1 2>&1 \
  | tee cluster_reload_kill_output.txt

for b in build/bench/*; do
  echo "===== $b ====="
  "$b"
done 2>&1 | tee bench_output.txt
