#!/usr/bin/env bash
# Hermetic CI gate: formatting, lints, docs, build, tests, a kernel
# determinism matrix (solver × thread count), kernel
# throughput floors, service smoke tests and an end-to-end migration
# smoke test, all offline.
#
# The workspace has zero registry dependencies by design — everything
# resolves from path crates — so `--offline` must always succeed. Any
# registry access here is a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

# A held cargo target-dir lock means another build is already running in
# this checkout; cargo would block on it silently, which stalls CI for
# as long as that build lives. Fail fast with a diagnosis instead.
for lock in target/release/.cargo-lock target/debug/.cargo-lock target/.cargo-lock; do
    if [[ -e "$lock" ]] && ! flock -n "$lock" true 2>/dev/null; then
        echo "CI ABORT: cargo target-dir lock '$lock' is held by another process." >&2
        echo "Wait for the other build to finish (or kill it) and re-run." >&2
        exit 1
    fi
done

# Every tempfile is tracked and removed on any exit path (success,
# failure, or signal) — a failing grep must not leak mktemp droppings.
tmpfiles=()
cleanup() {
    ((${#tmpfiles[@]})) && rm -f "${tmpfiles[@]}" || true
}
trap cleanup EXIT
mktemp_tracked() {
    local f
    f="$(mktemp)"
    tmpfiles+=("$f")
    printf '%s' "$f"
}

# The first value of a number or string key in a JSON file, or nothing.
json_num() { grep -o "\"$1\": [0-9.]*" "$2" | head -1 | grep -o '[0-9.]*$' || true; }
json_str() { grep -o "\"$1\": \"[^\"]*\"" "$2" | head -1 | sed 's/^[^:]*: "//; s/"$//' || true; }

# A smoke run writes every key name of the committed bench file it
# regenerates at full size, so a harness edit that stops emitting a key
# fails here, not only when someone next regenerates the file.
committed_keys_check() {
    local committed="$1" out="$2" missing
    missing=$(comm -23 <(grep -o '"[A-Za-z0-9_]*":' "$committed" | sort -u) \
        <(grep -o '"[A-Za-z0-9_]*":' "$out" | sort -u))
    if [[ -n "$missing" ]]; then
        echo "BENCH KEYS: the smoke output lacks keys of the committed $committed:" >&2
        echo "$missing" >&2
        exit 1
    fi
}

# Each gate is announced with `gate "<name>"`, which also records how
# long the previous gate took; the per-gate timing summary printed just
# before the final verdict makes slow gates easy to spot.
gate_names=()
gate_secs=()
_gate=""
_gate_t0=0
gate() {
    local now=$SECONDS
    if [[ -n "$_gate" ]]; then
        gate_names+=("$_gate")
        gate_secs+=("$((now - _gate_t0))")
    fi
    _gate="$1"
    _gate_t0=$now
    echo "==> $1"
}

gate "cargo fmt --check"
cargo fmt --check

gate "cargo clippy (deny warnings)"
cargo clippy --release --offline --workspace --all-targets -- -D warnings

gate "cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

gate "cargo build --release"
cargo build --release --offline --workspace

gate "cargo test"
cargo test -q --release --offline --workspace

gate "determinism matrix (DPM_SOLVER × DPM_THREADS)"
# The six golden placement checksums run inside `cargo test`
# (crates/core/tests/goldens.rs, every leg at {ftcs, spectral} x
# {1, 2, 4} threads). Here the dpm-diffusion suite, whose tests take
# their solver and thread count from `DiffusionConfig::from_env()`,
# runs once per (solver, threads) pair; a value that does not parse
# fails the suite instead of falling back to FTCS on one thread.
for solver in ftcs spectral; do
    for t in 1 2 4; do
        echo "  -> DPM_SOLVER=$solver DPM_THREADS=$t: dpm-diffusion test suite"
        DPM_SOLVER=$solver DPM_THREADS=$t cargo test -q --release --offline -p dpm-diffusion
    done
done

gate "kernel smoke test (perf_kernels --smoke)"
# Runs the kernel harness on a 64x64 grid, including the spectral-vs-FTCS
# race; the greps pin the race section (wall-clock jump comparison and
# the field-update FLOP model) into the emitted JSON.
kernels_out="$(mktemp_tracked)"
cargo run --release --offline -p dpm-bench --bin perf_kernels -- --smoke "$kernels_out" >/dev/null
grep -q '"bench": "perf_kernels"' "$kernels_out"
grep -q '"spectral_vs_ftcs"' "$kernels_out"
grep -q '"spectral_round_trip_ns"' "$kernels_out"
grep -q '"field_update_flops"' "$kernels_out"
grep -q '"flops_ratio"' "$kernels_out"
# The FTCS race run spends its whole 200-sweep budget, and its sweep
# count is the run's ftcs timer: a fold that counted strides instead of
# sweeps would read 8 here and skew the FLOP model.
grep -q '"e2e": {"max_steps": 200, "ftcs_steps": 200' "$kernels_out"
# The volumetric 7-point stencil section, timed at every thread count.
grep -q '"stencil3d"' "$kernels_out"
grep -q '"nz": 4' "$kernels_out"
grep -Eq '"kernel": "stencil3d", "threads": 8' "$kernels_out"
grep -q '"calibration"' "$kernels_out"
# The generic-length DCT round trip on a prime 113x113 grid, its two
# halves timed apart, and the compiled copy of the matrix kernel that ran.
grep -q '"spectral_generic"' "$kernels_out"
grep -q '"madds_per_ns"' "$kernels_out"
grep -q '"forward_ns": [0-9.]*, "inverse_ns": [0-9.]*,' "$kernels_out"
grep -A3 '"spectral_generic"' "$kernels_out" | grep -Eq '"simd": "(avx2|portable)"'
# The compiled copy of the advect kernel, on both advect samples.
grep -Eq '"kernel": "advect", .*"simd": "(avx2|portable)"' "$kernels_out"
grep -Eq '"kernel": "advect_windowed", .*"simd": "(avx2|portable)"' "$kernels_out"
# Local-diffusion advect on a 256x256 grid whose windows leave ~2% of
# the cells live (the share each round reports through
# RoundEvent::live_cells).
grep -q '"advect_windowed"' "$kernels_out"
grep -Eq '"live_share": 0\.0[1-3][0-9]*,' "$kernels_out"
# The density splat of a 512x512 clustered design with its cell order
# permuted, as diffl-hotspot's is.
grep -q '"splat_shuffled"' "$kernels_out"
grep -Eq '"kernel": "splat_shuffled", "threads": 8' "$kernels_out"
# The cost of one bare ThreadPool::for_each over 16 no-op items at each
# thread count. It has no ceiling: it records what every parallel kernel
# call pays to start its scoped workers (35-66 us at 2 threads, 70-120
# at 4 and 156-242 at 8 over 24 smoke runs on a 2-thread Intel Xeon).
grep -Eq '"fanout": \{"items": 16, "us_per_call": \{"1": [0-9.]+, "2": [0-9.]+, "4": [0-9.]+, "8": [0-9.]+\}\}' "$kernels_out"

echo "  -> throughput floors (ns/call ceilings scaled by the calibration loop)"
# Absolute wall-clock pins would break on the next slower container, so
# each kernel's smoke-run ns/call is divided by the calibration loop's
# ns/iter (a fixed serial FP dependency chain timed in the same
# process) and compared against a unitless ceiling. The ceilings carry
# roughly 5-10x headroom over the tuned kernels: they do not police
# scheduling jitter, they catch structural regressions — a stencil
# falling off its lane path runs ~5x slower. The `splat` ceiling is as
# loose as the stencils'; `splat_shuffled` below is the splat's tight
# check.
cal_ns=$(json_num ns_per_iter "$kernels_out")
floor_check() {
    local kernel="$1" ceiling="$2" ns
    ns=$(grep -o "\"kernel\": \"$kernel\", \"threads\": 1, \"lanes\": \"wide\", \"precision\": \"f64\", \"calls\": [0-9]*, \"ns_per_call\": [0-9.]*" "$kernels_out" |
        head -1 | grep -o '[0-9.]*$')
    awk -v ns="$ns" -v cal="$cal_ns" -v cap="$ceiling" -v k="$kernel" 'BEGIN {
        if (ns == "" || cal == "" || cal <= 0) {
            printf "KERNEL FLOOR: missing 1-thread wide/f64 sample or calibration for %s\n", k > "/dev/stderr"
            exit 1
        }
        if (ns > cap * cal) {
            printf "KERNEL FLOOR: %s at %.0f ns/call exceeds %.0f (= %s x %.3f ns calibration)\n", k, ns, cap * cal, cap, cal > "/dev/stderr"
            exit 1
        }
    }'
}
floor_check ftcs 40000
floor_check velocity 80000
floor_check stencil3d 300000
floor_check splat 600000
# The generic-length DCT round trip (113x113, the cosine-matrix path
# folded by symmetry; every axis runs one strided in-place line pass,
# the y pass gathering paired columns straight from the plane).
# Over 12 alternated smoke runs on a 2-thread Intel Xeon with AVX2, the
# AVX2 copy of the kernel ran at 190k-294k calibration units per call
# (median ~213k) and the portable copy of the same kernel at 224k-368k
# (median ~289k); in 8 earlier runs the unfolded AVX2 kernel it
# replaced read 276k-425k (median ~319k). With the strided pass, 16
# smoke runs of the AVX2 copy on the same host read 189k-319k (median
# ~234k in the last 10), against 180k-305k (median ~216k) for the
# transposing passes before it, alternated: each process lands in a
# fast mode (~180k-225k) or a slow one (~260k-320k), on both sides. The folded kernel's two
# copies overlap, so no ceiling can sit between them: the "simd" grep
# catches a lost dispatch exactly, and nothing here catches an AVX2
# copy that stops vectorising 4-wide (it would read like the portable
# copy, mostly under the ceiling). Where /proc/cpuinfo lists avx2, the
# kernel must dispatch to the AVX2 copy, and its ceiling, ~1.2x over
# that copy's worst run, catches only a structural slowdown: going back
# to indexing the cosines per term, or any change that costs ~1.6x the
# folded kernel's median (the unfolded kernel, at ~1.5x, passes on its
# faster runs). Elsewhere the ceiling stays at ~5x headroom over the
# portable copy's worst run, and the per-term modulo loop the matrix
# path replaced (~5.8M units) lands well above it.
if grep -qsw avx2 /proc/cpuinfo; then
    grep -A3 '"spectral_generic"' "$kernels_out" | grep -q '"simd": "avx2"' || {
        echo "KERNEL FLOOR: this CPU lists avx2 but the DCT ran its portable copy" >&2
        exit 1
    }
    floor_check dct2d_generic 350000
else
    floor_check dct2d_generic 2000000
fi
# The interpolating advect has a portable and an AVX2 copy (the lane
# kernel, four cells per step with explicit gathers); both advect
# samples record the copy that ran, and each reports the fastest of
# several runs (16 global-diffusion runs of 2 advects, 10 local runs).
# Measured by alternated smoke runs of each copy on a 2-thread Intel
# Xeon with AVX2 (the portable one from a scratch build whose dispatch
# always picks the portable loop):
#   advect (global, 64x64 grid, 2048 cells), 24 runs each: AVX2
#   12.4k-21.0k units per call, portable 27.9k-50.2k (12 earlier runs:
#   AVX2 12.6k-20.0k, portable 24.7k-42.8k);
#   advect_windowed (local, 256x256 grid, ~2% of the cells live; the
#   round's live-list build, which the AVX2 copy also runs four cells
#   at a time, is billed to its first advect), 12 runs each: AVX2
#   11.4k-18.0k, portable 15.9k-28.8k. The smoke sample took the
#   fastest of 3 local runs and once read 26.4k on a busy host; it now
#   takes the fastest of 10, as the full run does. 28 smoke runs of the
#   AVX2 copy at 10 runs read 9.6k-19.5k (12 of them alternated with
#   the 3-run build, which read 10.2k-20.4k: the spread is mostly
#   between processes, not between runs inside one).
# Where /proc/cpuinfo lists avx2, both samples must have run the AVX2
# copy. The global ceiling sits between the two copies, ~1.14x over the
# AVX2 copy's worst run of the 24 and ~1.16x under the portable copy's
# best, so it fails the portable copy too. The windowed ceiling sits
# ~1.2x over the AVX2 copy's worst smoke run (19.5k) and fails only a
# copy slower than that; the "simd" greps catch a lost dispatch exactly.
# Elsewhere the ceilings keep the portable copy's headroom: ~10x for the
# global advect, and for the windowed one ~2x over the list path, whose
# fallback to a walk over every cell again (frozen ones included; 72k-
# 128k units) still fails. At the ~30% live share of diffl-hotspot the
# two walks differ by only ~1.2x, inside run-to-run noise, which is why
# this sample keeps ~2% of the cells live.
if grep -qsw avx2 /proc/cpuinfo; then
    for kernel in advect advect_windowed; do
        grep -q "\"kernel\": \"$kernel\", \"threads\": 1, .*\"simd\": \"avx2\"" "$kernels_out" || {
            echo "KERNEL FLOOR: this CPU lists avx2 but $kernel ran its portable copy" >&2
            exit 1
        }
    done
    floor_check advect 24000
    floor_check advect_windowed 24000
else
    floor_check advect 600000
    floor_check advect_windowed 50000
fi
# The banded splat walks the netlist once per band and allocates
# nothing per call: 2.3M-4.3M units per call on this shuffled 512x512
# design (131k cells) on a 2-thread Intel Xeon, against 8.6M-11.6M for
# a scratch mutant that restores the per-call cell list and 8-row
# stripe buckets. The ceiling sits between them, ~1.4x from each
# side's worst run: the bucket kernel fails here, scheduling jitter
# does not.
floor_check splat_shuffled 6000000
# The final legalization every job ends in: DetailedLegalizer plus
# check_legality, one thread, on a fixed diffg-paper-shaped circuit
# (12k cells) after global diffusion, the fastest of 16 runs. Measured
# on a 2-thread Intel Xeon in smoke runs: the legalizer with x-ordered
# slot indexes and the flat legality pass read 332k-662k units per call
# (36 runs); the one that scanned a slot per balance move and sorted
# every slot at the end, with a Vec per row in the check, read
# 620k-1067k (24 runs, alternated with the first 24 of the others).
# Both sides are bimodal from process to process (about 330k-450k or
# 510k-660k; 620k-740k or 810k-1067k). The ceiling sits ~1.2x over the
# new code's worst run and under the old code's worst; it failed 11 of
# the old code's 24 runs.
grep -q '"legalize": {' "$kernels_out"
floor_check legalize 800000

gate "control-plane smoke test (perf_serve --smoke --trace-out)"
# One perf_serve run, its two legs at smoke sizes. The multi-tenant leg
# boots the dpm-ctl control plane in sharded mode over a backend
# registry seeded with one dead primary and a warm spare, opens 1000
# idle connections through the poll-based front-end, and replays three
# tenants' ECO loops: one NeedDesign upload each, then delta-only
# requests with a cold full resend mixed in. The binary asserts every
# request was answered, exact cache-hit accounting, and that the dead
# primary was permanently replaced; the greps pin the multi-tenant
# telemetry — cache traffic, delta traffic, and per-tenant tail
# latency — into the emitted JSON. The trace-overhead leg times the
# same requests with tracing off and on against a bare server.
ctl_out="$(mktemp_tracked)"
trace_jsonl="$(mktemp_tracked)"
cargo run --release --offline -p dpm-bench --bin perf_serve -- "$ctl_out" --smoke --trace-out "$trace_jsonl" >/dev/null
grep -q '"bench": "perf_serve"' "$ctl_out"
grep -q '"mode": "multi_tenant_smoke"' "$ctl_out"
grep -q '"tenants": 3' "$ctl_out"
grep -Eq '"idle_connections": 1000' "$ctl_out"
grep -Eq '"cache_hits": [1-9][0-9]*' "$ctl_out"
grep -Eq '"delta_requests": [1-9][0-9]*' "$ctl_out"
grep -Eq '"need_design": [1-9][0-9]*' "$ctl_out"
grep -Eq '"replacements": [1-9][0-9]*' "$ctl_out"
grep -q '"tenant0": {"weight"' "$ctl_out"
grep -q '"tenant1": {"weight"' "$ctl_out"
grep -q '"p99_us"' "$ctl_out"
grep -q '"trace_overhead": {"off_p50_us": [0-9.]*,' "$ctl_out"
committed_keys_check BENCH_serve.json "$ctl_out"
# The traced job's stitched span tree, exported as Chrome trace_event
# JSONL. The greps pin the fleet-wide trace shape: every line carries
# the same trace_id (root + front-end admission + shard dispatches +
# kernel spans all stitched into one tree), and the tenant label rides
# the root span's args.
grep -q '"name":"client.request"' "$trace_jsonl"
grep -q '"name":"ctl.admit' "$trace_jsonl"
grep -q '"name":"queue.wait"' "$trace_jsonl"
grep -q '"name":"shard.dispatch"' "$trace_jsonl"
grep -q '"name":"kernel.' "$trace_jsonl"
grep -q '"tenant":"tenant0"' "$trace_jsonl"
trace_ids=$(grep -o '"trace_id":"[0-9a-f]*"' "$trace_jsonl" | sort -u | wc -l)
if [[ "$trace_ids" -ne 1 ]]; then
    echo "TRACE BREAK: expected one trace_id in $trace_jsonl, found $trace_ids" >&2
    exit 1
fi

gate "bench guard (committed BENCH_*.json keys and throughput must survive)"
# A benchmark rewrite that drops a previously-recorded field silently
# erases history — every key present in the committed BENCH_*.json must
# survive in the worktree copy (new keys are fine). The only exception
# is a key whose measured mode no longer exists, named here one by one
# with the reason it went:
#   f32_speedup_1t   the f32 field mode it compared against was removed
#   lane_speedup_1t  the scalar lane mode it compared against was removed
retired_keys=('"f32_speedup_1t":' '"lane_speedup_1t":')
for f in BENCH_*.json; do
    [[ -f "$f" ]] || continue
    git cat-file -e "HEAD:$f" 2>/dev/null || continue
    head_keys="$(mktemp_tracked)"
    work_keys="$(mktemp_tracked)"
    git show "HEAD:$f" | grep -o '"[A-Za-z0-9_]*":' | sort -u >"$head_keys"
    grep -o '"[A-Za-z0-9_]*":' "$f" | sort -u >"$work_keys"
    lost=$(comm -23 "$head_keys" "$work_keys" |
        awk -v retired="${retired_keys[*]}" 'BEGIN { for (i = split(retired, r, " "); i > 0; i--) skip[r[i]] = 1 }
            !($0 in skip)')
    if [[ -n "$lost" ]]; then
        echo "BENCH GUARD: $f lost committed keys:" >&2
        echo "$lost" >&2
        exit 1
    fi
done
# Regression rule, kernel bench only: no single-thread sample may
# regress by more than 25% against the committed value for the same
# (kernel, grid, lanes, precision) configuration. What is compared
# depends on where the two files were recorded:
#   - same cpu_model and hardware_threads: raw ns/call;
#   - both files name a cpu_model, and the model or the thread count
#     differs: calibration units (ns_per_call / calibration ns_per_iter),
#     since raw ns/call across processors measures the processor;
#   - either file predates the cpu_model key: raw ns/call when
#     hardware_threads match, otherwise no comparison.
# Single-thread only: the multi-thread samples on an oversubscribed CI
# box measure scheduler jitter, not kernels. Legacy samples without
# lanes/precision keys are the production configuration (wide/f64);
# committed samples of the removed f32 mode have no worktree
# counterpart and are not compared.
sample_table() {
    awk '
        /"nx":/ {
            if (match($0, /"nx": [0-9]+/)) nx = substr($0, RSTART + 6, RLENGTH - 6)
        }
        /"kernel":/ {
            kernel = ""; threads = ""; lanes = "wide"; prec = "f64"; ns = ""
            if (match($0, /"kernel": "[a-z0-9_]+"/)) kernel = substr($0, RSTART + 11, RLENGTH - 12)
            if (match($0, /"threads": [0-9]+/)) threads = substr($0, RSTART + 11, RLENGTH - 11)
            if (match($0, /"lanes": "[a-z]+"/)) lanes = substr($0, RSTART + 10, RLENGTH - 11)
            if (match($0, /"precision": "[a-z0-9]+"/)) prec = substr($0, RSTART + 14, RLENGTH - 15)
            if (match($0, /"ns_per_call": [0-9.]+/)) ns = substr($0, RSTART + 15, RLENGTH - 15)
            if (kernel != "" && threads == "1" && ns != "") print kernel "/" nx "/" lanes "/" prec, ns
        }' "$1"
}
if [[ -f BENCH_kernels.json ]] && git cat-file -e "HEAD:BENCH_kernels.json" 2>/dev/null; then
    head_json="$(mktemp_tracked)"
    git show "HEAD:BENCH_kernels.json" >"$head_json"
    head_hw=$(json_num hardware_threads "$head_json")
    work_hw=$(json_num hardware_threads BENCH_kernels.json)
    head_cpu=$(json_str cpu_model "$head_json")
    work_cpu=$(json_str cpu_model BENCH_kernels.json)
    unit=""
    if [[ -n "$head_cpu" && -n "$work_cpu" && ("$head_cpu" != "$work_cpu" || "$head_hw" != "$work_hw") ]]; then
        unit="calibration units"
        head_scale=$(json_num ns_per_iter "$head_json")
        work_scale=$(json_num ns_per_iter BENCH_kernels.json)
        if [[ -z "$head_scale" || -z "$work_scale" ]]; then
            echo "BENCH GUARD: BENCH_kernels.json calibration missing (HEAD ${head_scale:-none}, worktree ${work_scale:-none})" >&2
            exit 1
        fi
    elif [[ -n "$head_hw" && "$head_hw" == "$work_hw" ]]; then
        unit="ns/call"
        head_scale=1
        work_scale=1
    fi
    if [[ -n "$unit" ]]; then
        head_tab="$(mktemp_tracked)"
        work_tab="$(mktemp_tracked)"
        sample_table "$head_json" >"$head_tab"
        sample_table BENCH_kernels.json >"$work_tab"
        awk -v hs="$head_scale" -v ws="$work_scale" -v unit="$unit" '
            NR == FNR { old[$1] = $2 / hs; next }
            ($1 in old) && $2 / ws > old[$1] * 1.25 {
                printf "BENCH GUARD: %s regressed %.4g -> %.4g %s (>25%%)\n", $1, old[$1], $2 / ws, unit > "/dev/stderr"
                bad = 1
            }
            END { exit bad }' "$head_tab" "$work_tab"
        echo "  -> HEAD (${head_cpu:-no cpu_model}, ${head_hw:-?} threads) vs worktree (${work_cpu:-no cpu_model}, ${work_hw:-?} threads): 1-thread $unit within 25% of committed"
    else
        echo "  -> hardware_threads differ and no cpu_model on both sides (HEAD ${head_hw:-none}, worktree ${work_hw:-none}); regression rule skipped"
    fi
fi

gate "shard smoke test (perf_shard --smoke)"
# Boots a 2-shard router over two TCP servers on ephemeral ports and
# replays one streamed request, then routes one tier stack as 2 z-slabs
# over the same two servers. The binary asserts the maximum-principle
# trace, error-free shards, nonzero progress frames, and a volumetric
# placement bit-identical to a direct VolumetricDiffusion run; the greps
# pin the shard telemetry and the volumetric leg into the emitted JSON.
shard_out="$(mktemp_tracked)"
cargo run --release --offline -p dpm-bench --bin perf_shard -- "$shard_out" --smoke >/dev/null
grep -q '"bench": "perf_shard"' "$shard_out"
grep -q '"shards": 2' "$shard_out"
grep -Eq '"halo_exchanges": [1-9][0-9]*' "$shard_out"
grep -q '"slabs": 2' "$shard_out"
committed_keys_check BENCH_shard.json "$shard_out"

gate "end-to-end smoke test (bench_e2e --smoke, untraced and traced)"
# Runs every bench_e2e workload for a few jobs through the public
# migration entry points. The binary exits non-zero when any job ends
# illegal or fails its workload's checks; the traced leg also re-runs
# each job with a recording observer and requires the traced placement
# to be bit-identical to the untraced one. A kernel change that breaks
# legality or observer transparency fails here.
for trace in 0 1; do
    e2e_log="$(mktemp_tracked)"
    if ! cargo run --release --offline -p dpm-bench --bin bench_e2e -- --smoke --all --trace "$trace" >"$e2e_log" 2>&1; then
        tail -n 40 "$e2e_log" >&2
        echo "E2E SMOKE: a bench_e2e workload failed its checks (--trace $trace)" >&2
        exit 1
    fi
done
echo "  -> every workload legal; traced placements bit-identical to untraced"

gate_names+=("$_gate")
gate_secs+=("$((SECONDS - _gate_t0))")
echo "==> gate timing"
for i in "${!gate_names[@]}"; do
    printf '    %5ss  %s\n' "${gate_secs[$i]}" "${gate_names[$i]}"
done
# Informational, not a gate: non-test code lines per crate.
echo "==> non-test code lines (scripts/loc.sh)"
scripts/loc.sh crates/*/src src | sed 's/^/    /'
echo "CI green."
