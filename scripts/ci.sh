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

gate "determinism matrix (DPM_SOLVER × DPM_THREADS, pinned checksums)"
# The dpm-par decomposition is independent of the worker count, so the
# golden placement checksums must reproduce these pinned literals at
# every (solver, thread count) combination — for both the planar run
# and the volumetric (3-tier) leg. The literals are part of the
# contract: any kernel change that shifts a single output bit fails
# here instead of being silently re-baselined. The dpm-diffusion test
# suite (which pins the lane runs against a per-bin oracle on its own
# seam and random-mask fixtures) runs once per (solver, threads) pair.
# The `local` leg is a windowed DIFF(L) run in which most cells sit in
# frozen bins every round, so it pins the live-cell advect list where the
# list actually skips cells; local diffusion always steps FTCS, so one
# literal holds under both solvers. The field is always f64, so these
# five literals are the whole contract.
declare -A golden_plain=([ftcs]=17e4ee4d823bc613 [spectral]=87b3c85022bddcf4)
declare -A golden_vol=([ftcs]=dcc914ce61fcb375 [spectral]=38f1b000b964ad02)
golden_local=633c88d3edb0ecf4
for solver in ftcs spectral; do
    for t in 1 2 4; do
        echo "  -> DPM_SOLVER=$solver DPM_THREADS=$t: dpm-diffusion test suite"
        DPM_SOLVER=$solver DPM_THREADS=$t cargo test -q --release --offline -p dpm-diffusion
        got=$(DPM_SOLVER=$solver DPM_THREADS=$t cargo run --release --offline -p dpm-bench --bin golden_checksum 2>/dev/null)
        if [[ "$got" != "${golden_plain[$solver]}" ]]; then
            echo "DETERMINISM BREAK: $solver threads=$t planar checksum $got != ${golden_plain[$solver]}" >&2
            exit 1
        fi
        got=$(DPM_SOLVER=$solver DPM_THREADS=$t cargo run --release --offline -p dpm-bench --bin golden_checksum -- vol 2>/dev/null)
        if [[ "$got" != "${golden_vol[$solver]}" ]]; then
            echo "DETERMINISM BREAK: $solver threads=$t volumetric checksum $got != ${golden_vol[$solver]}" >&2
            exit 1
        fi
        got=$(DPM_SOLVER=$solver DPM_THREADS=$t cargo run --release --offline -p dpm-bench --bin golden_checksum -- local 2>/dev/null)
        if [[ "$got" != "$golden_local" ]]; then
            echo "DETERMINISM BREAK: $solver threads=$t windowed local checksum $got != $golden_local" >&2
            exit 1
        fi
    done
    echo "  -> $solver planar+volumetric+local checksums pinned across threads"
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
# The volumetric 7-point stencil section, timed at every thread count.
grep -q '"stencil3d"' "$kernels_out"
grep -q '"nz": 4' "$kernels_out"
grep -Eq '"kernel": "stencil3d", "threads": 8' "$kernels_out"
grep -q '"calibration"' "$kernels_out"
# The generic-length DCT round trip on a prime 113x113 grid.
grep -q '"spectral_generic"' "$kernels_out"
grep -q '"madds_per_ns"' "$kernels_out"
# Local-diffusion advect on a 256x256 grid whose windows leave ~2% of
# the cells live (the share each round reports through
# RoundEvent::live_cells).
grep -q '"advect_windowed"' "$kernels_out"
grep -Eq '"live_share": 0\.0[1-3][0-9]*,' "$kernels_out"
# The density splat of a 512x512 clustered design with its cell order
# permuted, as diffl-hotspot's is.
grep -q '"splat_shuffled"' "$kernels_out"
grep -Eq '"kernel": "splat_shuffled", "threads": 8' "$kernels_out"

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
floor_check advect 600000
# The generic-length DCT round trip (113x113, cosine-matrix path) runs
# at ~480k calibration units; the ceiling leaves ~4x headroom, and the
# per-term modulo loop it replaced (~5.8M units) lands well above it.
floor_check dct2d_generic 2000000
# The windowed local advect visits only the live cells: 20k-27k units
# per call on a 2-thread Intel Xeon, against 72k-128k for a local path
# that walks every cell again (frozen ones included). The ceiling sits
# between them, ~2x over the list path: a fallback to the full walk
# fails here, and scheduling jitter does not. At the ~30% live share of
# diffl-hotspot the two paths differ by only ~1.2x, inside run-to-run
# noise, which is why this sample keeps ~2% of the cells live.
floor_check advect_windowed 50000
# The banded splat walks the netlist once per band and allocates
# nothing per call: 2.3M-4.3M units per call on this shuffled 512x512
# design (131k cells) on a 2-thread Intel Xeon, against 8.6M-11.6M for
# a scratch mutant that restores the per-call cell list and 8-row
# stripe buckets. The ceiling sits between them, ~1.4x from each
# side's worst run: the bucket kernel fails here, scheduling jitter
# does not.
floor_check splat_shuffled 6000000

gate "service smoke test (perf_serve --smoke --pipeline 2)"
# Boots a real server on an ephemeral port, replays a deterministic
# open-loop schedule with two requests pipelined per connection, and
# asserts every request was answered and the shutdown drained cleanly
# (the binary exits non-zero otherwise). The schedule includes streamed
# requests, so at least one in-flight progress frame must arrive before
# its response, and the wire-level stats snapshot must agree with the
# server's own counters — both enforced inside the binary; the greps
# below pin the observability fields into the emitted JSON.
smoke_out="$(mktemp_tracked)"
cargo run --release --offline -p dpm-bench --bin perf_serve -- "$smoke_out" --smoke --pipeline 2 >/dev/null
grep -q '"bench": "perf_serve"' "$smoke_out"
grep -q '"hardware_threads"' "$smoke_out"
grep -q '"p99_us"' "$smoke_out"
grep -q '"head_of_line"' "$smoke_out"
grep -Eq '"progress_frames": [1-9][0-9]*' "$smoke_out"

gate "control-plane smoke test (perf_serve --smoke --tenants 2)"
# Boots the dpm-ctl control plane in sharded mode over a backend
# registry seeded with one dead primary and a warm spare, opens 1000
# idle connections through the poll-based front-end, and replays two
# tenants' ECO loops: one NeedDesign upload each, then delta-only
# requests with a cold full resend mixed in. The binary asserts every
# request was answered, exact cache-hit accounting, and that the dead
# primary was permanently replaced; the greps pin the multi-tenant
# telemetry — cache traffic, delta traffic, and per-tenant tail
# latency — into the emitted JSON.
ctl_out="$(mktemp_tracked)"
cargo run --release --offline -p dpm-bench --bin perf_serve -- "$ctl_out" --smoke --tenants 2 >/dev/null
grep -q '"bench": "perf_serve"' "$ctl_out"
grep -q '"mode": "multi_tenant_smoke"' "$ctl_out"
grep -q '"tenants": 2' "$ctl_out"
grep -Eq '"idle_connections": 1000' "$ctl_out"
grep -Eq '"cache_hits": [1-9][0-9]*' "$ctl_out"
grep -Eq '"delta_requests": [1-9][0-9]*' "$ctl_out"
grep -Eq '"need_design": [1-9][0-9]*' "$ctl_out"
grep -Eq '"replacements": [1-9][0-9]*' "$ctl_out"
grep -q '"tenant0": {"weight"' "$ctl_out"
grep -q '"tenant1": {"weight"' "$ctl_out"
grep -q '"p99_us"' "$ctl_out"

gate "trace smoke test (perf_serve --smoke --tenants 2 --trace-out)"
# Re-runs the control-plane smoke with tracing armed on one extra job
# and exports its stitched span tree as Chrome trace_event JSONL. The
# greps pin the fleet-wide trace shape: every line carries the same
# trace_id (root + front-end admission + shard dispatches + kernel
# spans all stitched into one tree), and the tenant label rides the
# root span's args.
trace_json="$(mktemp_tracked)"
trace_jsonl="$(mktemp_tracked)"
cargo run --release --offline -p dpm-bench --bin perf_serve -- "$trace_json" --smoke --tenants 2 --trace-out "$trace_jsonl" >/dev/null
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
echo "CI green."
