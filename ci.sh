#!/usr/bin/env bash
# Local CI gate, fail-fast ordered: the cheap source-level checks (format,
# unsafe audit, single-launcher audit) run before anything compiles, lint
# (clippy) runs before the release build it shares artifacts with, then the
# test suites (the workspace, vp-tensor, vp-core, vp-model and the root
# `*_pinned_bitwise` digests again on the portable and AVX2 register tiles,
# and benchmark/ against crates/*), and last the `repro`
# experiments that gate themselves. Every structural fact is asserted once, in Rust: by
# `cargo test --workspace`, and by the exit status of `repro check`
# (static verification sweep), `repro tpsweep` (each PP x TP point's
# schedule gated by `vp-check` only) and `repro timeline`
# (sim-vs-measured drift bound, no dropped events, finite loss). This
# script adds only what needs two processes: `check --json` rerun
# byte-identical, and training rerun byte-identical. Speed is not gated here; it is measured, with
# repetitions, by `benchmark/` (see benchmark/README.md).
# Runs fully offline (the workspace has no external dependencies).
# JSON artifacts land in target/ so the working tree stays clean.
# A per-stage wall-time summary prints at the end.
set -euo pipefail
cd "$(dirname "$0")"

STAGE_NAMES=()
STAGE_SECS=()

# stage <name> <command...> — announce, run, and record wall time.
stage() {
    local name="$1"
    shift
    echo "==> $name"
    local t0=$SECONDS
    "$@"
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((SECONDS - t0)))
}

stage_summary() {
    echo
    echo "---- stage wall times ----"
    local i total=0
    for i in "${!STAGE_NAMES[@]}"; do
        printf '%5ds  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
        total=$((total + STAGE_SECS[i]))
    done
    printf '%5ds  total\n' "$total"
}

# --- source-level checks: no compilation needed, fail in seconds -----------

fmt_check() {
    cargo fmt --check
}

unsafe_audit() {
    # Two audited files may hold unsafe code: the kernel pool and the GEMM
    # microkernels' intrinsics (simd.rs); every crate but vp-tensor carries
    # #![forbid(unsafe_code)]. This catches a crate that drops the
    # attribute or a new unsafe block sneaking in elsewhere, vp-tensor's
    # other files included. Token match (\bunsafe\b), not 'unsafe ': the
    # old pattern missed `unsafe{`, `unsafe(` and other spellings the
    # compiler accepts.
    local allowed="crates/tensor/src/pool.rs crates/tensor/src/simd.rs"
    local found f
    found=$(grep -rln --include='*.rs' -E '\bunsafe\b' src crates | sort || true)
    for f in $found; do
        case " $allowed " in
            *" $f "*) ;;
            *)
                echo "unsafe code outside the audited allowlist: $f" >&2
                exit 1
                ;;
        esac
    done
    echo "unsafe audit OK: confined to [$allowed]"
}

launcher_audit() {
    # One launcher: `device_loop` is called from one place, and outside
    # tests crates/runtime/src starts device threads (`thread::spawn`,
    # `thread::scope`, `thread::Builder`) at one site, in the device group
    # (group.rs), so a second launcher cannot grow back beside it unnoticed.
    local calls sites
    calls=$(grep -rhE '\bdevice_loop\(' crates/runtime/src | grep -vc 'fn device_loop(' || true)
    sites=$(for f in crates/runtime/src/*.rs crates/runtime/src/serve/*.rs; do
        awk -v file="${f#crates/runtime/src/}" '
            /^#\[cfg\(test\)\]/ { exit }
            /thread::(spawn|scope|Builder)/ { print file ":" FNR }' "$f"
    done)
    if [ "$calls" != 1 ] || [ "$(printf '%s\n' "$sites" | grep -c .)" != 1 ] \
        || [[ "$sites" != group.rs:* ]]; then
        echo "crates/runtime/src: $calls device_loop call sites and thread spawn sites [" $sites "]," \
            "want 1 call site and 1 spawn site, in group.rs" >&2
        exit 1
    fi
    echo "launcher audit OK: one device_loop call site, one spawn site ($sites)"
}

init_audit() {
    # Each device builds only its own shard: outside tests, crates/runtime/src
    # builds the whole model only on the single-device reference paths
    # (`ReferenceTrainer::new`, `reference_decode`, `train_reference*`).
    # Training and serving devices build the pieces they host through
    # `FullModel::{block, pos, input_rows, output_rows}`, so a device thread
    # holding a whole `[V, h]` table cannot come back unnoticed.
    local sites bad
    sites=$(for f in crates/runtime/src/*.rs crates/runtime/src/serve/*.rs; do
        awk -v file="${f#crates/runtime/src/}" '
            /^#\[cfg\(test\)\]/ { exit }
            match($0, /fn [A-Za-z0-9_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
            /FullModel::build\(/ { print file ":" fn }' "$f"
    done)
    bad=$(printf '%s\n' "$sites" | grep -vE \
        '^(checkpoint\.rs:new|serve/mod\.rs:reference_decode|reference\.rs:train_reference[a-z_]*)?$' || true)
    if [ -n "$bad" ]; then
        echo "crates/runtime/src: FullModel::build off the reference paths:" $bad >&2
        exit 1
    fi
    # Serving holds each output-table shard once, as the pack its logits
    # GEMM reads (`PackedB::pack_nt_rows` over `FullModel::output_rows`
    # slabs): decode never reads the value an `OutputShard` would keep.
    local held
    held=$(for f in crates/runtime/src/serve/*.rs; do
        awk -v file="${f#crates/runtime/src/}" '
            /^#\[cfg\(test\)\]/ { exit }
            /OutputShard::(new|from_full)\(/ { print file ":" FNR }' "$f"
    done)
    if [ -n "$held" ]; then
        echo "crates/runtime/src/serve: an OutputShard built for serving:" $held >&2
        exit 1
    fi
    echo "init audit OK: FullModel::build only in" $sites "; serving builds no OutputShard"
}

# --- lint, build, test -----------------------------------------------------

clippy_lint() {
    cargo clippy --workspace --all-targets --release -- -D warnings \
        -D clippy::needless_pass_by_value \
        -D clippy::redundant_clone \
        -D clippy::semicolon_if_nothing_returned
}

build_release() {
    cargo build --workspace --release
}

test_release() {
    cargo test --workspace --release --quiet
}

portable_tile_test() {
    # `.cargo/config.toml` builds for the host CPU, so the suites above only
    # ever see one of gemm.rs's three register tiles (8x32 on the AVX-512
    # runners) — and `m < MR`, the row-kernel rule, changes meaning with
    # the tile, as do the pre-packed output-layer panels and the decode
    # sweep's chunking (vp-core), and the tiled chunk attention under the
    # block decode pins (vp-model). RUSTFLAGS replaces the config's flags:
    # baseline x86-64 selects the portable 4x8 tile, x86-64-v3 the AVX2
    # 6x16 intrinsics kernel (simd.rs), each in its own target dir. The
    # root `*_pinned_bitwise` digests run on each tile too: the kernels have
    # one numeric path, so a pin holds one digest on every tile.
    RUSTFLAGS="-C target-cpu=x86-64" \
        cargo test -p vp-tensor -p vp-core -p vp-model --release --quiet --target-dir target/portable
    RUSTFLAGS="-C target-cpu=x86-64" \
        cargo test -p vocab-parallelism --release --quiet --target-dir target/portable --test integration pinned_bitwise
    RUSTFLAGS="-C target-cpu=x86-64-v3" \
        cargo test -p vp-tensor -p vp-core -p vp-model --release --quiet --target-dir target/avx2
    RUSTFLAGS="-C target-cpu=x86-64-v3" \
        cargo test -p vocab-parallelism --release --quiet --target-dir target/avx2 --test integration pinned_bitwise
}

benchmark_test() {
    # benchmark/ is its own workspace with path dependencies on crates/*, so
    # the workspace suite never notices a runtime API change that breaks it.
    cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
}

# --- self-gating experiments: trust the exit status --------------------------

repro() {
    cargo run -p vp-bench --release --bin repro -- "$@"
}

# rerun_identical <experiment> <stem> — the experiment's JSON is
# contractually deterministic (sorted diagnostics, fixed seeds, no
# wall-clock fields), so two processes must write the same bytes.
rerun_identical() {
    repro "$1" --json --out "target/$2.json"
    repro "$1" --json --out "target/$2_run2.json" >/dev/null
    if ! cmp -s "target/$2.json" "target/$2_run2.json"; then
        echo "repro $1 --json is not deterministic: two runs differ" >&2
        diff "target/$2.json" "target/$2_run2.json" >&2 || true
        exit 1
    fi
    echo "$2.json OK: gate passed, byte-identical reruns"
}

determinism_gate() {
    VP_THREADS=4 cargo run --release --example train_tiny_gpt > target/determinism_run1.txt
    VP_THREADS=4 cargo run --release --example train_tiny_gpt > target/determinism_run2.txt
    if ! diff -q target/determinism_run1.txt target/determinism_run2.txt >/dev/null; then
        echo "training is not deterministic: two identical runs diverged" >&2
        diff target/determinism_run1.txt target/determinism_run2.txt >&2 || true
        exit 1
    fi
    echo "determinism OK: both runs byte-identical (losses included)"
}

# --- the gate, fail-fast ordered -------------------------------------------

stage "cargo fmt --check" fmt_check
stage "unsafe audit (token match, allowlisted files only)" unsafe_audit
stage "launcher audit (one device_loop call site, one device-thread spawn site: the device group)" launcher_audit
stage "init audit (FullModel::build only on the single-device reference paths; serving keeps its output table as a pack, no OutputShard)" init_audit
stage "cargo clippy --workspace --all-targets -- -D warnings (+ pedantic subset)" clippy_lint
stage "cargo build --workspace --release" build_release
stage "cargo test --workspace --release" test_release
stage "cargo test -p vp-tensor -p vp-core -p vp-model and the root pins, target-cpu=x86-64 and x86-64-v3 (the portable and AVX2 register tiles)" portable_tile_test
stage "cargo test --manifest-path benchmark/Cargo.toml (the frozen benchmark against crates/*)" benchmark_test
stage "repro check x2 (static schedule verification sweep)" rerun_identical check CHECK
stage "repro tpsweep (PP x TP crossover, gated by vp-check only)" repro tpsweep --json --out target/TPSWEEP.json
stage "training determinism (two identical runs, VP_THREADS=4)" determinism_gate
stage "repro trace (simulated Chrome trace exports to target/traces)" repro trace
stage "repro csv (Figure 11-14 data series to target/csv)" repro csv
stage "repro timeline (measured trace exports, sim-vs-measured drift gate)" repro timeline --json --out target/TIMELINE.json

stage_summary
echo "CI gate passed."
