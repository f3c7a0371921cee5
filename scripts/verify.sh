#!/usr/bin/env bash
# Tier-1 verification gate: build, full test suite, sanitizer test suite,
# formatting, lints, and a quick bench smoke run. Everything runs offline.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q (HERO_THREADS=1: sharded executor, one worker)"
HERO_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q (HERO_THREADS=4: sharded executor, four workers)"
HERO_THREADS=4 cargo test -q --workspace

echo "==> cargo test -q (HERO_NO_SIMD=1: portable scalar GEMM kernel)"
HERO_NO_SIMD=1 cargo test -q --workspace

echo "==> GEMM kernel corpus (release: the shipped micro-kernel build)"
# Both kernels run one lane-generic micro-kernel that the AVX2 path gets
# only by inlining under #[target_feature]; the release build is the one
# that ships, so its rounding is checked bit for bit here too.
cargo test --release -p hero-tensor --test gemm_kernels

echo "==> conv kernel sweep (release: seeded geometries up to batch 64)"
# The debug-build conv corpus keeps its seeded cases small, so no seeded
# case reaches a long folded grid or the worker pool's threshold; the
# ignored sweep does, against the im2col lowering bit for bit.
cargo test --release -p hero-tensor --test conv_kernels -- --include-ignored

echo "==> depthwise kernel sweep (release: seeded geometries up to batch 70, 96 channels)"
# The depthwise kernels against the plain loop nest, bit for bit, under
# both GEMM kernels, including the ignored 120-geometry seeded sweep.
cargo test --release -p hero-tensor --test depthwise_kernels -- --include-ignored

echo "==> batch-norm kernel sweep (release: seeded shapes up to batch 64, 96 channels)"
# The batch-norm kernels against the per-element reference loops, bit for
# bit, including the ignored 300-shape seeded sweep.
cargo test --release -p hero-tensor --test batch_norm_kernels -- --include-ignored

echo "==> cargo test -q (sanitize feature: pool + tape sanitizers)"
cargo test -q -p hero-tensor --features sanitize
cargo test -q -p hero-autodiff --features sanitize
cargo test -q -p hero-nn --features sanitize

echo "==> cargo test -q (obs-off feature: instrumentation compiled out)"
cargo test -q -p hero-obs --features obs-off
cargo test -q -p hero-bench --features obs-off

echo "==> benchmark smoke (all four workloads at smoke size, untraced and traced)"
# The repository benchmark (benchmark/, its own Cargo workspace) checks each
# workload's correctness on every op; running its smoke tests here makes a
# program change that breaks a workload fail the gate.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> scripts/lint.sh"
scripts/lint.sh

echo "==> golden model-artifact byte pin (HERO_THREADS=1 vs 4, scalar GEMM)"
# The committed golden artifact (tests/golden/) pins the bytes of the
# fixed smoke training recipe. Regenerate it under both worker counts
# with the canonical scalar kernel: each run must reproduce the committed
# file bit-for-bit, so any drift in the trainer, RNG, serializer or
# executor sharding fails the gate loudly. (Regenerate the pin
# deliberately with `hero train --golden-recipe tests/golden/...` when a
# change is *meant* to alter the trajectory.) The regenerated artifact is
# then resumed: a final save's RESUME section holds the finished run, so
# the resume trains nothing and must write the same bytes back, which
# pins the RESUME codec's decode → encode round trip.
mkdir -p results/artifacts
for t in 1 4; do
  HERO_NO_SIMD=1 HERO_THREADS="$t" cargo run --release -p hero-bench --bin hero -- \
    train --golden-recipe "results/artifacts/golden_t$t.ha"
  cmp tests/golden/c10_resnet_hero_smoke.ha "results/artifacts/golden_t$t.ha" || {
    echo "FAIL: golden artifact bytes drifted at HERO_THREADS=$t"; exit 1; }
  HERO_NO_SIMD=1 HERO_THREADS="$t" cargo run --release -p hero-bench --bin hero -- \
    train --preset c10 --scale 0.05 --resume "results/artifacts/golden_t$t.ha" \
    --save "results/artifacts/golden_resumed_t$t.ha"
  cmp tests/golden/c10_resnet_hero_smoke.ha "results/artifacts/golden_resumed_t$t.ha" || {
    echo "FAIL: resuming the golden artifact changed its bytes at HERO_THREADS=$t"; exit 1; }
done
sha256sum tests/golden/c10_resnet_hero_smoke.ha
rm -f results/artifacts/golden_t1.ha results/artifacts/golden_t4.ha \
  results/artifacts/golden_resumed_t1.ha results/artifacts/golden_resumed_t4.ha

echo "==> artifact pipeline smoke (train --save -> inspect -> preflight -> quantize)"
# Drives the deterministic artifact pipeline end to end on the smoke
# preset and leaves the artifacts in results/artifacts/ for upload: a
# trained model, the preflight-stamped copy, and a 4-bit quantized
# snapshot. They embed the commit hash, so they are git-ignored. save->load->save byte identity and checkpoint/resume
# equality are covered by the test suites above; this exercises the
# same flow through the shipped binary.
cargo run --release -p hero-bench --bin hero -- \
  train --preset c10 --model resnet --method hero --scale 0.25 --epochs 2 \
  --seed 42 --git-rev "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  --save results/artifacts/model.ha
cargo run --release -p hero-bench --bin hero -- \
  artifact inspect --path results/artifacts/model.ha
cargo run --release -p hero-bench --bin hero -- \
  preflight --preset c10 --scale 0.25 --artifact results/artifacts/model.ha \
  --stamp results/artifacts/model_stamped.ha --out-dir results/analyze
cargo run --release -p hero-bench --bin hero -- \
  quantize --preset c10 --scale 0.25 --artifact results/artifacts/model_stamped.ha \
  --bits 3,4,8 --save results/artifacts/model_int4.ha --save-bits 4
cargo run --release -p hero-bench --bin hero -- \
  artifact inspect --path results/artifacts/model_int4.ha

echo "==> hero repro smoke (fig2 --fast, the cheapest reproduction target)"
# Drives the paper-reproduction entry point end to end at smoke scale so a
# broken `hero repro` dispatch fails the gate, not just a full rerun.
cargo run --release -p hero-bench --bin hero -- repro fig2 --fast

echo "==> hero repro fig1 --fast against its committed stdout"
# Fig. 1's post-training quantization sweeps run every model's soundness
# gate (one probe tape per sweep) and eval forward, VGG's max-pools
# included. Their stdout must not move by a byte; the committed copy is
# the AVX2 kernel's output.
cargo run --release -q -p hero-bench --bin hero -- repro fig1 --fast \
  > results/artifacts/repro_fig1_fast.txt
cmp results/repro_fig1_fast.txt results/artifacts/repro_fig1_fast.txt || {
  echo "FAIL: hero repro fig1 --fast stdout drifted from results/repro_fig1_fast.txt"; exit 1; }
rm -f results/artifacts/repro_fig1_fast.txt

echo "==> pre-flight analyzer over the example networks"
mkdir -p results/analyze
# `hero preflight` exits nonzero when the analyzer finds error-severity
# diagnostics, so the loop fails the gate if any example model regresses.
for m in resnet mobilenet vgg; do
  cargo run --release -p hero-bench --bin hero -- \
    preflight --preset c10 --model "$m" --scale 0.25 --bits 3,4,8 \
    --out-dir results/analyze
done

echo "==> quantization-noise crosscheck (certified bounds vs measurement)"
# Trains each smoke model briefly, then fake-quantizes every layer at every
# grid width and checks the measured probe-loss shift against the static
# zonotope noise certificate (DESIGN.md §17). Any soundness violation exits
# nonzero, as does a rank-constant raw sensitivity matrix; each model's
# `distinct_ranks` is recorded in the JSON. Ranking overlap is recorded but
# not gated: the 2-epoch smoke models are too noisy for a stable
# sensitivity ranking.
cargo run --release -p hero-bench --bin hero -- \
  noise-crosscheck --preset c10 --models resnet,mobilenet,vgg \
  --scale 0.25 --epochs 2 --out results/analyze/noise_crosscheck.json

echo "==> regenerated analyzer artifacts match the committed ones"
# The three preflight reports and the crosscheck JSON are deterministic,
# so a change that alters them must commit the regenerated files with it.
# (The artifact-pipeline preflight above rewrites resnet20_* from its own
# model; the preflight loop restores them.) MobileNet's scale-explosion
# bounds follow the GEMM kernel's FMA rounding, so the committed files
# are the AVX2 ones.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --exit-code --stat -- results/analyze || {
    echo "FAIL: regenerated results/analyze/ differs from the committed files"; exit 1; }
fi

echo "==> spectrum observatory smoke (hero spectrum, SGD vs HERO)"
mkdir -p results
# Trains two short runs with per-epoch spectrum telemetry, takes a deep
# SLQ + per-layer-trace probe of each final model, and writes the
# comparison artifact (density grids, per-layer traces, Spearman overlap
# between the empirical trace ranking and the static sensitivity
# ranking). The overlap is recorded, not gated: 2-epoch smoke models are
# too noisy for a stable ranking. Runs traced so the JSONL stream carries
# the per-epoch `spectrum` / `spectrum_layer` events and the summary
# rolls up the `spectrum/*` series. The trace and summary hold span
# timings, so they are git-ignored; only the spectrum JSON is committed.
HERO_TRACE=1 HERO_TRACE_RUN=spectrum \
  cargo run --release -p hero-bench --bin hero -- \
  spectrum --preset c10 --model resnet --methods sgd,hero \
  --scale 0.2 --epochs 2 --steps 6 --probes 2 \
  --out results/SPECTRUM_resnet_c10.json

echo "==> regenerated spectrum artifact matches the committed one"
# The spectrum document is deterministic (a traced run writes the same
# bytes as an untraced one), so a change that alters it must commit the
# regenerated file. Like results/analyze/, the committed file is the AVX2
# one: under the scalar kernel the FMA rounding difference moves its
# digits.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --exit-code --stat -- results/SPECTRUM_resnet_c10.json || {
    echo "FAIL: regenerated results/SPECTRUM_resnet_c10.json differs from the committed file"; exit 1; }
fi

echo "==> GEMM kernel sweep (gemm_shapes --quick, GFLOP/s per variant)"
cargo bench -p hero-bench --bench gemm_shapes -- --quick
# Tabulate, under a header line giving each kernel's lane width, GFLOP/s
# per shape across kernel variants (reference / scalar / avx2fma), then
# per preset conv layer across the direct kernels (forward
# / dW / dX), then µs and GB/s per batch-norm layer and the pool lease
# time, into a diff-friendly artifact so CI surfaces SIMD speedups — and
# regressions — next to the raw JSON.
awk -F'"' '
  /"name"/ && ($4 ~ /_bn_/ || $4 ~ /^pool_/) {
    name = $4
    ns = $0; sub(/.*"ns_per_iter": /, "", ns); sub(/[,}].*/, "", ns)
    gb = $0; sub(/.*"gbps": /, "", gb); sub(/[,}].*/, "", gb)
    if (sub(/_fwd$/, "", name)) { bns[++nb] = name; bn[name "/fwd"] = ns; bn[name "/fwdgb"] = gb }
    else if (sub(/_bwd$/, "", name)) { bn[name "/bwd"] = ns; bn[name "/bwdgb"] = gb }
    else { other[++no] = name; bn[name "/ns"] = ns }
    next
  }
  /"name"/ {
    name = $4
    gf = $0; sub(/.*"gflops": /, "", gf); sub(/[,}].*/, "", gf)
    if (sub(/_fwd$/, "", name)) variant = "fwd"
    else if (sub(/_dw$/, "", name)) variant = "dw"
    else if (sub(/_dx$/, "", name)) variant = "dx"
    else if (sub(/_reference$/, "", name)) variant = "reference"
    else if (sub(/_scalar$/, "", name)) variant = "scalar"
    else if (sub(/_avx2fma$/, "", name)) variant = "avx2fma"
    else variant = "single"
    if (variant == "fwd") convs[++nc] = name
    else if (variant != "dw" && variant != "dx" && !(name in seen)) { order[++n] = name; seen[name] = 1 }
    gflops[name "/" variant] = gf
    if ((variant == "scalar" || variant == "avx2fma") && /"lane_width"/) {
      lw = $0; sub(/.*"lane_width": /, "", lw); sub(/[,}].*/, "", lw)
      lanes[variant] = lw + 0
    }
  }
  END {
    printf "lane width (chains per vector; no result bit depends on it): scalar %d, avx2fma %d\n\n", lanes["scalar"], lanes["avx2fma"]
    printf "%-34s %10s %10s %10s %8s\n", "shape", "reference", "scalar", "avx2fma", "simd-x"
    for (i = 1; i <= n; i++) {
      s = order[i]
      ref = gflops[s "/reference"]; sc = gflops[s "/scalar"]; sx = gflops[s "/avx2fma"]
      if (sc == "" || sx == "") {
        printf "%-34s %10s\n", s, gflops[s "/single"]
      } else {
        printf "%-34s %10.2f %10.2f %10.2f %7.2fx\n", s, ref, sc, sx, sx / sc
      }
    }
    printf "\n%-34s %10s %10s %10s\n", "direct conv kernel", "forward", "dW", "dX"
    for (i = 1; i <= nc; i++) {
      s = convs[i]
      printf "%-34s %10.2f %10.2f %10.2f\n", s, gflops[s "/fwd"], gflops[s "/dw"], gflops[s "/dx"]
    }
    printf "\n%-34s %10s %10s %10s %10s\n", "batch-norm kernel", "fwd us", "fwd GB/s", "bwd us", "bwd GB/s"
    for (i = 1; i <= nb; i++) {
      s = bns[i]
      printf "%-34s %10.2f %10.2f %10.2f %10.2f\n", s, bn[s "/fwd"] / 1e3, bn[s "/fwdgb"], bn[s "/bwd"] / 1e3, bn[s "/bwdgb"]
    }
    for (i = 1; i <= no; i++) printf "\n%-34s %10.1f ns\n", other[i], bn[other[i] "/ns"]
  }
' results/BENCH_gemm.json > results/BENCH_gemm_gflops.txt
cat results/BENCH_gemm_gflops.txt

echo "==> observability overhead gate (disabled tracer vs obs-off build, interleaved pairs)"
# One run's HERO step follows host load by more than the 3% bound, so the
# default and obs-off builds run alternately in 31 short (--quick) pairs,
# the first binary alternating between pairs, and the gate judges the
# median pair ratio. Short runs keep a pair's two halves close in time.
overhead_exe() {
  cargo bench -p hero-bench --bench overhead --no-run "$@" 2>&1 |
    sed -n 's/.*Executable .*(\(.*\))$/\1/p'
}
on_exe="$(overhead_exe)"
off_exe="$(overhead_exe --features obs-off)"
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
step_ns() { sed -n 's/.*"overhead_step_HERO".*"ns_per_iter": \([0-9.eE+-]*\).*/\1/p' "$1"; }
for pair in $(seq 31); do
  if ((pair % 2)); then sides="on off"; else sides="off on"; fi
  for side in $sides; do
    exe="$on_exe"
    if [ "$side" = off ]; then exe="$off_exe"; fi
    HERO_BENCH_OUT="$out_dir/$side.json" "$exe" --bench --quick >/dev/null
  done
  awk -v pair="$pair" -v first="${sides%% *}" -v on="$(step_ns "$out_dir/on.json")" \
    -v off="$(step_ns "$out_dir/off.json")" 'BEGIN {
    printf "pair %d (%s first): instrumented %.3f ms/iter, obs-off %.3f ms/iter, ratio %.4f\n",
      pair, first, on / 1e6, off / 1e6, on / off }'
done | tee "$out_dir/pairs.txt"
sed 's/.*ratio //' "$out_dir/pairs.txt" | sort -g | awk '{ r[NR] = $1 } END {
  printf "overhead_step_HERO: median pair ratio %.4f over %d pairs\n", r[(NR + 1) / 2], NR
  if (r[(NR + 1) / 2] > 1.03) { print "FAIL: disabled instrumentation costs more than 3%"; exit 1 }
}'

echo "verify.sh: all gates passed"
