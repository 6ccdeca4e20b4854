#!/usr/bin/env bash
# Offline CI gate: formatting, clippy (workspace lints), the sor-check
# call-graph rules, and the test suite. Everything runs against the vendored
# dependencies under vendor/ — no network, no registry.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Optional ThreadSanitizer leg (nightly-only, allowed to fail — see the
# `tsan` job in .github/workflows/ci.yml). It is the workspace's only
# concurrency check, on the suites that really run across threads. TSan
# reports data races, and lock-order inversions (potential deadlocks) on
# the mutexes it intercepts: pthread ones. The futex-based std::sync
# locks behind the vendored parking_lot reach it only as atomics.
# SOR_TSAN=1 runs it after the normal gate; SOR_TSAN_ONLY=1 runs it and
# exits, so the CI job doesn't repeat the stable-toolchain work the
# `checks` job already did.
run_tsan() {
  echo "==> ThreadSanitizer (nightly, -Zsanitizer=thread)"
  if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "tsan: no nightly toolchain installed; skipping"
    return 0
  fi
  if ! rustup component list --toolchain nightly 2>/dev/null | grep -q "^rust-src (installed)"; then
    echo "tsan: nightly rust-src component missing (-Zbuild-std needs it); skipping"
    return 0
  fi
  local host
  host="$(rustc -vV | sed -n 's/^host: //p')"
  mkdir -p target/tsan
  # TSan needs the sanitizer runtime in std, hence -Zbuild-std and an
  # explicit target triple. The suites under test are the ones with real
  # cross-thread code: one recorder shared by several threads (obs
  # concurrency + window_concurrency) and the telemetry scrape thread
  # reading a plane the engine writes (telemetry_scrape).
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$host" \
    -p sor-obs --test concurrency \
    -p sor-obs --test window_concurrency \
    -p sor-serve --test telemetry_scrape \
    -- --test-threads=4 2>&1 | tee target/tsan/tsan.log
}

if [ "${SOR_TSAN_ONLY:-0}" = "1" ]; then
  run_tsan
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace ([workspace.lints]: no unwrap/expect/panic! in library code, no lossy casts, no exact float compares; a stale #[expect] fails)"
cargo clippy --workspace --all-targets

echo "==> sor-check (panic reachability, determinism, dead API; any finding fails) + SARIF artifact"
mkdir -p target/sor-check
cargo run -q -p sor-check -- --format sarif --output target/sor-check/sor-check.sarif

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1) and workspace tests"
cargo test -q
cargo test -q --workspace

echo "==> instrumented smoke experiment (BENCH_*.json artifact)"
mkdir -p target/obs
cargo run -q --release -p sor-bench --bin tables -- \
  --exp e1 --quick --metrics-dir target/obs > /dev/null
test -s target/obs/BENCH_e1.json

echo "==> online serving smoke (5 epochs, failure + recovery, snapshot + timeline artifacts)"
mkdir -p target/serve
cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 5 --rate 8 --patterns 2 --fail-at 2 --restore-after 2 \
  --compare-fresh --seed 7 --quiet \
  --metrics-out target/serve/serve-metrics.json \
  --timeline-out target/serve/serve-timeline.json > target/serve/serve-snapshot.txt
test -s target/serve/serve-snapshot.txt
test -s target/serve/serve-metrics.json
grep -q "hits=" target/serve/serve-snapshot.txt
test -s target/serve/serve-timeline.json
grep -q '"epochs"' target/serve/serve-timeline.json
grep -q '"sor-timeline/1"' target/serve/serve-timeline.json

echo "==> compact snapshot smoke (byte-identical stdout across formats, trade-off table)"
mkdir -p target/compact
# The compact codec is verified lossless, so a seeded serve run must
# publish byte-identical stdout whether snapshots carry explicit paths
# or compact next-hop tables.
cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 5 --rate 8 --patterns 2 --fail-at 2 --restore-after 2 \
  --seed 7 --quiet > target/compact/explicit.out
cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 5 --rate 8 --patterns 2 --fail-at 2 --restore-after 2 \
  --seed 7 --quiet --snapshot-format compact > target/compact/compact.out
cmp target/compact/explicit.out target/compact/compact.out
# Inert flag combinations are usage errors, not silent no-ops.
if cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 2 --quiet --journal-epochs 4 > /dev/null 2>&1; then
  echo "expected --journal-epochs without --journal-out to be rejected"
  exit 1
fi
# The trade-off table reports both encodings' footprints per sparsity.
cargo run -q --release --bin sor -- compact --graph abilene --max-s 3 \
  --quiet > target/compact/tradeoff.txt
grep -q "compact b/n" target/compact/tradeoff.txt
grep -q "explicit b/n" target/compact/tradeoff.txt

echo "==> flight recorder smoke (byte-neutral stdout, breach dumps, forensics attribution)"
mkdir -p target/journal
# Attaching the journal must not change published output: the same seeded
# run with and without --journal-out emits byte-identical stdout.
cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 5 --rate 8 --patterns 2 --fail-at 2 --restore-after 2 \
  --seed 9 --quiet > target/journal/plain.out
cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 5 --rate 8 --patterns 2 --fail-at 2 --restore-after 2 \
  --seed 9 --quiet --journal-out target/journal/journal.json > target/journal/attached.out
cmp target/journal/plain.out target/journal/attached.out
test -s target/journal/journal.json
grep -q '"sor-journal/1"' target/journal/journal.json
# An unreachable hit-rate SLO breaches deterministically, so the engine
# writes breach-stamped ring dumps; forensics must attribute the run's
# congestion movement to the injected failure.
rm -f target/journal/breach-epoch*.json
cargo run -q --release --bin sor -- serve --graph grid:4x4 \
  --epochs 8 --rate 4 --patterns 1 --pattern-pairs 2 \
  --fail-at 3 --restore-after 2 --seed 11 --quiet \
  --slo-min-hit-rate 2.0 \
  --dump-on-breach target/journal/breach > /dev/null
dump="$(ls target/journal/breach-epoch*.json | tail -n 1)"
test -s "$dump"
grep -q '"sor-journal/1"' "$dump"
grep -q '"reason":"slo-breach"' "$dump"
cargo run -q --release --bin sor -- forensics --journal "$dump" \
  --json target/journal/forensics.json > target/journal/forensics.txt
grep -q "top cause: failure" target/journal/forensics.txt
grep -q '"sor-forensics/1"' target/journal/forensics.json
grep -q '"top_cause":"failure"' target/journal/forensics.json

echo "==> telemetry scrape smoke (loopback HTTP exposition via std TCP client)"
cargo test -q --release -p sor-serve --test telemetry_scrape

echo "==> perf gate (work + quality vs BENCH_BASELINE.json; wall excluded = noise-proof)"
mkdir -p target/perf
cargo run -q --release -p sor-bench --bin perf -- \
  --quick --gate --no-wall \
  --report-json target/perf/perf-report.json \
  --report-md target/perf/perf-report.md \
  --trajectory BENCH_TRAJECTORY.jsonl
cp BENCH_TRAJECTORY.jsonl target/perf/ 2>/dev/null || true

echo "==> Räcke set-up scale gate (perf --scale to n = 2^12; settled exponent <= 1.6, wall printed only)"
cargo run -q --release -p sor-bench --bin perf -- --scale --scale-max 12 \
  > target/perf/scale.txt || { cat target/perf/scale.txt; exit 1; }
cat target/perf/scale.txt
grep -q "scale gate: PASS" target/perf/scale.txt
# Flags the chosen mode ignores are usage errors, not silent no-ops.
for inert in "--scale-max 9 --list" "--scale --quick --scale-max 8"; do
  # shellcheck disable=SC2086
  if cargo run -q --release -p sor-bench --bin perf -- $inert > /dev/null 2>&1; then
    echo "expected perf $inert to be rejected"
    exit 1
  fi
done

if [ "${SOR_TSAN:-0}" = "1" ]; then
  run_tsan
fi

echo "CI OK"
