#!/usr/bin/env bash
# The repeatable CI entrypoint. The workspace is hermetic: every dependency
# is an in-tree path crate, so everything here must succeed with an empty
# cargo registry cache and no network. If any step ever needs the registry,
# that is a policy violation (see README.md "Hermetic build policy") and a
# bug in the change that introduced it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> benchmark helper tests (perfbench: percentiles, self time, schedstat, timing SAN decorator)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> SAN backend conformance (golden fixtures x every backend)"
cargo run --offline --release -p dosgi-bench --bin san_conformance

echo "==> chaos sweep (seeded nemesis schedules + replay verification)"
scripts/chaos.sh

echo "==> e15 overload knee (admission on/off + policy reaction + flash-crowd chaos)"
cargo run --offline --release -p dosgi-bench --bin e15_overload

echo "==> e16 slo burn-rate alerting (lead-time race + alert-driven policy + bounded series)"
cargo run --offline --release -p dosgi-bench --bin e16_slo

echo "==> e14 hot swap (blackout vs migration + rolling wave under traffic)"
cargo run --offline --release -p dosgi-bench --bin e14_hot_swap

echo "==> e13 real-clock throughput (ops/sec vs threads; >=2.5x at 4 threads)"
cargo run --offline --release -p dosgi-bench --bin e13_throughput

echo "==> telemetry snapshot schema check"
cargo run --offline --release -p dosgi-bench --bin telemetry_check

echo "==> causal trace check (zero happens-before violations over the sweep)"
cargo run --offline --release -p dosgi-bench --bin trace_check
cargo run --offline --release -p dosgi-bench --bin trace_check results/trace_e14_hot_swap.json

echo "==> results guard (every deterministic results/ file byte-identical to the index)"
# The steps above regenerate the committed results; all but two are
# seeded and must come out byte for byte as committed. The exceptions are
# e13's wall-clock throughput table and its snapshot. Stage a deliberate
# change to a result before running this script.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --exit-code --stat -- results \
    ':(exclude)results/e13_throughput.txt' ':(exclude)results/telemetry_e13.json'
else
  echo "not a git work tree; skipping"
fi

echo "==> perf guard (e5 migration SAN bytes + e15 admission hot path + e14 blackout vs committed baselines)"
cargo run --offline --release -p dosgi-bench --bin perf_guard

echo "==> verifying zero registry dependencies"
if cargo metadata --format-version 1 --offline \
    | grep -o '"source":"[^"]*"' | grep -v '"source":""' | grep -q 'registry'; then
  echo "ERROR: registry dependency detected; this workspace must stay path-only" >&2
  cargo metadata --format-version 1 --offline \
    | grep -o '"name":"[^"]*","version":"[^"]*","id":"[^"]*registry[^"]*"' >&2 || true
  exit 1
fi

echo "All checks passed."
