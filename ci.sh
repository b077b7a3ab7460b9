#!/usr/bin/env bash
# Tier-1+ verify: everything a PR must pass. See VERIFICATION.md.
set -euo pipefail
cd "$(dirname "$0")"
root="$PWD"

# ci.sh leaves the work tree as it found it: the last step compares this.
tree_state() { git status --porcelain --untracked-files=all; }
tree_before=$(tree_state)

# The exp_* smokes write results/ relative to where they run, so they run
# here, not in the work tree.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo check benchmark/ (own workspace: a deleted public item it names passes 'cargo test --workspace')"
# Resolving the harness may rewrite its lock file; put it back as it was.
cp benchmark/Cargo.lock "$smoke/benchmark.Cargo.lock"
cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir target
cp "$smoke/benchmark.Cargo.lock" benchmark/Cargo.lock

echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace

echo "==> cargo test --release -p hot-base -p hot-core -p hot-gravity -p hot-cosmo -p hot-comm -p bytes (vector code, the threaded walk and the wire field reads only run optimised here)"
cargo test -q --offline --release -p hot-base -p hot-core -p hot-gravity -p hot-cosmo -p hot-comm -p bytes
# Which instantiation of the span kernels the step above exercised on this host.
cargo test -q --offline --release -p hot-gravity span_instantiation -- --nocapture | grep "span kernels:"
# How many threads ForceCalc fanned its sink groups out over in the step above.
cargo test -q --offline --release -p hot-gravity fan_out_public -- --nocapture | grep "force threads:"
# How many threads a rank's distributed walk computed its ready batches on.
cargo test -q --offline --release -p hot-gravity fan_out_distributed -- --nocapture | grep "dwalk compute threads:"

echo "==> fan-out tests pinned to one CPU (the public compute paths with one available thread)"
cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')
taskset -c "$cpu" cargo test -q --offline --release -p hot-core -p hot-gravity fan_out -- --nocapture \
    | grep -E "force threads:|dwalk compute threads:"

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run (the criterion benches build; their numbers are wall clock and gate nothing)"
cargo bench --offline -p hot-bench --no-run

echo "==> trace + analyze golden + differential suites"
cargo test -q --offline --test trace_golden --test trace_differential --test analyze_golden --test faults_golden

echo "==> hot-analyze lint"
cargo run -q --offline --release -p hot-analyze -- lint

echo "==> hot-analyze lint non-vacuity (planted uncounted apply_segment call must exit 1)"
planted=$(mktemp -d)
mkdir -p "$planted/crates/gravity/src"
cat > "$planted/crates/gravity/src/evaluator.rs" <<'EOF'
fn apply(list: &InteractionList<MassMoments>, pos: &[Vec3], acc: &mut [Vec3]) {
    for seg in list.segments() {
        apply_segment(&seg, pos, 0..acc.len(), 1e-6, true, acc, &mut []);
    }
}
EOF
rc=0
cargo run -q --offline --release -p hot-analyze -- lint --root "$planted" >/dev/null || rc=$?
rm -rf "$planted"
if [ "$rc" -ne 1 ]; then
  echo "ERROR: planted flop-accounting fixture exited $rc, expected 1 — the rule is vacuous" >&2
  exit 1
fi

echo "==> hot-analyze lint dead-export non-vacuity (a planted pub fn nothing calls must exit 1)"
planted=$(mktemp -d)
mkdir -p "$planted/crates/core/src"
cat > "$planted/crates/core/src/lib.rs" <<'EOF'
/// Nothing calls this.
pub fn orphan() -> u32 {
    7
}
EOF
rc=0
cargo run -q --offline --release -p hot-analyze -- lint --root "$planted" > "$smoke/dead_export.txt" || rc=$?
rm -rf "$planted"
if [ "$rc" -ne 1 ] || ! grep -q '\[dead-export\] `pub fn orphan`' "$smoke/dead_export.txt"; then
  echo "ERROR: planted dead-export fixture exited $rc without a dead-export finding for orphan, expected exit 1 — the rule is vacuous" >&2
  exit 1
fi

echo "==> hot-analyze protocol (collective-order / tag-matching / counter-discipline)"
cargo run -q --offline --release -p hot-analyze -- protocol

echo "==> hot-analyze protocol non-vacuity (planted collective-order fixture must exit 1)"
planted=$(mktemp -d)
mkdir -p "$planted/crates/comm/src"
cat > "$planted/crates/comm/src/runtime.rs" <<'EOF'
fn exchange(c: &mut Comm) {
    if c.rank() == 0 {
        c.barrier();
    }
    c.send(1, TAG_WORK, &v);
    let (_, w) = c.recv_bytes(None, TAG_WORK);
}
EOF
rc=0
cargo run -q --offline --release -p hot-analyze -- protocol --root "$planted" >/dev/null || rc=$?
rm -rf "$planted"
if [ "$rc" -ne 1 ]; then
  echo "ERROR: planted collective-order fixture exited $rc, expected 1 — checker is vacuous" >&2
  exit 1
fi

echo "==> events migration stress (np=128, two workers, 600 launches)"
cargo test -q --offline --release -p hot-comm --test events_migration -- --ignored

echo "==> exp_latency smoke (>= 8 keys per request message, <= 16 request rounds)"
(cd "$smoke" && cargo run -q --offline --release --manifest-path "$root/Cargo.toml" -p hot-bench --bin exp_latency -- 8192 4)
test -s "$smoke/results/BENCH_latency.json"

echo "==> hot-analyze schedules --seeds 32 (tracing enabled)"
cargo run -q --offline --release -p hot-analyze -- schedules --seeds 32

echo "==> hot-analyze faults --seeds 32 (fault plans × seeded schedules)"
cargo run -q --offline --release -p hot-analyze -- faults --seeds 32

echo "==> hot-analyze kills --seeds 8, twice (crash-stop detection + bitwise rollback recovery; counts must repeat)"
cargo run -q --offline --release -p hot-analyze -- kills --seeds 8 | tee "$smoke/kills1.txt"
cargo run -q --offline --release -p hot-analyze -- kills --seeds 8 > "$smoke/kills2.txt"
if ! diff "$smoke/kills1.txt" "$smoke/kills2.txt" >&2; then
  echo "ERROR: two runs of hot-analyze kills printed different counts — detection is schedule-dependent" >&2
  exit 1
fi

echo "==> hot-analyze kills non-vacuity (planted undetected-kill fixture must exit 1)"
rc=0
cargo run -q --offline --release -p hot-analyze -- kills --planted-undetected >/dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "ERROR: planted undetected-kill fixture exited $rc, expected 1 — kill gate is vacuous" >&2
  exit 1
fi

echo "==> exp_event_scale smoke (np=1024 collectives + reduced treecode step on fibers, wall-clock budget)"
# Collectives at np=1024 twice (both stage slots), treecode at np=256 with
# 16 bodies/rank: the same O(log p) structural assertions and budgets as
# the full run, sized for CI. The full-size run (np=6800 collectives,
# np=1024 treecode) backs EXPERIMENTS.md H2.
(cd "$smoke" && cargo run -q --offline --release --manifest-path "$root/Cargo.toml" -p hot-bench --bin exp_event_scale -- 1024 256 16)
test -s "$smoke/results/BENCH_event_scale.json"

echo "==> exp_balance smoke (adaptive decomposition skew/migration gates)"
# np=64 only: the np>=256 acceptance gates (>=25% flop-skew reduction,
# amortized rebalance cost below walk time saved) run in the full
# `exp_balance` invocation that backs results/BENCH_balance.json.
(cd "$smoke" && cargo run -q --offline --release --manifest-path "$root/Cargo.toml" -p hot-bench --bin exp_balance -- 64)
test -s "$smoke/results/BENCH_balance.json"

echo "==> exp_recovery smoke (Daly cadence ≤ 5% overhead, bitwise recovery gate)"
cargo run -q --offline --release -p hot-bench --bin exp_recovery -- 2 128 4

echo "==> cluster_shootout smoke (one run priced on every machine spec: four machine rows)"
# Not pinned: it prices raw Comm::stats(), which include the walk's
# schedule-dependent termination allreduces, so its digits move between runs.
cargo run -q --offline --release --example cluster_shootout -- 4 500 > "$smoke/shootout.txt"
rows=$(grep -cE ' [0-9]+ +[0-9]+\.[0-9]{4} +[0-9]+\.[0-9] +([0-9]+|-)$' "$smoke/shootout.txt" || true)
if [ "$rows" -ne 4 ]; then
  cat "$smoke/shootout.txt" >&2
  echo "ERROR: cluster_shootout printed $rows machine rows, expected 4" >&2
  exit 1
fi

# pin FILE BIN [ARGS...]: run hot-bench's BIN in a directory of its own and
# fail unless results/FILE equals what the run produced — the file of that
# name it wrote under results/ if it wrote one, its stdout otherwise. Every
# pinned output is counts and model-clock seconds: the kernels are bitwise
# scalar and the fan-out bitwise under any thread count, so none depends
# on the host.
pin() {
  local file=$1 bin=$2
  shift 2
  local dir="$smoke/pin-$bin"
  mkdir -p "$dir"
  echo "==> $bin${*:+ $*} pins results/$file"
  (cd "$dir" && cargo run -q --offline --release --manifest-path "$root/Cargo.toml" -p hot-bench --bin "$bin" -- "$@") > "$dir/stdout"
  local got="$dir/stdout"
  if [ -e "$dir/results/$file" ]; then
    got="$dir/results/$file"
  fi
  if ! diff "results/$file" "$got" >&2; then
    echo "ERROR: $bin${*:+ $*} moved off results/$file — the code it runs changed, or the file is stale" >&2
    exit 1
  fi
}
pin exp_cosmo_loki.txt exp_cosmo_loki
pin exp_cosmo_asci.txt exp_cosmo_asci
pin exp_force_accuracy.txt exp_force_accuracy
pin exp_costs.txt exp_costs
pin trace_phases_np2.json exp_trace_phases 2 800
pin exp_algorithm_advantage.txt exp_algorithm_advantage
pin exp_sc96.txt exp_sc96
pin exp_loki_treecode.txt exp_loki_treecode
pin exp_vortex_hyglac.txt exp_vortex_hyglac
pin exp_npb_scaling.txt exp_npb_scaling
pin BENCH_latency.json exp_latency

echo "==> checkpoint/restart smoke (bitwise-identical resume)"
cargo test -q --offline --release -p hot-cosmo checkpoint

echo "==> work tree unchanged by ci.sh"
tree_after=$(tree_state)
if [ "$tree_after" != "$tree_before" ]; then
  echo "ERROR: ci.sh changed the work tree (git status --porcelain before / after):" >&2
  diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
  exit 1
fi

echo "==> ci.sh: all green"
