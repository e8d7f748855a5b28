#!/bin/sh
# The full local gate, as a staged runner. Run before pushing;
# everything must be green.
#
#   ./ci.sh                  run every stage in order
#   ./ci.sh --quick          build + test only (inner-loop smoke)
#   ./ci.sh --stage NAME     run one stage by name (repeatable)
#   ./ci.sh --timeout SECS   kill any stage still running after SECS
#   ./ci.sh --list           print the stage names and exit
#
# Each stage is timed and its full output captured under
# target/ci/<stage>.log; on failure the runner names the stage and
# points at its log, and the final table shows per-stage wall time
# either way. The same per-stage results are written machine-readably
# to target/ci/summary.json for tooling.
set -u

cd "$(dirname "$0")"

LOG_DIR=target/ci
mkdir -p "$LOG_DIR"

# name|description|command — the single source of truth for stage order.
STAGES='
build|cargo build --release|cargo build --release
test|workspace tests|cargo test -q --workspace
perfbench|benchmark workspace tests: sharded source vs serial engine answers, writer-tail digest vs serial oracle|cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
soak|kill+resume byte identity, fault ledgers|cargo run -q --release --bin repro -- soak --faults --out target/soak
swarm|real-socket loopback soak: impaired client swarm, exact conservation, live-capture canary|cargo run -q --release --bin repro -- swarm --faults --out target/swarm
bench|stage + end-to-end throughput, decode-ratio + swarm floors, trajectory vs newest BENCH_PR*.json|cargo run -q --release --bin repro -- bench --smoke --out target/bench
ablations|paper ablations A1-A6, figure, codec and distinct-counting rows, one repeat each (no gate: must exit 0)|cargo run -q --release --bin repro -- ablations --smoke
matrix|campaign matrix: widths 2^24/2^16 x anon shards 1/4 x source shards 1/4, byte-identical datasets|cargo run -q --release --bin repro -- matrix
trace|flight recorder: injected crashes must dump parseable flight_*.etwtrace|cargo run -q --release --bin etwtool -- trace-check --dir target/ci/flight
clippy|cargo clippy -D warnings|cargo clippy --workspace --all-targets -- -D warnings
doc|rustdoc -D warnings: every intra-doc link resolves|RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
etwlint|repo-specific static analysis + taint pass; SARIF under target/ci/|cargo run -q --release -p etwlint && cargo run -q --release -p etwlint -- --format sarif > target/ci/etwlint.sarif && cargo test -q -p etwlint --test fixture_corpus
interleave|exhaustive schedule checks (incl. shard conservation)|cargo test -q -p etw-interleave
fmt|cargo fmt --check|cargo fmt --check
'

QUICK_STAGES="build test"

stage_names() {
    printf '%s\n' "$STAGES" | sed -n 's/^\([^|]*\)|.*/\1/p'
}

stage_field() { # $1=name $2=field-number
    printf '%s\n' "$STAGES" | grep "^$1|" | cut -d'|' -f"$2"
}

selected=""
quick=0
stage_timeout=0
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) quick=1 ;;
        --stage)
            shift
            [ $# -gt 0 ] || { echo "ci.sh: --stage needs a name" >&2; exit 2; }
            if ! stage_names | grep -qx "$1"; then
                echo "ci.sh: unknown stage '$1' (try --list)" >&2
                exit 2
            fi
            selected="$selected $1"
            ;;
        --timeout)
            shift
            [ $# -gt 0 ] || { echo "ci.sh: --timeout needs seconds" >&2; exit 2; }
            case "$1" in
                ''|*[!0-9]*) echo "ci.sh: --timeout wants a positive integer, got '$1'" >&2; exit 2 ;;
            esac
            stage_timeout=$1
            ;;
        --list)
            for s in $(stage_names); do
                printf '  %-10s %s\n' "$s" "$(stage_field "$s" 2)"
            done
            exit 0
            ;;
        *) echo "ci.sh: unknown option '$1' (--quick | --stage NAME | --timeout SECS | --list)" >&2; exit 2 ;;
    esac
    shift
done

if [ "$stage_timeout" -gt 0 ] && ! command -v timeout >/dev/null 2>&1; then
    echo "ci.sh: --timeout needs the coreutils timeout(1) binary" >&2
    exit 2
fi

if [ -n "$selected" ]; then
    run_list=$selected
elif [ "$quick" = 1 ]; then
    run_list=$QUICK_STAGES
else
    run_list=$(stage_names)
fi

# Per-stage results accumulate as "name status seconds" lines for the
# summary table. Wall time comes from date(1) so the script stays POSIX.
SUMMARY=""
failed=""

for s in $run_list; do
    desc=$(stage_field "$s" 2)
    cmd=$(stage_field "$s" 3)
    log="$LOG_DIR/$s.log"
    echo "==> $s: $desc"
    start=$(date +%s)
    # The timeout guard wraps the whole stage shell: a hung soak or
    # swarm stage (wedged socket, stuck thread) fails loudly with a
    # TIMEOUT status instead of wedging the runner. timeout(1) exits
    # 124 when it had to kill the stage.
    if [ "$stage_timeout" -gt 0 ]; then
        timeout "$stage_timeout" sh -c "$cmd" >"$log" 2>&1
        rc=$?
    else
        sh -c "$cmd" >"$log" 2>&1
        rc=$?
    fi
    if [ "$rc" -eq 0 ]; then
        status=ok
    elif [ "$stage_timeout" -gt 0 ] && [ "$rc" -eq 124 ]; then
        status=TIMEOUT
        failed="$failed $s"
    else
        status=FAIL
        failed="$failed $s"
    fi
    secs=$(( $(date +%s) - start ))
    SUMMARY="$SUMMARY$s|$status|$secs
"
    if [ "$status" = ok ]; then
        echo "    ok (${secs}s)"
    elif [ "$status" = TIMEOUT ]; then
        echo "    TIMEOUT after ${stage_timeout}s — last lines of $log:"
        tail -n 15 "$log" | sed 's/^/    | /'
    else
        echo "    FAILED (${secs}s) — last lines of $log:"
        tail -n 15 "$log" | sed 's/^/    | /'
    fi
done

# Machine-readable mirror of the table below. Stage names and statuses
# are shell-identifier-ish ([a-z_]+ / ok / FAIL / TIMEOUT), so plain
# string interpolation is valid JSON here.
summary_json="$LOG_DIR/summary.json"
{
    echo '['
    first=1
    printf '%s' "$SUMMARY" | while IFS='|' read -r s status secs; do
        [ -n "$s" ] || continue
        [ "$first" = 1 ] || echo ','
        first=0
        printf '  {"stage": "%s", "status": "%s", "wall_secs": %s}' "$s" "$status" "$secs"
    done
    echo
    echo ']'
} > "$summary_json"

echo
echo "stage      status  wall"
echo "---------  ------  ------"
printf '%s' "$SUMMARY" | while IFS='|' read -r s status secs; do
    [ -n "$s" ] && printf '%-9s  %-6s  %4ss\n' "$s" "$status" "$secs"
done
echo "(also written to $summary_json)"

if [ -n "$failed" ]; then
    echo
    echo "CI FAILED in stage(s):$failed (logs under $LOG_DIR/)"
    exit 1
fi
echo
echo "CI OK"
