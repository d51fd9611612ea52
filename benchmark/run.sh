#!/usr/bin/env bash
# The benchmark's one command. Builds the real `spottune-serve` from the
# root workspace and the harness from benchmark/ (both release, same
# target directory), then hands every argument to the harness.
#
#   benchmark/run.sh                                   # ledger: every workload, untraced + traced pass
#   benchmark/run.sh --only wire_closed --seed 7       # ledger, one workload
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # one run, result JSON on the last line
#   benchmark/run.sh --compare A.json B.json           # regression gate
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
cd "$root"
if [[ "${1:-}" == "--compare" ]]; then
    need_server=0
else
    need_server=1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
# Cargo chatter goes to stderr so stdout ends with the result line.
if [[ "$need_server" == 1 ]]; then
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
        -p spottune-server --bin spottune-serve 1>&2
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
export BENCH_RUSTC_VERSION="$(rustc -V 2>/dev/null || echo unknown)"
case "$CARGO_TARGET_DIR" in
    /*) bin_dir="$CARGO_TARGET_DIR/release" ;;
    *) bin_dir="$root/$CARGO_TARGET_DIR/release" ;;
esac
exec "$bin_dir/spottune-benchmark" "$@"
