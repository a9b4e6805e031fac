#!/usr/bin/env bash
# Prints every paper digit the repository reproduces, one file per binary:
#
#   bench/paper_digits.sh <build-dir> <out-dir>
#
# Runs the paper benches (every bench/ binary except bench_micro,
# bench_parallel and bench_scale, which print wall time) and the
# single-process examples, and writes each one's stdout to
# <out-dir>/<binary>.txt. Also left out: distributed_tcp, whose TCP
# arrival order varies, and the multi-process drills crash_recovery and
# hierarchical_failover, which need their smoke scripts. Everything run is
# seeded and runs on virtual time, so two builds that agree on every
# decision print identical files: `diff -r` two out-dirs to compare them.
# Each binary runs in a scratch working directory, because some write
# files there (bench_byzantine writes BENCH_byzantine.json). Exits 1 if
# any binary fails.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" || exit 2
out=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for bin in "$build"/bench/bench_* "$build"/examples/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name=$(basename "$bin")
  case "$name" in
    bench_micro | bench_parallel | bench_scale | distributed_tcp | \
      crash_recovery | hierarchical_failover | *.sh)
      continue ;;
  esac
  mkdir -p "$work/$name"
  if ! (cd "$work/$name" && "$bin" > "$out/$name.txt" 2> /dev/null); then
    echo "paper_digits: $name failed" >&2
    status=1
  fi
done
exit $status
