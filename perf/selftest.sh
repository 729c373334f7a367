#!/usr/bin/env bash
# Clean-clone self-test of the benchmark: what the driver does, done here
# first. Copies the working tree (tracked and untracked files, nothing
# ignored) into a fresh git repository under a temp dir and checks that
#   1. the BENCHMARK.json command builds offline there and every workload
#      exits 0 with a well-formed result line, traced and untraced;
#   2. a run leaves `git status` clean (journals and spans only under the
#      ignored build directory, TCP on ephemeral ports);
#   3. the command fails, without a result line, in a directory holding
#      only BENCHMARK.json and the benchmark's own paths;
#   4. the root workspace neither lists nor builds the benchmark package
#      (`--full` also runs the root's `cargo test -q`).
#
#   perf/selftest.sh [--full] [--seconds N]
set -euo pipefail

full=0
seconds=4
while [ $# -gt 0 ]; do
  case "$1" in
    --full) full=1 ;;
    --seconds) seconds=$2; shift ;;
    *) echo "usage: $0 [--full] [--seconds N]" >&2; exit 2 ;;
  esac
  shift
done

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/marlin-perf-selftest.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
clone=$tmp/clone
mkdir "$clone"

# The files git would commit: tracked or untracked, not ignored, present.
(cd "$root" && git ls-files -co --exclude-standard -z) |
  (cd "$root" && while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done) |
  tar -C "$root" --null -T - -cf - | tar -C "$clone" -xf -
git -C "$clone" init --quiet
git -C "$clone" add -A
git -C "$clone" -c user.name=selftest -c user.email=selftest@example.invalid commit --quiet -m snapshot

mapfile -t command < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$clone/BENCHMARK.json")
mapfile -t workloads < <(python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$clone/BENCHMARK.json")

check_line() { # <result line> <trace 0|1> <BENCHMARK.json>
  python3 - "$@" <<'EOF'
import json, sys
line, trace, spec = sys.argv[1], sys.argv[2], json.load(open(sys.argv[3]))
r = json.loads(line)
assert sorted(r) == ["attempted", "correct", "failed", "metrics"], sorted(r)
assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, r
want = spec["per_layer" if trace == "1" else "end_to_end"]
assert sorted(r["metrics"]) == sorted(m["name"] for m in want), "metric names differ from BENCHMARK.json"
for m in want:
    got = r["metrics"][m["name"]]
    assert got["unit"] == m["unit"], (m["name"], got["unit"])
    assert isinstance(got["value"], (int, float)), m["name"]
    if trace == "0":
        assert got["value"] > 0, (m["name"], got["value"])
EOF
}

cd "$clone"
export CARGO_TARGET_DIR=.bench_build
for w in "${workloads[@]}"; do
  for trace in 0 1; do
    start=$SECONDS
    out=$("${command[@]}" --workload "$w" --seed 1 --seconds "$seconds" --trace "$trace" 2>"$tmp/stderr") || {
      echo "FAIL: $w --trace $trace exited $?"; tail -20 "$tmp/stderr"; exit 1; }
    check_line "$(printf '%s\n' "$out" | tail -1)" "$trace" BENCHMARK.json
    echo "ok: $w --trace $trace ($((SECONDS - start)) s)"
  done
done

dirty=$(git status --porcelain)
[ -z "$dirty" ] || { echo "FAIL: the runs left the tree dirty:"; echo "$dirty"; exit 1; }
echo "ok: git status clean after the runs"

bare=$tmp/bare
mkdir "$bare"
cp BENCHMARK.json "$bare/"
python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["paths"]))' BENCHMARK.json |
  while read -r p; do mkdir -p "$bare/$(dirname "$p")"; cp -r "$p" "$bare/$p"; done
if out=$(cd "$bare" && "${command[@]}" --workload "${workloads[0]}" --seed 1 --seconds "$seconds" --trace 0 2>/dev/null); then
  echo "FAIL: the command succeeded without the repository around it"; exit 1
fi
[ -z "$out" ] || { echo "FAIL: the failing command printed a result: $out"; exit 1; }
echo "ok: fails without a result where only BENCHMARK.json and its paths exist"

unset CARGO_TARGET_DIR
if cargo metadata --offline --no-deps --format-version 1 | grep -q '"name":"marlin-perf"'; then
  echo "FAIL: the root workspace lists marlin-perf"; exit 1
fi
cmp -s "$root/Cargo.toml" Cargo.toml && cmp -s "$root/Cargo.lock" Cargo.lock
echo "ok: the root workspace does not list the benchmark package"
if [ "$full" = 1 ]; then
  cargo build --release --offline 2>&1 | tee "$tmp/build.log" | tail -1
  ! grep -q marlin-perf "$tmp/build.log" || { echo "FAIL: the root build compiled marlin-perf"; exit 1; }
  cargo test -q --offline 2>&1 | grep -E '^test result|FAILED' | sort | uniq -c
  [ -z "$(git status --porcelain)" ] || { echo "FAIL: the root build left the tree dirty"; exit 1; }
  echo "ok: root build and tests neither see nor rebuild perf/"
fi
echo "selftest passed"
