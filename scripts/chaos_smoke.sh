#!/bin/sh
# chaos-smoke: end-to-end proof that an aggressive fault schedule stays
# deterministic and the daemon degrades gracefully under chaos. Runs
# the same faulty scenario twice through a race-built skyranctl and
# requires byte-identical output, then starts a race-built skyrand with
# worker-crash and slow-handler chaos enabled, submits the same spec
# twice under one idempotency key (second submit must replay, not
# double-run), and checks the daemon's result bytes match the CLI plus
# that /metrics shows the simulated crash and non-zero fault counters.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "chaos-smoke: building skyrand and skyranctl with -race"
go build -race -o "$tmp/skyrand" ./cmd/skyrand
go build -race -o "$tmp/skyranctl" ./cmd/skyranctl

# An aggressive schedule touching every fault domain at once.
fault_flags='-fault-srs-drop 0.25 -fault-srs-outlier 0.15 -fault-gtpu-loss 0.1
	-fault-gtpu-dup 0.05 -fault-ue-churn 0.3 -fault-gps-drift 2
	-fault-battery-sag 0.1 -fault-abort-leg 0.2'
spec_flags='-terrain FLAT -ues 3 -budget 200 -epochs 2 -seed 7 -serve 1 -traffic onoff'

# shellcheck disable=SC2086
"$tmp/skyranctl" $spec_flags $fault_flags -json >"$tmp/run1.json"
# shellcheck disable=SC2086
"$tmp/skyranctl" $spec_flags $fault_flags -json >"$tmp/run2.json"
if ! cmp -s "$tmp/run1.json" "$tmp/run2.json"; then
	echo "chaos-smoke: two identical faulty runs differ" >&2
	diff -u "$tmp/run1.json" "$tmp/run2.json" >&2 || true
	exit 1
fi
grep -q '"faults"' "$tmp/run1.json" ||
	{ echo "chaos-smoke: faulty run reported no fault counters" >&2; exit 1; }
echo "chaos-smoke: faulty CLI runs are byte-identical and report fault counters"

"$tmp/skyrand" -addr 127.0.0.1:0 -workers 1 -queue 4 \
	-checkpoint-dir "$tmp/ckpt" \
	-chaos-seed 11 -chaos-crash-rate 1 -chaos-crash-after 300ms \
	-chaos-slow-rate 0.5 -chaos-slow-max 10ms >"$tmp/skyrand.log" 2>&1 &
pid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's#^skyrand: listening on http://\([^ ]*\).*#\1#p' "$tmp/skyrand.log")
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || { cat "$tmp/skyrand.log"; exit 1; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$addr" ] || { echo "chaos-smoke: daemon never reported its address" >&2; exit 1; }
echo "chaos-smoke: chaotic daemon up at $addr"

# First submission runs the job (surviving one simulated worker crash);
# the second replays it off the idempotency key instead of re-running.
# shellcheck disable=SC2086
"$tmp/skyranctl" submit -addr "http://$addr" -idem-key chaos-smoke-1 -wait \
	$spec_flags $fault_flags >"$tmp/daemon.json" 2>"$tmp/submit1.log"
id1=$(sed -n 's/^skyranctl: submitted job \(j[0-9]*\).*/\1/p' "$tmp/submit1.log")
[ -n "$id1" ] || { cat "$tmp/submit1.log" >&2; echo "chaos-smoke: no job id from submit" >&2; exit 1; }

# shellcheck disable=SC2086
id2=$("$tmp/skyranctl" submit -addr "http://$addr" -idem-key chaos-smoke-1 \
	$spec_flags $fault_flags 2>"$tmp/submit2.log")
grep -q "replayed from idempotency key" "$tmp/submit2.log" ||
	{ cat "$tmp/submit2.log" >&2; echo "chaos-smoke: duplicate submit was not replayed" >&2; exit 1; }
[ "$id1" = "$id2" ] ||
	{ echo "chaos-smoke: replay returned job $id2, want $id1" >&2; exit 1; }
echo "chaos-smoke: duplicate submission replayed job $id1"

if ! cmp -s "$tmp/run1.json" "$tmp/daemon.json"; then
	echo "chaos-smoke: crashed-and-recovered daemon result differs from skyranctl -json" >&2
	diff -u "$tmp/run1.json" "$tmp/daemon.json" >&2 || true
	exit 1
fi
echo "chaos-smoke: daemon result survived a simulated crash byte-identical to the CLI"

curl -fsS "http://$addr/metrics" >"$tmp/metrics.txt"
grep -Eq '^skyrand_worker_crashes_total [1-9]' "$tmp/metrics.txt" ||
	{ echo "chaos-smoke: no simulated worker crash recorded" >&2; exit 1; }
grep -Eq '^skyran_fault_[a-z_]+_total [1-9]' "$tmp/metrics.txt" ||
	{ echo "chaos-smoke: fault counters all zero" >&2; exit 1; }
grep -Eq '^skyrand_chaos_slow_handlers_total [1-9]' "$tmp/metrics.txt" ||
	{ echo "chaos-smoke: slow-handler chaos never fired" >&2; exit 1; }
echo "chaos-smoke: metrics show the crash, slow handlers and non-zero fault counters"

kill -TERM "$pid"
wait "$pid" || { echo "chaos-smoke: daemon exited non-zero after SIGTERM" >&2; exit 1; }
pid=""

echo "chaos-smoke: OK"
