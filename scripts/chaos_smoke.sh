#!/usr/bin/env bash
# Chaos smoke test for campaign resilience: run a seeded-fault parallel
# campaign under the race detector, interrupt it while a cell has not yet
# started, resume it, and require the resumed output to be byte-identical
# to an uninterrupted run's. Also spot-checks the documented exit codes
# (0/1 run outcome, 2 configuration error, 130 interrupted).
#
# A second campaign, the ablations over two workloads, goes through the
# same interrupt and resume with cells that reuse an earlier experiment's
# outcome: resume, reuse and retries together.
#
# The process-isolation sections then repeat the abuse one level down:
# SIGKILL a worker process mid-campaign (the supervisor must restart it
# and redispatch the lost cell with an unchanged attempt seed), and
# SIGKILL the supervisor itself mid-journal (the resumed campaign must
# replay to the same bytes, and no orphaned workers may survive). Their
# worker pools publish workloads under TMPDIR, which points into the
# scratch directory there, so the trap removes what the SIGKILLed
# supervisor leaves behind; a pool that exits on its own must leave
# nothing.
#
# Run from the repository root: ./scripts/chaos_smoke.sh (or make chaos).
set -euo pipefail

GO="${GO:-go}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

fail() {
	echo "chaos: FAIL: $*" >&2
	exit 1
}

# The campaign: one experiment, three workloads (6 cells), per-cell seeded
# latency/drop faults plus a count-based panic fault, bounded retries and
# a generous per-cell deadline — every resilience flag exercised at once.
flags=(-exp f9 -parallel 4 -maxbudget 40000
	-workloads camel,hj2,kangaroo
	-faults spike=0.05,spikecycles=300,drop=0.1,panic=30000 -faultseed 7
	-retries 2 -retrybackoff 10ms -celltimeout 120s)
journal="$dir/campaign.journal"
# TMPDIR of the isolated runs, where their worker pools publish workloads.
pooltmp="$dir/tmp"
mkdir "$pooltmp"

echo "chaos: building vrbench (race detector on)"
"$GO" build -race -o "$dir/vrbench" ./cmd/vrbench

echo "chaos: golden uninterrupted run"
set +e
"$dir/vrbench" "${flags[@]}" >"$dir/golden.txt" 2>"$dir/golden.err"
golden_status=$?
set -e
case "$golden_status" in
0 | 1) ;; # 1 = injected faults sank some cells; that outcome must reproduce too
*) fail "golden run exited $golden_status (stderr: $(cat "$dir/golden.err"))" ;;
esac

echo "chaos: journaled run, one cell at a time, SIGINT after the first record"
# -parallel is not part of the journal fingerprint, so this run executes
# the cells one at a time, in declaration order, and the resume below goes
# back to -parallel 4. A cell's record is appended before the next cell
# starts, so with r records on disk at most r+1 cells have started. The
# run is frozen (SIGSTOP) while the records are counted and the SIGINT is
# queued; the interrupt lands on SIGCONT. With r below 5 at least one of
# the 6 cells has certainly not started, and the run must cancel it.
set +e
"$dir/vrbench" "${flags[@]}" -parallel 1 -checkpoint "$journal" \
	>"$dir/interrupted.txt" 2>"$dir/interrupted.err" &
pid=$!
records=0
for _ in $(seq 1 1200); do
	kill -0 "$pid" 2>/dev/null || break
	if [ -f "$journal" ] && [ "$(wc -l <"$journal")" -ge 2 ]; then
		kill -STOP "$pid"
		records=$(($(wc -l <"$journal") - 1))
		kill -INT "$pid"
		kill -CONT "$pid"
		break
	fi
	sleep 0.05
done
wait "$pid"
int_status=$?
set -e
[ "$records" -ge 1 ] && [ "$records" -lt 5 ] ||
	fail "interrupt sent after $records of 6 records: no cell was certain not to have started"
[ "$int_status" -eq 130 ] ||
	fail "interrupted run exited $int_status, want 130 (stderr: $(cat "$dir/interrupted.err"))"
grep -q "CANCELLED" "$dir/interrupted.txt" ||
	fail "interrupted run exited 130 without a CANCELLED partial-table summary"

echo "chaos: resumed run"
set +e
"$dir/vrbench" "${flags[@]}" -checkpoint "$journal" -resume \
	>"$dir/resumed.txt" 2>"$dir/resumed.err"
resume_status=$?
set -e
grep -q "resuming:" "$dir/resumed.err" ||
	fail "resume did not replay from the journal (stderr: $(cat "$dir/resumed.err"))"
diff -u "$dir/golden.txt" "$dir/resumed.txt" >&2 ||
	fail "resumed output differs from the uninterrupted run"
[ "$resume_status" -eq "$golden_status" ] ||
	fail "resumed run exited $resume_status, golden exited $golden_status"

echo "chaos: ablations campaign with reuse, SIGINT after the first record, resume"
# 84 cells in nine experiments. MSHR starvation trips the watchdog, so some
# cells recover on their retry and some give up. A cell with the identity
# of an earlier experiment's cell (workload, configuration and derived
# fault seed all equal: A9 repeats A7, and several sweeps' default points
# repeat earlier ones) reuses that outcome unless it failed. The interrupt
# lands as above: one cell at a time, frozen while the records are counted.
abl_flags=(-exp ablations -parallel 4 -maxbudget 20000 -workloads camel,hj2
	-faults spike=0.05,spikecycles=300,drop=0.1,starve=0.0005,starvecycles=4000 -faultseed 7
	-watchdog 3000 -retries 1)
abl_journal="$dir/ablations.journal"
set +e
"$dir/vrbench" "${abl_flags[@]}" >"$dir/abl_golden.txt" 2>"$dir/abl_golden.err"
abl_status=$?
"$dir/vrbench" "${abl_flags[@]}" -parallel 1 -checkpoint "$abl_journal" \
	>"$dir/abl_interrupted.txt" 2>"$dir/abl_interrupted.err" &
pid=$!
records=0
for _ in $(seq 1 1200); do
	kill -0 "$pid" 2>/dev/null || break
	if [ -f "$abl_journal" ] && [ "$(wc -l <"$abl_journal")" -ge 2 ]; then
		kill -STOP "$pid"
		records=$(($(wc -l <"$abl_journal") - 1))
		kill -INT "$pid"
		kill -CONT "$pid"
		break
	fi
	sleep 0.05
done
wait "$pid"
int_status=$?
set -e
case "$abl_status" in
0 | 1) ;;
*) fail "ablations golden run exited $abl_status (stderr: $(cat "$dir/abl_golden.err"))" ;;
esac
[ "$records" -ge 1 ] && [ "$records" -lt 83 ] ||
	fail "ablations interrupt sent after $records of 84 records: no cell was certain not to have started"
[ "$int_status" -eq 130 ] ||
	fail "interrupted ablations run exited $int_status, want 130 (stderr: $(cat "$dir/abl_interrupted.err"))"
set +e
"$dir/vrbench" "${abl_flags[@]}" -checkpoint "$abl_journal" -resume -v \
	>"$dir/abl_resumed.txt" 2>"$dir/abl_resumed.err"
abl_resume_status=$?
set -e
grep -q "resuming:" "$dir/abl_resumed.err" ||
	fail "ablations resume did not replay from the journal (stderr: $(cat "$dir/abl_resumed.err"))"
grep -q "] reusing " "$dir/abl_resumed.err" ||
	fail "no cell of the resumed ablations campaign reused an earlier outcome"
diff -u "$dir/abl_golden.txt" "$dir/abl_resumed.txt" >&2 ||
	fail "resumed ablations output differs from the uninterrupted run"
[ "$abl_resume_status" -eq "$abl_status" ] ||
	fail "resumed ablations run exited $abl_resume_status, golden exited $abl_status"

echo "chaos: process-isolated run, worker SIGKILL mid-campaign"
# Workers are children running "$dir/vrbench -worker"; the supervisor
# must classify the kill, start a replacement, and redispatch the lost
# cell with the same attempt seed — so the output stays byte-identical
# to the golden in-process run and the exit code matches.
set +e
TMPDIR="$pooltmp" "$dir/vrbench" "${flags[@]}" -isolate=process \
	>"$dir/isolated.txt" 2>"$dir/isolated.err" &
pid=$!
killed_worker=0
for _ in $(seq 1 1200); do
	kill -0 "$pid" 2>/dev/null || break
	wpid="$(pgrep -f "$dir/vrbench -worker" | head -n1)"
	if [ -n "$wpid" ] && kill -KILL "$wpid" 2>/dev/null; then
		killed_worker=1
		break
	fi
	sleep 0.05
done
wait "$pid"
iso_status=$?
set -e
[ "$killed_worker" -eq 1 ] ||
	echo "chaos: note: campaign finished before a worker could be killed"
[ "$iso_status" -eq "$golden_status" ] ||
	fail "isolated run exited $iso_status, golden exited $golden_status (stderr: $(cat "$dir/isolated.err"))"
diff -u "$dir/golden.txt" "$dir/isolated.txt" >&2 ||
	fail "worker SIGKILL changed the campaign output"
[ -z "$(ls -A "$pooltmp")" ] ||
	fail "the isolated run left $(ls -A "$pooltmp") in its TMPDIR"

echo "chaos: process-isolated run, supervisor SIGKILL mid-journal, resume"
journal2="$dir/isolated.journal"
set +e
TMPDIR="$pooltmp" "$dir/vrbench" "${flags[@]}" -isolate=process -checkpoint "$journal2" \
	>"$dir/survivor.txt" 2>"$dir/survivor.err" &
pid=$!
for _ in $(seq 1 1200); do
	kill -0 "$pid" 2>/dev/null || break
	if [ -f "$journal2" ] && [ "$(wc -l <"$journal2")" -ge 4 ]; then
		kill -KILL "$pid"
		break
	fi
	sleep 0.05
done
wait "$pid"
kill_status=$?
set -e
if [ "$kill_status" -ne 137 ] && [ "$kill_status" -ne "$golden_status" ]; then
	fail "supervisor-killed run exited $kill_status (want 137, or $golden_status if it finished first)"
fi
# Crash containment: the dead supervisor's workers see EOF on stdin (or
# EPIPE on their next result) and must exit on their own — no orphans.
orphans=""
for _ in $(seq 1 600); do
	orphans="$(pgrep -f "$dir/vrbench -worker" || true)"
	[ -z "$orphans" ] && break
	sleep 0.05
done
[ -z "$orphans" ] || fail "workers survived their supervisor: pids $orphans"
# The killed supervisor's pool directory stays until the trap; the
# resumed run must add nothing to it.
left="$(ls -A "$pooltmp")"
set +e
TMPDIR="$pooltmp" "$dir/vrbench" "${flags[@]}" -isolate=process -checkpoint "$journal2" -resume \
	>"$dir/survivor2.txt" 2>"$dir/survivor2.err"
survivor_status=$?
set -e
[ "$(ls -A "$pooltmp")" = "$left" ] ||
	fail "the resumed isolated run left $(ls -A "$pooltmp") in its TMPDIR, before it $left"
grep -q "resuming:" "$dir/survivor2.err" ||
	fail "post-SIGKILL resume did not replay from the journal (stderr: $(cat "$dir/survivor2.err"))"
diff -u "$dir/golden.txt" "$dir/survivor2.txt" >&2 ||
	fail "supervisor SIGKILL + resume changed the campaign output"
[ "$survivor_status" -eq "$golden_status" ] ||
	fail "post-SIGKILL resume exited $survivor_status, golden exited $golden_status"

echo "chaos: exit-code spot checks"
set +e
"$dir/vrbench" -exp bogus >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown experiment should exit 2"
# Same journal, different campaign (-maxbudget overridden): the
# fingerprint guard must refuse with a configuration error.
"$dir/vrbench" "${flags[@]}" -maxbudget 50000 -checkpoint "$journal" -resume >/dev/null 2>&1
[ $? -eq 2 ] || fail "fingerprint mismatch on resume should exit 2"
set -e

echo "chaos: OK (golden/resumed/isolated byte-identical, exit $golden_status; ablations exit $abl_status)"
