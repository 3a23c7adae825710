#!/usr/bin/env bash
# End-to-end CLI contract for tyderc: exit statuses, --batch failure
# diagnostics (a failing batch item must exit non-zero), file-mode views that
# later ops can drop, export and project again, and the --db durable
# lifecycle (seed, mutate, recover, compact).
#
# Usage: tyderc_cli_test.sh <path-to-tyderc> <path-to-payroll.tdl>
set -u

TYDERC="$1"
TDL="$2"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/tyderc_cli_test.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

failures=0
check() {  # check <description> <expected-exit> <actual-exit>
  if [ "$2" -ne "$3" ]; then
    echo "FAIL: $1 (expected exit $2, got $3)" >&2
    failures=$((failures + 1))
  else
    echo "ok: $1"
  fi
}

# --- usage errors (the dedicated exit code 2) ------------------------------

# Exit 2 is reserved for "the command line never made sense": nothing ran,
# nothing was touched, retrying without fixing the invocation is pointless.
# Scripts branch on it (run_all.sh, the serve gate) to tell their own bugs
# apart from real operation failures (1) and degraded mode (3).
"$TYDERC" --no-such-flag > /dev/null 2> "$WORK/usage.err"
check "unknown flag exits 2 (usage)" 2 $?
grep -q "^usage:" "$WORK/usage.err" \
  || { echo "FAIL: usage error did not print the usage text" >&2; failures=$((failures + 1)); }

"$TYDERC" > /dev/null 2>&1
check "no schema and no --db exits 2 (usage)" 2 $?

"$TYDERC" "$TDL" --project Employee > /dev/null 2>&1
check "--project with missing operands exits 2 (usage)" 2 $?

# --- in-memory batch exit status ------------------------------------------

cat > "$WORK/good.batch" <<EOF
Employee SSN,pay_rate PayView
Person SSN,name ContactView
EOF
"$TYDERC" "$TDL" --batch "$WORK/good.batch" > "$WORK/good.out" 2> "$WORK/good.err"
check "all-good batch exits 0" 0 $?

# Person does not have pay_rate, so BadView fails at derivation and
# exercises the per-item diagnostics.
cat > "$WORK/bad.batch" <<EOF
Employee SSN,pay_rate PayView
Person pay_rate BadView
EOF
"$TYDERC" "$TDL" --batch "$WORK/bad.batch" > "$WORK/bad.out" 2> "$WORK/bad.err"
check "batch with a failing item exits non-zero" 1 $?
grep -q "FAILED BadView" "$WORK/bad.out" \
  || { echo "FAIL: per-item FAILED line missing from stdout" >&2; failures=$((failures + 1)); }
grep -q "batch item 'BadView'" "$WORK/bad.err" \
  || { echo "FAIL: per-item diagnostic missing from stderr" >&2; failures=$((failures + 1)); }

# An unknown name is a per-item failure too: the items after it still apply.
cat > "$WORK/unknown.batch" <<EOF
Nobody SSN NoView
Person SSN,name ContactView
EOF
"$TYDERC" "$TDL" --batch "$WORK/unknown.batch" > "$WORK/unknown.out" 2> "$WORK/unknown.err"
check "batch with an unknown source type exits non-zero" 1 $?
grep -q "batch item 'NoView' failed: NotFound" "$WORK/unknown.err" \
  || { echo "FAIL: unknown source type was not a per-item failure" >&2; failures=$((failures + 1)); }
grep -q "1 applied, 1 failed" "$WORK/unknown.out" \
  || { echo "FAIL: the item after an unknown name did not apply" >&2; failures=$((failures + 1)); }

"$TYDERC" "$TDL" --batch "$WORK/missing.batch" > /dev/null 2>&1
test $? -ne 0; check "missing batch file exits non-zero" 0 $?

# --jobs only sizes the committer pool of a durable batch; an in-memory
# catalog has a single writer, so file mode accepts it and ignores it.
"$TYDERC" "$TDL" --jobs 4 --batch "$WORK/good.batch" > "$WORK/jobs.out" 2>&1
check "file-mode --jobs 4 --batch exits 0" 0 $?
grep -q "(1 committer)" "$WORK/jobs.out" \
  || { echo "FAIL: file-mode batch did not run on its single writer" >&2; failures=$((failures + 1)); }

# --- file mode derives through the catalog, as --db does ------------------

# --project registers its view in the in-memory catalog, so later ops in the
# same invocation can drop it, export it, or project it again.
"$TYDERC" "$TDL" --project Employee SSN,name,pay_rate V1 --drop V1 > "$WORK/pd.out" 2> "$WORK/pd.err"
check "file-mode --project then --drop of that view exits 0" 0 $?
grep -q "^dropped V1$" "$WORK/pd.out" \
  || { echo "FAIL: file-mode --drop did not drop the projected view" >&2; failures=$((failures + 1)); }

"$TYDERC" "$TDL" --project Employee SSN,name,pay_rate V1 --export > "$WORK/pe.out" 2> "$WORK/pe.err"
check "file-mode --project then --export exits 0" 0 $?
grep -q "^view V1 = project Employee on (SSN, name, pay_rate);$" "$WORK/pe.out" \
  || { echo "FAIL: file-mode --export lost the projected view" >&2; failures=$((failures + 1)); }

# Each batch line sees the schema the lines before it left: a view over a
# view (paper Section 7) can be derived in the same batch.
cat > "$WORK/chain.batch" <<EOF
Employee SSN,name,pay_rate V1
V1 SSN,name V2
EOF
"$TYDERC" "$TDL" --batch "$WORK/chain.batch" --export > "$WORK/chain.out" 2> "$WORK/chain.err"
check "file-mode batch projecting an earlier line's view exits 0" 0 $?
grep -q "2 applied, 0 failed" "$WORK/chain.out" \
  || { echo "FAIL: file-mode batch did not apply the view over a view" >&2; failures=$((failures + 1)); }
grep -q "^view V2 = project V1 on (SSN, name);$" "$WORK/chain.out" \
  || { echo "FAIL: file-mode --export lost the view over a view" >&2; failures=$((failures + 1)); }

# --- payroll drop pins -----------------------------------------------------

# A drop leaves the catalog as if the view had never been defined; it is
# refused only when a later view cannot be re-applied without it. Each pin
# runs in file mode and against a fresh database seeded in the same call.
drop_pin() {  # drop_pin <name> <expected-exit> <ops...>
  local name="$1" want="$2"
  shift 2
  "$TYDERC" "$TDL" "$@" > "$WORK/$name.out" 2> "$WORK/$name.err"
  check "$name (file mode)" "$want" $?
  "$TYDERC" "$TDL" --db "$WORK/$name.db" "$@" > "$WORK/$name.db.out" 2> "$WORK/$name.db.err"
  check "$name (--db)" "$want" $?
}

drop_pin "view over a view drops newest-first" 0 \
  --project Person SSN,name V1 --project V1 SSN V2 --drop V2
drop_pin "dropping the view under another is refused" 1 \
  --project Person SSN,name V1 --project V1 SSN V2 --drop V1
for err in "$WORK/dropping the view under another is refused.err" \
           "$WORK/dropping the view under another is refused.db.err"; do
  grep -q "view 'V2'" "$err" \
    || { echo "FAIL: the refused drop does not name V2 ($err)" >&2; failures=$((failures + 1)); }
done
drop_pin "identical projections drop oldest-first" 0 \
  --project Employee SSN,name A --project Employee SSN,name B --drop A --drop B
drop_pin "identical projections drop newest-first" 0 \
  --project Employee SSN,name A --project Employee SSN,name B --drop B --drop A
drop_pin "a dropped name is defined again" 0 \
  --project Employee SSN,name A --drop A --project Employee SSN,name A

# --- durable lifecycle -----------------------------------------------------

DB="$WORK/db"
"$TYDERC" "$TDL" --db "$DB" > /dev/null 2>&1
check "seeding a fresh db exits 0" 0 $?
test -f "$DB/wal.log"
check "seeded db has a WAL" 0 $?

"$TYDERC" --db "$DB" --project Employee SSN,pay_rate PayView > /dev/null 2>&1
check "durable --project exits 0" 0 $?

"$TYDERC" --db "$DB" > "$WORK/reopen.out" 2>&1
check "reopen after mutation exits 0" 0 $?
grep -q "1 records replayed" "$WORK/reopen.out" \
  || { echo "FAIL: reopen did not report the replayed record" >&2; failures=$((failures + 1)); }

"$TYDERC" --db "$DB" --compact > /dev/null 2>&1
check "--compact exits 0" 0 $?
test "$(wc -c < "$DB/wal.log")" -eq 0
check "compaction truncated the WAL" 0 $?

"$TYDERC" --db "$DB" --drop PayView > /dev/null 2>&1
check "durable --drop exits 0" 0 $?

"$TYDERC" --db "$DB" --project Employee no_such_attr BadView > /dev/null 2> "$WORK/dbbad.err"
test $? -ne 0; check "failing durable op exits non-zero" 0 $?
"$TYDERC" --db "$DB" > /dev/null 2>&1
check "db reopens cleanly after a failed op" 0 $?

"$TYDERC" --compact > /dev/null 2>&1
test $? -ne 0; check "--compact without --db exits non-zero" 0 $?

# --- concurrent durable batch (group commit) -------------------------------

# --jobs N routes the durable batch through N concurrent committers sharing
# group-commit fsync batches; every item must land and replay on reopen.
cat > "$WORK/con.batch" <<EOF
Employee SSN,pay_rate ConViewA
Employee SSN ConViewB
Person SSN,name ConViewC
Person name ConViewD
EOF
"$TYDERC" --db "$DB" --jobs 4 --batch "$WORK/con.batch" > "$WORK/con.out" 2> "$WORK/con.err"
check "durable --batch with --jobs 4 exits 0" 0 $?
grep -q "4 applied, 0 failed" "$WORK/con.out" \
  || { echo "FAIL: concurrent durable batch did not apply every item" >&2; failures=$((failures + 1)); }
grep -q "4 concurrent committers" "$WORK/con.out" \
  || { echo "FAIL: concurrent durable batch did not report its committers" >&2; failures=$((failures + 1)); }
"$TYDERC" --db "$DB" --export > "$WORK/con-reopen.out" 2>&1
check "reopen after a concurrent batch exits 0" 0 $?
for v in ConViewA ConViewB ConViewC ConViewD; do
  grep -q "view $v = " "$WORK/con-reopen.out" \
    || { echo "FAIL: recovery lost concurrently committed view $v" >&2; failures=$((failures + 1)); }
done

# --- health report and the degraded exit code ------------------------------

"$TYDERC" --db "$DB" --health > "$WORK/health.out" 2>&1
check "--health on a healthy db exits 0" 0 $?
grep -q "state: healthy" "$WORK/health.out" \
  || { echo "FAIL: --health did not report a healthy state" >&2; failures=$((failures + 1)); }

"$TYDERC" --health > /dev/null 2>&1
test $? -eq 2; check "--health without --db exits 2" 0 $?

# An injected WAL fsync failure (armed through the environment) must drop
# the database into degraded mode and exit with the dedicated code 3.
TYDER_FAULTS="storage.env.sync=1" \
  "$TYDERC" --db "$DB" --project Employee SSN DegView > /dev/null 2> "$WORK/degraded.err"
check "mutation under an fsync fault exits 3 (degraded)" 3 $?
grep -q "degraded" "$WORK/degraded.err" \
  || { echo "FAIL: degraded diagnostic missing from stderr" >&2; failures=$((failures + 1)); }

# Degraded mode is per-process state rooted in the fsync lie: a fresh
# process re-validates the directory and serves again.
"$TYDERC" --db "$DB" --health > "$WORK/health2.out" 2>&1
check "db re-validates cleanly after the degraded run" 0 $?
grep -q "state: healthy" "$WORK/health2.out" \
  || { echo "FAIL: post-fault --health did not report healthy" >&2; failures=$((failures + 1)); }

# In-process: a failing mutation followed by --health in the SAME invocation
# reports DEGRADED and exits 3 (ops compose left to right, fail-fast returns
# the degraded code before --health runs, so use --batch which continues).
cat > "$WORK/deg.batch" <<EOF
Employee SSN Deg2View
EOF
TYDER_FAULTS="storage.env.sync=1" \
  "$TYDERC" --db "$DB" --batch "$WORK/deg.batch" --health > "$WORK/health3.out" 2>&1
check "--batch + --health under an fsync fault exits 3" 3 $?
grep -q "state: DEGRADED" "$WORK/health3.out" \
  || { echo "FAIL: --health did not report DEGRADED in-process" >&2; failures=$((failures + 1)); }

# --- fault point listing (consumed by run_all.sh crash mode) ---------------

"$TYDERC" --list-faults > "$WORK/faults.out" 2>&1
check "--list-faults exits 0" 0 $?
grep -q "^storage.wal.torn_write$" "$WORK/faults.out" \
  || { echo "FAIL: --list-faults is missing the storage points" >&2; failures=$((failures + 1)); }

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed" >&2
  exit 1
fi
echo "all checks passed"
