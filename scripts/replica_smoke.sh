#!/usr/bin/env bash
# End-to-end smoke test of multi-replica cdr_serve: a mixed session through
# a 2-replica router with a shared result cache, a worker killed -9 mid-
# session (asserting respawn, zero hung requests, and only structured
# internal/overloaded error codes), and a result-cache persistence round
# trip across a server restart. Assertions are structural — ids, counters,
# error codes, byte-identical replays — never wall times.
set -eu

SERVE=${SERVE:-_build/default/bin/cdr_serve.exe}
TMP=$(mktemp -d)
cleanup() { rm -rf "$TMP"; }
trap cleanup EXIT

# wait_for ID FILE: until FILE holds the response to ID (10 s at most)
wait_for() {
  for _ in $(seq 1 100); do
    grep -q "\"id\":\"$1\"" "$2" 2>/dev/null && return 0
    sleep 0.1
  done
  grep -q "\"id\":\"$1\"" "$2"
}

echo "--- mixed session through 2 replicas with a shared result cache"
FIFO="$TMP/mixed.in"
mkfifo "$FIFO"
(
  timeout 60 "$SERVE" --replicas 2 --result-cache 64 <"$FIFO" >"$TMP/mixed" 2>"$TMP/mixed.err"
  echo $? >"$TMP/mixed.exit"
) &
SRV=$!
exec 9>"$FIFO"
# two structures that rendezvous-route to different replicas (m1 to 1, m2 to 0)
echo '{"id":"m1","kind":"analyze","params":{"grid":32}}' >&9
echo '{"id":"m2","kind":"analyze","params":{"grid":32,"counter":3}}' >&9
# the repeat goes in only once the original is answered: while the original
# is still in flight the result cache has nothing to hit
wait_for m1 "$TMP/mixed"
echo '{"id":"m3","kind":"analyze","params":{"grid":32}}' >&9
echo '{"id":"ms","kind":"stats"}' >&9
exec 9>&-
wait "$SRV"
test "$(cat "$TMP/mixed.exit")" = 0
for id in m1 m2 m3 ms; do
  test "$(grep -c "\"id\":\"$id\"" "$TMP/mixed")" = 1
done
# the stats aggregate carries the router section with a result-cache hit ...
grep -q '"router":{' "$TMP/mixed"
grep '"id":"ms"' "$TMP/mixed" | grep -qE '"result_cache":\{"hits":[1-9]'
# ... and the hit replayed the original response byte for byte, id aside
cmp <(grep '"id":"m1"' "$TMP/mixed" | sed 's/"id":"m1"//') \
  <(grep '"id":"m3"' "$TMP/mixed" | sed 's/"id":"m3"//')
# both replicas have a row, and each answered at least one analyze
grep '"id":"ms"' "$TMP/mixed" | python3 -c '
import json, sys
rows = json.loads(sys.stdin.read())["result"]["replicas"]
for r in (0, 1):
    row = [x for x in rows if x["replica"] == r]
    assert len(row) == 1, f"no stats row for replica {r}"
    ok = sum(q["count"] for q in row[0]["requests"]
             if q["kind"] == "analyze" and q["status"] == "ok")
    assert ok >= 1, f"replica {r} answered no analyze"
'

echo "--- kill one worker mid-session: respawn, zero hangs, structured errors"
FIFO="$TMP/in"
mkfifo "$FIFO"
(
  timeout 60 "$SERVE" --replicas 2 <"$FIFO" >"$TMP/out" 2>"$TMP/err"
  echo $? >"$TMP/exit"
) &
SRV=$!
exec 9>"$FIFO"
echo '{"id":"s0","kind":"stats"}' >&9
wait_for s0 "$TMP/out"
VICTIM=$(grep -o '"pid":[0-9]*' "$TMP/out" | head -1 | cut -d: -f2)
# put slow requests in flight on both replicas, then kill one of them
echo '{"id":"k1","kind":"analyze","params":{"grid":32},"hold_ms":400}' >&9
echo '{"id":"k2","kind":"analyze","params":{"grid":32,"counter":3},"hold_ms":400}' >&9
sleep 0.1
kill -9 "$VICTIM"
# traffic keeps flowing across the death and respawn
echo '{"id":"a1","kind":"analyze","params":{"grid":32}}' >&9
echo '{"id":"a2","kind":"slip","params":{"grid":32}}' >&9
sleep 1
echo '{"id":"s1","kind":"stats"}' >&9
exec 9>&-
wait "$SRV"
test "$(cat "$TMP/exit")" = 0
# zero hung requests: every id answered exactly once, including the two that
# may have been in flight on the killed worker
for id in s0 k1 k2 a1 a2 s1; do
  test "$(grep -c "\"id\":\"$id\"" "$TMP/out")" = 1
done
# the kill surfaced only as structured internal (or overloaded) errors
if grep -o '"code":"[a-z_]*"' "$TMP/out" | grep -vE '"code":"(internal|overloaded)"'; then
  echo "unexpected error code in responses" >&2
  exit 1
fi
# the killed replica was detected and respawned; the final snapshot sees a
# full fleet again
grep -q '"deaths":1' "$TMP/out"
grep -q '"respawns":1' "$TMP/out"
grep -q '"alive":2' "$TMP/out"

echo "--- result-cache persistence: byte-identical replay across a restart"
REQ='{"id":"p1","kind":"analyze","params":{"grid":32}}'
printf '%s\n' "$REQ" | "$SERVE" --result-cache 64 --persist "$TMP/cache.jsonl" >"$TMP/p1.out"
test -s "$TMP/cache.jsonl"
printf '%s\n%s\n' "$REQ" '{"id":"p2","kind":"stats"}' \
  | "$SERVE" --result-cache 64 --persist "$TMP/cache.jsonl" >"$TMP/p2.out"
# the reloaded cache answered the repeat without solving, byte-identically
cmp <(head -1 "$TMP/p1.out") <(head -1 "$TMP/p2.out")
grep -q '"result_cache":{"hits":1,"misses":0' "$TMP/p2.out"

echo "replica smoke: all checks passed"
