"""One client process driving a spawned cdr_serve over its stdio, one
connection: a closed loop (send, wait for the reply, send the next) or an
open loop (a sender thread on a fixed schedule, the main thread reading
replies). Records per request when it was due, sent and answered, and the
raw reply bytes."""

import json
import subprocess
import threading
import time

now = time.monotonic


class Server:
    def __init__(self, argv, stderr_path):
        self.stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.stderr, bufsize=0)

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")

    def readline(self):
        return self.proc.stdout.readline()

    def call(self, line):
        self.send(line)
        return self.readline()

    def close(self, timeout=20):
        """Close stdin (the server drains and exits 0); kill on timeout."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        return code


def start(argv, stderr_path):
    """Spawn the server and time it up to its reply to a first scenarios
    request."""
    t0 = now()
    server = Server(argv, stderr_path)
    reply = server.call('{"id":"setup","kind":"scenarios"}')
    elapsed = now() - t0
    if not reply or not json.loads(reply).get("ok"):
        server.close()
        raise RuntimeError("cdr_serve did not answer its first request: %r" % reply)
    return server, elapsed


def _record(item):
    return {"item": item, "due": None, "sent": None, "recv": None, "raw": None}


def closed_loop(server, items, records):
    """Send items one at a time, each after the previous reply."""
    prev_recv = now()
    for item in items:
        rec = _record(item)
        rec["due"] = prev_recv
        rec["sent"] = now()
        server.send(item["line"])
        rec["raw"] = server.readline()
        rec["recv"] = prev_recv = now()
        records.append(rec)
    return records


def open_loop(server, items, records, reply_timeout):
    """Send each item at t0 + item["due"] from a sender thread; read and
    correlate replies by id (an id-less reply goes to the oldest pending
    id-less request) until every request is answered or the timeout hits."""
    recs = [_record(it) for it in items]
    by_id = {r["item"]["id"]: r for r in recs if r["item"]["id"] is not None}
    idless = [r for r in recs if r["item"]["id"] is None]
    t0 = now() + 0.05

    def sender():
        for rec in recs:
            rec["due"] = t0 + rec["item"]["due"]
            delay = rec["due"] - now()
            if delay > 0:
                time.sleep(delay)
            rec["sent"] = now()
            try:
                server.send(rec["item"]["line"])
            except OSError:
                return  # the server is gone; the unsent requests count as lost

    thread = threading.Thread(target=sender, daemon=True)
    thread.start()
    deadline = t0 + (items[-1]["due"] if items else 0) + reply_timeout
    pending = len(recs)
    while pending and now() < deadline:
        raw = server.readline()
        t = now()
        if not raw:
            break
        try:
            rid = json.loads(raw).get("id")
        except ValueError:
            continue
        rec = by_id.get(rid) if rid is not None else (idless.pop(0) if idless else None)
        if rec is None or rec["raw"] is not None:
            continue
        rec["raw"], rec["recv"] = raw, t
        pending -= 1
    thread.join()
    records.extend(recs)
    return records


def stats(server):
    reply = json.loads(server.call('{"id":"stats","kind":"stats"}'))
    return reply.get("result", {})


def server_pids(server, stats_result):
    pids = [server.proc.pid]
    for row in stats_result.get("replicas", []):
        if isinstance(row, dict) and "pid" in row:
            pids.append(int(row["pid"]))
    return pids


def peak_rss_mb(pids):
    """Sum of VmHWM over the server's processes, from /proc."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def replica_counts(stats_result):
    """Solve requests per worker replica (stats excluded); one entry for a
    single-process server."""
    rows = stats_result.get("replicas")
    if rows is None:
        rows = [stats_result]
    counts = []
    for row in rows:
        n = 0
        for r in row.get("requests", []) if isinstance(row, dict) else []:
            if r.get("kind") not in ("stats",):
                n += int(r.get("count", 0))
        counts.append(n)
    return counts
