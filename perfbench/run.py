"""perfbench: the request-stream benchmark of the CDR analysis service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds cdr_serve and the traced replay
from source with dune, generates the seeded stream of the workload, spawns
cdr_serve with the workload's flags, drives it from this one client process
over stdio, checks every answer and prints the metrics, one per line, then
one JSON object as the last line. --trace 0 reports the end-to-end metrics;
--trace 1 drives a shorter window, replays the same stream in-process
through perfbench/replay and reports the per-layer metrics. Files land in
perfbench/out/. Exits 1 when an answer check fails, 2 when the build or a
run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SERVE = os.path.join(ROOT, "_build", "default", "bin", "cdr_serve.exe")
REPLAY = os.path.join(ROOT, "_build", "default", "perfbench", "replay", "replay.exe")
SETUPS = 12  # spawn-to-first-reply samples spread over a run, besides its two servers
OPEN_PARTS = 3  # serve-mixed sends its window in this many parts, side steps between
RUN_LIMIT_S = 150  # a stuck run stops here, leaving time to stop its servers
TRACE_WINDOW_SHARE = 1.0 / 3.0  # of --seconds driven, and again replayed, when tracing


def build():
    proc = subprocess.run(
        # no shared dune cache: the run writes nothing outside its checkout
        ["dune", "build", "--root", ".", "--cache=disabled", "./bin/cdr_serve.exe",
         "./perfbench/replay/replay.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def server_argv(workload):
    if workload == "serve-mixed":
        return [SERVE, "--replicas", "2", "--result-cache", str(gen.MIXED_CACHE)]
    return [SERVE]


def spread(*lists):
    """Merge lists, each kept in order, so that every one is spread evenly."""
    keyed = [((k + 0.5) / len(steps), j, s) for j, steps in enumerate(lists)
             for k, s in enumerate(steps)]
    return [s for _, _, s in sorted(keyed, key=lambda x: x[:2])]


def chunks(steps, n):
    """Split steps into n consecutive chunks of near-equal length."""
    return [steps[round(i * len(steps) / n):round((i + 1) * len(steps) / n)] for i in range(n)]


def drive(workload, items, seconds, log):
    """Start the run's server and a second one for the backend pairs, send
    warm-up, window and tail, and read the trailing stats. The side steps,
    SETUPS spawn-to-first-reply timings and the backend pairs, are spread
    over the window: between the requests of a closed loop, and before,
    between and after the parts of an open loop. The machine's speed swings
    by half within seconds on this host, so a median over samples taken
    throughout a run is steadier than one over a burst. Returns records,
    setup times, stats and peak RSS."""
    argv = server_argv(workload)
    phase = lambda p: [it for it in items if it["phase"] == p]  # noqa: E731
    records, codes, setups = [], [], []
    side = spread(["setup"] * SETUPS, phase("pairs"))

    def side_steps(steps):
        for it in steps:
            if it == "setup":
                s, elapsed = client.start(argv, log)
                setups.append(elapsed)
                codes.append(s.close())
            else:
                client.closed_loop(pair_server, [it], records)

    server, elapsed = client.start(argv, log)
    setups.append(elapsed)
    pair_server = None
    try:
        pair_server, elapsed = client.start(argv, log)
        setups.append(elapsed)
        client.closed_loop(server, phase("warmup"), records)
        if workload == "serve-mixed":
            window = [it for it in phase("window") if it["due"] < seconds]
            part_s = seconds / OPEN_PARTS
            parts = [[dict(it, due=it["due"] - k * part_s, part=k) for it in window
                      if k * part_s <= it["due"] < (k + 1) * part_s] for k in range(OPEN_PARTS)]
            steps = chunks(side, OPEN_PARTS + 1)
            side_steps(steps[0])
            for part, after in zip(parts, steps[1:]):
                client.open_loop(server, part, records, reply_timeout=60)
                side_steps(after)
        else:
            cycles = max(1, round(seconds / gen.CYCLE_S[workload]))
            window = [it for it in phase("window") if it["cycle"] < cycles]
            steps = chunks(side, len(window) + 1)
            side_steps(steps[0])
            for it, after in zip(window, steps[1:]):
                client.closed_loop(server, [it], records)
                side_steps(after)
        client.closed_loop(server, phase("tail"), records)
        stats = client.stats(server)
        rss = client.peak_rss_mb(client.server_pids(server, stats))
    finally:
        codes.append(server.close())
        if pair_server:
            codes.append(pair_server.close())
    if any(codes):
        raise RuntimeError("cdr_serve exited with %s" % codes)
    for rec in records:
        rec["open"] = rec["item"]["due"] is not None
    return records, setups, stats, rss


def replay(workload, records, seconds, stem):
    """Replay the lines this run sent, in order, through perfbench/replay:
    the traced path (a span per layer call) and Engine.handle, per request,
    within a time budget for the window; the tail is always replayed."""
    sent = [r["item"] for r in records]
    stream_path, spans_path, report_path = (stem + ".stream.jsonl", stem + ".spans.jsonl",
                                            stem + ".replay.json")
    gen.write_jsonl(sent, stream_path)
    tail_from = next(i for i, it in enumerate(sent) if it["phase"] in ("tail", "pairs"))
    # a window of backend pairs is replayed through its first two pairs at
    # least: kron_gap.cycle_ratio needs a pair, and trace.coverage would
    # otherwise rest on a single kron solve per side
    min_lines = next(i for i, it in enumerate(sent) if it["phase"] == "window") + 4 \
        if workload == "backend-parity" else 0
    mixed = workload == "serve-mixed"
    argv = [REPLAY, "--stream", stream_path, "--spans", spans_path, "--report", report_path,
            "--tail-from", str(tail_from), "--min-lines", str(min_lines),
            "--replicas", "2" if mixed else "1",
            "--result-cache", str(gen.MIXED_CACHE) if mixed else "0",
            "--budget", "%.3f" % (seconds * TRACE_WINDOW_SHARE)]
    with open(stem + ".replay.log", "ab") as log:
        subprocess.run(argv, check=True, stdout=log, stderr=log, timeout=RUN_LIMIT_S)
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    with open(report_path) as f:
        report = json.load(f)
    return spans, report, sent


def check_replay(report, records):
    """The traced path must answer like Engine.handle and like the server."""
    fails = []
    for row in report["requests"]:
        rec = records[row["rid"]]
        mine = metrics.answer(json.loads(row["response"]))
        why = None
        if "engine_response" in row and not metrics.same_answer(
                mine, metrics.answer(json.loads(row["engine_response"]))):
            why = "traced path answers differently from Engine.handle"
        elif rec["raw"] is not None and not rec["fail"] and not metrics.same_answer(
                mine.get("result"), metrics.answer(rec["resp"]).get("result")):
            why = "replay answers differently from the server"
        if why:
            fails.append({"id": rec["item"]["id"], "why": why})
    return fails


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    def on_alarm(signum, frame):
        raise TimeoutError("run exceeded %d s" % RUN_LIMIT_S)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)

    build()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s.seed%d.trace%d" % (args.workload, args.seed, args.trace))
    items = gen.stream(args.workload, args.seed, args.seconds)
    window_s = args.seconds * (TRACE_WINDOW_SHARE if args.trace else 1.0)
    try:
        records, setups, stats, rss = drive(args.workload, items, window_s, stem + ".server.log")
    except (OSError, RuntimeError, TimeoutError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
    failures = [{"id": r["item"]["id"], "why": r["fail"]} for r in metrics.check_records(records)]
    e2e, notes = metrics.end_to_end(records, setups, rss, gen.LIMIT_S[args.workload])
    layers, self_by_layer = {}, {}
    if args.trace:
        try:
            # the replay stands in for the run's own server, then the pairs'
            # server: the pairs go last, whenever they were sent
            records = sorted(records, key=lambda r: r["item"]["phase"] == "pairs")
            spans, report, sent = replay(args.workload, records, args.seconds, stem)
        except (OSError, subprocess.SubprocessError, TimeoutError, ValueError) as e:
            sys.stderr.write("perfbench: replay failed: %s\n" % e)
            sys.exit(2)
        failures += check_replay(report, records)
        layers.update(metrics.client_layers(records, client.replica_counts(stats)))
        replay_metrics, self_by_layer = metrics.replay_layers(spans, report, sent)
        layers.update(replay_metrics)
        notes["replayed_window_requests"] = report["window_replayed"]
        notes["replayed_requests"] = len(report["requests"])
    shown = layers if args.trace else e2e
    failed_ids = {f["id"] for f in failures}
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failed_ids),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    with open(stem + ".report.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "result": result, "end_to_end": e2e, "notes": notes,
                   "self_seconds_by_span": self_by_layer, "failures": failures,
                   "setup_samples_s": setups,
                   "requests": [{"id": r["item"]["id"], "phase": r["item"]["phase"],
                                 "kind": r["item"]["kind"], "backend": r["item"]["backend"],
                                 "latency_s": metrics.latency(r) if r["recv"] else None,
                                 "elapsed_ms": (r.get("resp") or {}).get("elapsed_ms"),
                                 "hit": r["hit"], "fail": r["fail"]} for r in records]},
                  f, indent=1)
    for f_ in failures[:20]:
        print("FAIL %s: %s" % (f_["id"], f_["why"]))
    for k, v in sorted(notes.items()):
        print("%-34s %s" % (k, v))
    for k, (v, u) in shown.items():
        print("%-34s %.6g %s" % (k, v, u))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
