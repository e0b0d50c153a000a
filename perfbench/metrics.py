"""Answer checks, end-to-end metrics from the client's records, and
per-layer metrics from the traced replay's spans."""

import json
import math
import statistics
from collections import defaultdict

MAX_CYCLES = 200  # multigrid and IAD solves stop here unconverged
PARITY_RTOL = 1e-6  # kron against csr BER, the ENV-SCALING parity bound
TIMING_FIELDS = ("solve_seconds", "elapsed_ms", "id", "cache")


# ---------- answer checks ----------

def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_reply(item, resp):
    """None when the reply is a correct answer to ``item``, else why not."""
    if item["expect"] == "bad_request":
        code = (resp.get("error") or {}).get("code")
        return None if resp.get("ok") is False and code == "bad_request" else "expected bad_request"
    if not resp.get("ok"):
        return "error %s" % json.dumps(resp.get("error"))
    if resp.get("degraded"):
        return "degraded"
    res = resp.get("result") or {}
    kind = item["kind"]
    if kind == "slip":
        if not (_finite(res.get("slip_rate")) and res["slip_rate"] >= 0):
            return "bad slip_rate"
        for k in ("mean_bits_between_slips", "mean_bits_to_first_slip"):
            if not (_finite(res.get(k)) and res[k] > 0):
                return "bad " + k
        return None
    if kind == "scenarios":
        return None if res.get("scenarios") else "no scenarios"
    if kind in ("sigma", "sweep"):
        points = res.get("points") or []
        if len(points) != item["answers"]:
            return "expected %d points, got %d" % (item["answers"], len(points))
    else:
        points = [res]
    for p in points:
        ber = p.get("ber")
        if not (_finite(ber) and 0.0 <= ber <= 0.5):
            return "BER %r outside [0, 0.5]" % (ber,)
        if not (isinstance(p.get("iterations"), (int, float)) and p["iterations"] < MAX_CYCLES):
            return "not converged (%r cycles)" % (p.get("iterations"),)
    return None


def answer(resp):
    """The part of a reply two correct runs must agree on."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if k not in TIMING_FIELDS}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v
    return strip(resp)


def same_answer(a, b, rtol=1e-9):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_answer(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_answer(x, y, rtol) for x, y in zip(a, b))
    if _finite(a) and _finite(b):
        return abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def _sans_id(raw):
    """Reply bytes without the leading id field."""
    if raw.startswith(b'{"id":'):
        return raw.split(b",", 1)[1]
    return raw


def check_records(records):
    """Fill rec["fail"] (None or a reason) for every record: the reply
    arrived and answers its request; a repeat whose original was answered
    before it was sent is a result-cache hit and must be byte-identical
    apart from id (otherwise it was solved again and must agree); kron and
    csr answers for one params set agree to PARITY_RTOL."""
    by_idx = {r["item"]["idx"]: r for r in records}
    for rec in records:
        rec["fail"] = None
        rec["hit"] = False
        if rec["raw"] is None:
            rec["fail"] = "lost"
            continue
        try:
            rec["resp"] = json.loads(rec["raw"])
        except ValueError:
            rec["fail"] = "unparseable reply"
            continue
        rec["fail"] = check_reply(rec["item"], rec["resp"])
    # cold replies per original: the original's and those of repeats that
    # were solved again because every earlier copy was still in flight
    cold = defaultdict(list)
    for rec in sorted(records, key=lambda r: r["sent"]):
        it = rec["item"]
        root = it["idx"] if it["repeat_of"] is None else it["repeat_of"]
        if rec["fail"] or root not in by_idx or by_idx[root]["fail"]:
            continue
        answered = [c for c in cold[root] if c["recv"] <= rec["sent"]]
        if it["repeat_of"] is not None and answered:
            rec["hit"] = _sans_id(rec["raw"]) in {_sans_id(c["raw"]) for c in answered}
            if not rec["hit"]:
                rec["fail"] = "cache replay differs from every cold reply"
        elif it["repeat_of"] is not None and not same_answer(
                answer(rec["resp"]), answer(by_idx[root]["resp"])):
            rec["fail"] = "repeat answers differently"
        if not rec["hit"]:
            cold[root].append(rec)
    for pair in backend_pairs(records):
        kb = pair["kron"]["resp"]["result"]["ber"]
        cb = pair["csr"]["resp"]["result"]["ber"]
        if abs(kb - cb) > PARITY_RTOL * max(abs(cb), 1e-300):
            pair["kron"]["fail"] = "kron BER %r vs csr %r" % (kb, cb)
    return [r for r in records if r["fail"]]


def backend_pairs(records):
    """Answered analyze requests sent once per backend with equal params."""
    pairs = defaultdict(dict)
    for rec in records:
        it = rec["item"]
        if it["kind"] == "analyze" and not rec["fail"] and it["repeat_of"] is None:
            pairs[(it["grid"], it["sigma"])][it["backend"]] = rec
    return [p for p in pairs.values() if "kron" in p and "csr" in p]


# ---------- end-to-end metrics ----------

def latency(rec):
    """Client-observed latency: from the scheduled send instant in an open
    loop, from the send itself in a closed one."""
    start = rec["due"] if rec.get("open") else rec["sent"]
    return rec["recv"] - start


def tail(values):
    """The highest percentile with at least ten samples beyond it, with its
    percentile. Below 40 samples that percentile is under p75; the closed
    loops then report the upper quartile instead, which is steadier than
    the maximum of a handful of samples."""
    s = sorted(values)
    n = len(s)
    if n >= 40:
        return s[n - 11], 100.0 * (n - 10) / n
    return statistics.quantiles(s, n=4)[2], 75.0


def end_to_end(records, setups, rss_mb, limit_s):
    window = [r for r in records if r["item"]["phase"] == "window"]
    answered = [r for r in window if not r["fail"]]
    lat = [latency(r) for r in answered]
    if any(r["open"] for r in window):
        # first send to last reply of each part of the open loop
        busy = 0.0
        for part in {r["item"]["part"] for r in window}:
            recs = [r for r in window if r["item"]["part"] == part]
            first = min(r["sent"] for r in recs)
            busy += max((r["recv"] for r in recs if r["recv"] is not None), default=first) - first
    else:
        # a closed loop's server works from each send to its reply; the
        # side steps between requests go to other servers
        busy = sum(r["recv"] - r["sent"] for r in window if r["recv"] is not None)
    answers = sum(r["item"]["answers"] for r in answered)
    within = sum(1 for r in window if not r["fail"] and latency(r) <= limit_s)

    # the window's analyze requests when it holds backend pairs, else the
    # side pairs' server; csr-only requests count on both
    source = window if backend_pairs(window) else [
        r for r in records if r["item"]["phase"] == "pairs"]
    by_backend = {b: [latency(r) for r in source if not r["fail"] and r["item"]["kind"] == "analyze"
                      and r["item"]["repeat_of"] is None and r["item"]["backend"] == b]
                  for b in ("kron", "csr")}

    def backend_p50(backend):
        return statistics.median(by_backend[backend])

    tail_s, tail_pct = tail(lat)
    attempted = len(records)
    failed = sum(1 for r in records if r["fail"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "answers_per_s": (answers / busy, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "slo_share": (within / len(window), "ratio"),
        "kron_latency_p50_s": (backend_p50("kron"), "s"),
        "csr_latency_p50_s": (backend_p50("csr"), "s"),
        "pass_share": ((attempted - failed) / attempted, "ratio"),
        "server_peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"window_requests": len(window), "latency_samples": len(lat),
             "latency_tail_percentile": tail_pct, "fail_share": failed / attempted}
    return metrics, notes


# ---------- per-layer metrics ----------

def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def client_layers(records, stats_counts):
    window = [r for r in records if r["item"]["phase"] == "window" and r["recv"] is not None]
    hop = [latency(r) - r["resp"]["elapsed_ms"] / 1e3 for r in window
           if not r["fail"] and not r["hit"] and "elapsed_ms" in r.get("resp", {})]
    counts = stats_counts or [1]
    return {
        "client.send_lag_max_s": (max(r["sent"] - r["due"] for r in window), "s"),
        "router.hop_and_queue_p50_s": (statistics.median(hop) if hop else 0.0, "s"),
        "router.replica_skew": (max(counts) / max(_mean(counts), 1e-9), "ratio"),
    }


def replay_layers(spans, report, items):
    """Per-layer metrics of the traced replay, set against Engine.handle on
    the same requests."""
    handle_s = {row["rid"]: row["handle_s"] for row in report["requests"] if "handle_s" in row}
    traced_s = {row["rid"]: row["traced_s"] for row in report["requests"]}
    engine_rids = set(handle_s)
    dur = {s["sid"]: s["end"] - s["start"] for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += dur[s["sid"]]
    self_time = {s["sid"]: dur[s["sid"]] - child[s["sid"]] for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def mean_dur(name, keep=lambda s: True):
        return _mean([dur[s["sid"]] for s in named(name) if keep(s)])

    handle = [handle_s[rid] for rid in engine_rids]
    layer_self = sum(self_time[s["sid"]] for s in spans
                     if s["name"] != "request" and s["rid"] in engine_rids)
    traced = sum(traced_s[rid] for rid in engine_rids)

    rebuilds = named("model.rebuild")
    mg_solves = named("multigrid.solve")
    kron_solves = named("op_multigrid.solve")

    # backend pairs: analyze requests sent once per backend with equal params
    paired = defaultdict(set)
    for it in items:
        if it["kind"] == "analyze" and it["repeat_of"] is None:
            paired[(it["grid"], it["sigma"])].add(it["backend"])
    paired = {k for k, backends in paired.items() if len(backends) == 2}

    def cycles(spans_, backend):
        return _mean([s["attrs"]["cycles"] for s in spans_
                      if (items[s["rid"]]["grid"], items[s["rid"]]["sigma"]) in paired
                      and items[s["rid"]]["kind"] == "analyze"
                      and items[s["rid"]]["backend"] == backend])

    slip_rids = {s["rid"] for s in named("passage.first_slip")}
    slip_wall = sum(dur[s["sid"]] for s in named("request") if s["rid"] in slip_rids)
    sweep_points = sum(s["attrs"].get("points", 0) for s in named("sweep"))
    serialized = named("jsonl.serialize")
    micro, gap = report["micro"], report["gap"]
    sc = report["solver_cache"]
    csr_cycles = cycles(mg_solves, "csr")
    out = {
        "protocol.parse_us": (micro["protocol.parse_us"], "us"),
        "protocol.cache_key_us": (micro["protocol.cache_key_us"], "us"),
        "params.to_config_us": (micro["params.to_config_us"], "us"),
        "result_cache.hit_ratio": (micro["result_cache.hits"]
                                   / max(micro["result_cache.lookups"], 1), "ratio"),
        "result_cache.find_us": (micro["result_cache.find_us"], "us"),
        "result_cache.store_us": (micro["result_cache.store_us"], "us"),
        "engine.handle_p50_s": (statistics.median(handle), "s"),
        "engine.degraded_retries": (report["degraded_retries"], "count"),
        "model.builds": (len(named("model.build")), "count"),
        "model.build_s": (mean_dur("model.build"), "s"),
        "model.rebuilds": (len(rebuilds), "count"),
        "model.rebuild_s": (mean_dur("model.rebuild"), "s"),
        "model.rebuild_reuse_ratio": (_mean([1.0 if s["attrs"]["reused"] else 0.0
                                             for s in rebuilds]), "ratio"),
        "solver_cache.hit_ratio": (sc["hits"] / max(sc["hits"] + sc["misses"], 1), "ratio"),
        "multigrid.setup_s": (mean_dur("multigrid.setup", lambda s: s["attrs"]["miss"]), "s"),
        "multigrid.solve_s": (mean_dur("multigrid.solve"), "s"),
        "multigrid.cycles_per_solve": (_mean([s["attrs"]["cycles"] for s in mg_solves]), "count"),
        "multigrid.converged_share": (_mean([1.0 if s["attrs"]["converged"] else 0.0
                                             for s in mg_solves]), "ratio"),
        "kron_model.build_s": (mean_dur("kron_model.build"), "s"),
        "op_multigrid.setup_s": (mean_dur("op_multigrid.setup"), "s"),
        "op_multigrid.solve_s": (mean_dur("op_multigrid.solve"), "s"),
        "op_multigrid.cycles_per_solve": (_mean([s["attrs"]["cycles"] for s in kron_solves]),
                                          "count"),
        "csr.spmv_ns_per_nnz": (gap["csr.spmv_ns_per_nnz"], "ns"),
        "csr.spmv_bytes": (gap["csr.spmv_bytes"], "B"),
        "kron_op.apply_ns_per_state": (gap["kron_op.apply_ns_per_state"], "ns"),
        "kron_op.apply_bytes": (gap["kron_op.apply_bytes"], "B"),
        "kron_gap.apply_ratio": (gap["kron_gap.apply_ratio"], "ratio"),
        "kron_gap.cycle_ratio": (cycles(kron_solves, "kron") / csr_cycles if csr_cycles else 0.0,
                                 "ratio"),
        "passage.first_slip_s": (mean_dur("passage.first_slip"), "s"),
        "passage.share_of_slip": (sum(dur[s["sid"]] for s in named("passage.first_slip"))
                                  / slip_wall if slip_wall else 0.0, "ratio"),
        "composed.build_s": (mean_dur("composed.build"), "s"),
        "composed.solve_s": (mean_dur("composed.solve"), "s"),
        "sweep.point_s": (sum(dur[s["sid"]] for s in named("sweep")) / max(sweep_points, 1), "s"),
        "jsonl.serialize_us": (statistics.median([dur[s["sid"]] for s in serialized]) * 1e6, "us"),
        "jsonl.response_bytes": (_mean([s["attrs"]["bytes"] for s in serialized]), "B"),
        "trace.coverage": (layer_self / sum(handle), "ratio"),
        "trace.overhead": (traced / sum(handle), "ratio"),
    }
    self_by_layer = defaultdict(float)
    for s in spans:
        self_by_layer[s["name"]] += self_time[s["sid"]]
    return out, dict(self_by_layer)
