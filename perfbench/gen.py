"""Seeded request streams for the perfbench workloads.

Every stream is a list of items. An item is a dict holding the exact line
sent to ``cdr_serve`` (``line``) plus metadata the client uses to check the
answer and that never reaches the server:

- ``idx``: position in the stream; ``id``: the request id (None when the
  line is too broken to carry one);
- ``kind``, ``backend``, ``grid``, ``sigma``: what the request asks for;
- ``expect``: ``"ok"`` or ``"bad_request"``;
- ``answers``: BER or slip answers an ok response carries (a sweep or sigma
  point counts as one);
- ``repeat_of``: for an exact repeat (possibly re-spelled as v1 params),
  the ``idx`` of the fresh request it repeats;
- ``cycle``: closed-loop workloads send whole cycles (see CYCLE_S);
  requests of one cycle share this number;
- ``due``: open-loop send offset in seconds from the start of the window;
- ``phase``: ``"warmup"`` (sent first, not measured), ``"window"``
  (measured), ``"tail"`` (the layer probe sent after the window) or
  ``"pairs"`` (backend pairs sent to a second server, spread over the run).

The same (workload, seed) always gives byte-identical lines. The generator
refuses the configurations excluded on purpose (see README.md).
"""

import json
import random

DEFAULT_GRID = 128
DEFAULT_COUNTER = 8
WORKLOADS = ("design-sweep", "serve-mixed", "backend-parity")

# serve-mixed: open-loop rate, result-cache capacity (larger than any
# stream, so nothing is evicted) and mix shares. Requests the router
# answers from its cache (repeats, malformed lines) stay near a third of
# the window, so the median falls inside the solves, not on the edge
# between the ~1 ms cache path and the solves.
MIXED_RATE = 2.0
MIXED_CACHE = 4096
MIXED_REPEAT_SHARE = 0.30
MIXED_MALFORMED = 3
MIXED_FRESH_KINDS = (("analyze", 0.30), ("slip", 0.20), ("sigma", 0.25), ("sweep", 0.20),
                     ("scenarios", 0.05))
# structures: grid -> counters (counter 4 only at grid 64), x phases {8, 16}
MIXED_STRUCTURES = tuple(
    (g, ph, c) for g, cs in ((32, (2, 3)), (64, (2, 3, 4))) for ph in (8, 16) for c in cs)
# a repeat points at least this many requests back, so its original has
# usually been answered (and cached) when the repeat is sent
MIXED_REPEAT_GAP = 12
MIXED_SIGMA = (0.06, 0.075)

# closed loops send whole cycles, one per CYCLE_S of --seconds (rounded,
# at least one): a fixed amount of work, so a run's figures never depend on
# how many cycles happened to fit
CYCLE_S = {"design-sweep": 15.0, "backend-parity": 4.0}
CLOSED_CYCLES = 24  # more cycles than any run sends

# The seed moves every sigma_w by at most this much. Which sigma_w values a
# run sends decides how many rebuilds keep their sparsity pattern, how
# large the env chains get and how long first passage takes, and so its
# cost: the values are fixed, and the seed only perturbs them below the
# scale that changes any of that.
SEED_JITTER = 1e-6

# latency limit of slo_share: serve-mixed's 1 s; the closed loops get a
# limit above every request class they send, so their slo_share falls
# only when a whole class slows past it
LIMIT_S = {"design-sweep": 5.0, "serve-mixed": 1.0, "backend-parity": 10.0}


class Excluded(ValueError):
    """A request the benchmark never sends (see README.md, excluded outliers)."""


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def params_v2(grid=DEFAULT_GRID, sigma=None, phases=None, counter=None, backend=None, env=None):
    p = {"version": 2, "grid": grid}
    if sigma is not None:
        p["noise"] = {"sigma_w": sigma}
    loop = {}
    if phases is not None:
        loop["phases"] = phases
    if counter is not None:
        loop["counter"] = counter
    if loop:
        p["loop"] = loop
    if backend is not None:
        p["backend"] = backend
    if env is not None:
        p["env"] = env
    return p


def params_v1(grid, sigma=None, phases=None, counter=None):
    """The deprecated flat spelling of the same parameters."""
    p = {"grid": grid}
    if phases is not None:
        p["phases"] = phases
    if counter is not None:
        p["counter"] = counter
    if sigma is not None:
        p["sigma_w"] = sigma
    return p


def shape(params):
    """(grid, counter, backend) of a params object in either spelling."""
    params = params or {}
    loop = params.get("loop") or {}
    counter = loop.get("counter", params.get("counter", DEFAULT_COUNTER))
    return params.get("grid", DEFAULT_GRID), counter, params.get("backend", "csr")


def check_excluded(kind, params):
    grid, counter, backend = shape(params)
    if kind == "slip" and grid == 32 and counter == 4:
        raise Excluded("slip at grid 32, counter 4 (165 s in first passage)")
    if kind == "env" and backend == "kron":
        raise Excluded("env on the kron backend (29 s per request at grid 32)")


def check_kron_order(items):
    """Kron requests of one structure must not raise sigma_w: an ascending
    step can reuse an IAD setup whose coarse pattern misses the new nonzeros
    (an internal error, see README.md)."""
    last = {}
    for it in items:
        if it.get("backend") != "kron" or it["expect"] != "ok":
            continue
        key = it["grid"]
        if key in last and it["sigma"] > last[key]:
            raise Excluded("kron sigma_w rises from %g to %g at grid %d"
                           % (last[key], it["sigma"], key))
        last[key] = it["sigma"]


def _item(items, kind, params=None, extra=None, answers=1, **meta):
    req_id = "r%d" % len(items)
    if params is not None:
        check_excluded(kind, params)
    obj = {"id": req_id, "kind": kind}
    if extra:
        obj.update(extra)
    if params is not None:
        obj["params"] = params
    grid, _, backend = shape(params)
    item = {"idx": len(items), "id": req_id, "line": dumps(obj), "kind": kind,
            "backend": backend, "grid": grid, "sigma": None, "expect": "ok",
            "answers": answers, "repeat_of": None, "cycle": None, "due": None,
            "phase": "window"}
    item.update(meta)
    items.append(item)
    return item


def _sigma(rng, lo, hi, used, digits=5):
    while True:
        s = round(rng.uniform(lo, hi), digits)
        if s not in used:
            used.add(s)
            return s


def _jitter(rng):
    """The seed's offset to a fixed sigma_w (see SEED_JITTER)."""
    return rng.uniform(-SEED_JITTER, SEED_JITTER)


# ---------- design-sweep: closed loop at the paper's grid ----------

# One cycle, in this order. The three cheap analyze requests balance the
# three heavier kinds around env:bursty, so the window's median latency
# falls among that class, not between two classes.
DESIGN_PLAN = ("analyze", "sigma", "analyze", "env:bursty", "analyze", "sweep",
               "env:drift-cycle")


def design_sweep(items, seed):
    """Cycles of the same seven queries in a fixed order, at fixed sigma_w
    values that the seed perturbs (SEED_JITTER)."""
    rng = random.Random("design-sweep/%d" % seed)
    values = random.Random("design-sweep")
    used = set()
    for cycle in range(CLOSED_CYCLES):
        for step in DESIGN_PLAN:
            if step == "sigma":
                start = _sigma(values, 0.0575, 0.0605, used)
                step_w = values.choice((0.0003, 0.0004, 0.0005))
                start = round(start + _jitter(rng), 8)
                points = [round(start + i * step_w, 8) for i in range(8)]
                _item(items, "sigma", params_v2(), extra={"values": points}, answers=8,
                      sigma=start, cycle=cycle)
                continue
            s = round(_sigma(values, 0.055, 0.065, used) + _jitter(rng), 8)
            if step == "analyze":
                _item(items, "analyze", params_v2(sigma=s), sigma=s, cycle=cycle)
            elif step == "sweep":
                _item(items, "sweep", params_v2(sigma=s), extra={"lengths": [4, 8, 16]},
                      answers=3, sigma=s, cycle=cycle)
            else:
                _item(items, "env", params_v2(sigma=s, env=step.split(":")[1]), sigma=s,
                      cycle=cycle)
    return items


# ---------- backend-parity: kron/csr pairs at the default grid ----------

def backend_parity(items, seed):
    rng = random.Random("backend-parity/%d" % seed)
    # descending sigma_w (check_kron_order) from a fixed start, a step
    # small enough that most csr rebuilds keep their sparsity pattern
    start = 0.0615 + _jitter(rng)
    for cycle in range(CLOSED_CYCLES):
        s = round(start - cycle * 0.00005, 8)
        order = ("kron", "csr") if cycle % 2 == 0 else ("csr", "kron")
        for backend in order:
            _item(items, "analyze", params_v2(sigma=s, backend=backend), sigma=s, cycle=cycle)
    return items


# ---------- serve-mixed: open loop over many small structures ----------

def _mixed_sigma(j, k=0):
    """sigma_w of the j-th fresh request of a kind (k-th value of a list):
    fixed, so every seed sends the same parameter sets. First-passage cost
    jumps erratically with sigma_w (0.15 to 5 s at one structure), so
    letting the seed pick sigma_w would make the seed pick the tail."""
    lo, hi = MIXED_SIGMA
    return round(lo + ((7 * j + 3 * k) % 31) * (hi - lo) / 31, 5)


def _mixed_fresh(items, kind, j, due, jitter):
    """The j-th fresh request of ``kind``: structures in a fixed rotation
    (offset per kind, so kinds meet every structure), sigma_w fixed up to
    the seed's jitter. slip keeps its exact sigma_w: first passage is the
    cost most sensitive to it."""
    offset = [k for k, _ in MIXED_FRESH_KINDS].index(kind) * 3
    structure = MIXED_STRUCTURES[(j + offset) % len(MIXED_STRUCTURES)]
    grid, phases, counter = structure
    if kind == "slip":
        jitter = 0.0
    s = round(_mixed_sigma(j) + jitter, 8)
    meta = dict(sigma=s, due=due, structure=structure)
    if kind == "sigma":
        values = [round(_mixed_sigma(j, k) + jitter, 8) for k in range(3)]
        return _item(items, "sigma", params_v2(grid, None, phases, counter),
                     extra={"values": values}, answers=3, **meta)
    if kind == "sweep":
        lengths = [2, 3] if grid == 32 else [2, 3, 4]
        return _item(items, "sweep", params_v2(grid, s, phases, counter),
                     extra={"lengths": lengths}, answers=len(lengths), **meta)
    # scenarios ignores params; distinct params still make distinct cache keys
    return _item(items, kind, params_v2(grid, s, phases, counter),
                 answers=0 if kind == "scenarios" else 1, **meta)


def _mixed_repeat(items, orig, v1, due):
    obj = json.loads(orig["line"])
    obj["id"] = "r%d" % len(items)
    if v1:
        p = obj["params"]
        loop = p.get("loop", {})
        obj["params"] = params_v1(p["grid"], p.get("noise", {}).get("sigma_w"),
                                  loop.get("phases"), loop.get("counter"))
    item = {k: orig[k] for k in ("kind", "backend", "grid", "sigma", "answers")}
    item.update({"idx": len(items), "id": obj["id"], "line": dumps(obj), "expect": "ok",
                 "repeat_of": orig["idx"], "v1": v1, "cycle": None, "due": due,
                 "phase": "window", "structure": orig.get("structure")})
    items.append(item)
    return item


def _mixed_malformed(items, which, due):
    req_id = "r%d" % len(items)
    if which == 0:
        line = '{"id":"%s","kind":"analyze","params":{"version":2,"grid":32' % req_id
        req_id = None  # truncated JSON: the reply cannot carry an id
    elif which == 1:
        line = dumps({"id": req_id, "kind": "analyze",
                      "params": {"version": 2, "grid": 32, "jitter": 0.07}})
    else:
        line = dumps({"id": req_id, "kind": "frobnicate"})
    item = {"idx": len(items), "id": req_id, "line": line, "kind": "malformed",
            "backend": None, "grid": None, "sigma": None, "expect": "bad_request",
            "answers": 0, "repeat_of": None, "cycle": None, "due": due, "phase": "window"}
    items.append(item)
    return item


def _quota(total, shares):
    """Split ``total`` by ``shares`` into whole counts that add up."""
    counts = {k: int(share * total) for k, share in shares}
    by_remainder = sorted(shares, key=lambda ks: ks[1] * total - counts[ks[0]], reverse=True)
    for k, _ in by_remainder[:total - sum(counts.values())]:
        counts[k] += 1
    return counts


def _interleave(counts, rng):
    """A kind sequence with every kind spread evenly (each next pick is the
    kind furthest behind its share, ties in seeded order), then shuffled
    within blocks of three: heavy requests never bunch, so queueing, and
    with it the tail, does not hinge on the seed."""
    total = sum(counts.values())
    done = dict.fromkeys(counts, 0)
    tie = {k: rng.random() for k in counts}
    seq = []
    for i in range(total):
        k = max(counts, key=lambda k: ((i + 1) * counts[k] / total - done[k], tie[k]))
        done[k] += 1
        seq.append(k)
    for b in range(0, total, 3):
        block = seq[b:b + 3]
        rng.shuffle(block)
        seq[b:b + 3] = block
    return seq


def serve_mixed(items, seed, seconds):
    """A fixed schedule of requests (kinds, structures and sigma_w per kind,
    repeats per kind, v1 re-spellings, malformed lines, in a fixed order):
    when a heavy request lands decides the queueing, and so the tail. The
    seed picks which repeats are re-spelled as v1 and perturbs sigma_w
    (SEED_JITTER)."""
    order = random.Random("serve-mixed")
    rng = random.Random("serve-mixed/%d" % seed)
    jitter = _jitter(rng)
    n = max(20, int(round(MIXED_RATE * seconds)))
    n_repeat = int(round(MIXED_REPEAT_SHARE * n))
    n_fresh = n - MIXED_MALFORMED - n_repeat
    kinds = _interleave(_quota(n_fresh, MIXED_FRESH_KINDS), order)
    repeat_left = _quota(n_repeat, MIXED_FRESH_KINDS)
    v1s = [i < n_repeat // 2 for i in range(n_repeat)]  # half re-spelled as v1
    rng.shuffle(v1s)
    # the first MIXED_REPEAT_GAP slots are fresh; repeats and malformed
    # lines are spread evenly over the rest, each jittered within its stride
    n_special = n_repeat + MIXED_MALFORMED
    stride = (n - MIXED_REPEAT_GAP) / n_special
    special = [MIXED_REPEAT_GAP + int(k * stride + order.random() * (stride - 1))
               for k in range(n_special)]
    malformed_slots = sorted(order.sample(special, MIXED_MALFORMED))
    repeat_slots = set(special) - set(malformed_slots)
    fresh = []
    base = len(items)
    for i in range(n):
        due = i / MIXED_RATE
        if i in repeat_slots:
            eligible = [it for it in fresh if it["idx"] <= base + i - MIXED_REPEAT_GAP]
            wanted = [k for k, c in repeat_left.items() for _ in range(c)
                      if any(it["kind"] == k for it in eligible)]
            kind = order.choice(wanted) if wanted else order.choice(eligible)["kind"]
            repeat_left[kind] = max(0, repeat_left[kind] - 1)
            orig = order.choice([it for it in eligible if it["kind"] == kind])
            _mixed_repeat(items, orig, v1=v1s.pop(), due=due)
        elif i in malformed_slots:
            _mixed_malformed(items, malformed_slots.index(i), due)
        else:
            kind = kinds[len(fresh)]
            j = sum(1 for it in fresh if it["kind"] == kind)
            fresh.append(_mixed_fresh(items, kind, j, due, jitter))
    return items


# ---------- the layer probe sent after every window ----------

def tail(items):
    """Append the layer probe sent after the window: one small request for
    each layer the window may not reach (first passage, composed
    environment, sigma continuation, counter sweep)."""
    small = dict(grid=32, phases=8, counter=2)
    probe = [
        ("slip", params_v2(sigma=0.07123, **small), None, 1, 0.07123),
        ("env", params_v2(sigma=0.07123, env="bursty", **small), None, 1, 0.07123),
        ("sigma", params_v2(**small), {"values": [0.06123, 0.07123]}, 2, 0.06123),
        ("sweep", params_v2(sigma=0.07123, **small), {"lengths": [2, 3]}, 2, 0.07123),
    ]
    for kind, params, extra, answers, sigma in probe:
        _item(items, kind, params, extra=extra, answers=answers, sigma=sigma, phase="tail")
    return items


PAIRS = 10
# csr-only requests after each pair: a small csr solve takes ~60 ms and
# swings by half with the machine, so its median needs more samples than
# the kron one, and they cost little
PAIR_EXTRA_CSR = 2


def pairs(items):
    """Append PAIRS kron/csr analyze pairs on a small chain (grid 32, 8
    phases, counter 2; sigma_w descending, see check_kron_order), each
    followed by PAIR_EXTRA_CSR csr requests at sigma_w values of their own,
    sent to a second server spread over the run: the backend latencies of
    workloads whose window holds no pairs, measured on a process that the
    window has not grown."""
    small = dict(grid=32, phases=8, counter=2)
    for i in range(PAIRS):
        s = round(0.0459 - 0.0001 * i, 5)
        for backend in (("kron", "csr") if i % 2 == 0 else ("csr", "kron")):
            _item(items, "analyze", params_v2(sigma=s, backend=backend, **small), sigma=s,
                  phase="pairs")
        for k in range(1, PAIR_EXTRA_CSR + 1):
            e = round(s - 0.00003 * k, 5)
            _item(items, "analyze", params_v2(sigma=e, backend="csr", **small), sigma=e,
                  phase="pairs")
    return items


def warmup(items, workload):
    """Requests sent before the window so its timings start on warm caches:
    one default-grid csr solve (model, setup cache). The first kron request
    of backend-parity stays in the window: IAD preparation is cheap, and a
    kron warm-up would add a 4 s solve to every run. serve-mixed has none:
    its cold builds are part of what it measures."""
    if workload == "design-sweep":
        _item(items, "analyze", params_v2(sigma=0.0600001), sigma=0.0600001, phase="warmup")
    elif workload == "backend-parity":
        _item(items, "analyze", params_v2(sigma=0.0635), sigma=0.0635, phase="warmup")
    return items


def stream(workload, seed, seconds):
    """Warm-up, window (every request the run may send), tail and pairs,
    with ids and ``idx`` numbered through. Closed-loop windows hold more
    cycles than a run sends (see CYCLE_S)."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))
    items = warmup([], workload)
    if workload == "design-sweep":
        design_sweep(items, seed)
    elif workload == "serve-mixed":
        serve_mixed(items, seed, seconds)
    else:
        backend_parity(items, seed)
    tail(items)
    if workload != "backend-parity":
        pairs(items)
    check_kron_order(items)
    return items


def write_jsonl(items, path):
    with open(path, "w") as f:
        for it in items:
            f.write(it["line"] + "\n")
