"""Pure logic of the MAPP benchmark: statistics, the rate ladder, the
latency limit, seeded inputs and snapshot digests. Nothing here starts
a process, so the unit tests exercise it directly."""

import hashlib
import os
import random

# A request that is refused, missing or wrong misses every limit.
LATENCY_LIMIT_MS = 5.0
# Fixed open-loop rates of the serve workloads (requests per second).
SERVE_LO_RPS = 2000
# hi is below the 32,000 first planned: there, one ~13 ms host stall
# fills the default 1,024-row queue and requests are refused.
SERVE_HI_RPS = 16000
# The rate ladder for the maximum sustainable rate: geometric, ~19%
# apart, so one rung is well above the run-to-run noise of p99.
LADDER_RPS = (16000, 19000, 23000, 27000, 32000, 38000, 45000, 54000,
              64000, 76000, 91000, 108000, 128000)
# Shares of the serve request mix: raw predict, member predict, batch.
SERVE_MIX = (0.7, 0.2, 0.1)
BATCH_ROWS = 16
# One miss bag per this many warm predicts (the panel is 4:1 hit:miss).
WARM_MISS_EVERY = 5


def percentile(values, q):
    """The q-th percentile (0..100) of values, linear between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    if s[hi] == s[lo]:  # also keeps inf (a failed request) from nan
        return s[lo]
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def windowed(values, per_window, q):
    """Median over consecutive windows of `per_window` values of each
    window's q-th percentile; a short tail window is dropped. With less
    than one whole window it is the percentile of all values."""
    per_window = max(1, int(per_window))
    wins = [values[i:i + per_window]
            for i in range(0, len(values) - per_window + 1, per_window)]
    if not wins:
        return percentile(values, q)
    return median([percentile(w, q) for w in wins])


def meets_limit(latencies_ms, failed, per_window, limit_ms=LATENCY_LIMIT_MS):
    """True when no request failed and the windowed p99 (see windowed)
    is within the limit."""
    return failed == 0 and bool(latencies_ms) and \
        windowed(latencies_ms, per_window, 99) <= limit_ms


def ladder_max(passes, ladder=LADDER_RPS):
    """Bisect the fixed ladder for the highest passing rate.

    passes(rate) runs one rung. The ladder is assumed monotonic: a rung
    that fails means every higher rung fails. Returns (rate or None,
    {rate: passed} for every rung probed)."""
    probed = {}
    lo, hi = -1, len(ladder)  # lo passed (or none), hi failed (or none)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = passes(ladder[mid])
        probed[ladder[mid]] = ok
        if ok:
            lo = mid
        else:
            hi = mid
    return (ladder[lo] if lo >= 0 else None), probed


def tree_digest(root):
    """sha256 over every file under root: relative path and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()


# vision::BenchmarkId order, which BagMember::operator< sorts by.
BENCH_ORDER = ("FAST", "HoG", "KNN", "OBJREC", "ORB", "SIFT", "SURF",
               "SVM", "FACEDET")


def member_key(member):
    """Sort key of "BENCH@BATCH", as BagMember::operator< orders it."""
    bench, batch = member.split("@")
    return BENCH_ORDER.index(bench), int(batch)


def canonical(a, b):
    """Canonical member order of a bag, as mapp_cli orders it."""
    return (a, b) if member_key(a) <= member_key(b) else (b, a)


def warm_panel(seed, campaign_bags, members, length):
    """The warm_predict panel: `length` (kind, a, b) entries, 4:1
    hit:miss. Hits are campaign bags; misses are unseen canonical pairs
    of campaign members, each used once per lap. A ("reset",) entry
    marks where a lap's misses run out and the cache must be reset."""
    rng = random.Random(f"warm_predict/{seed}")
    seen = {canonical(a, b) for a, b in campaign_bags}
    unseen = sorted({canonical(a, b) for i, a in enumerate(members)
                     for b in members[i:]} - seen)
    panel, misses, cursor = [], [], 0
    while len(panel) < length:
        if rng.randrange(WARM_MISS_EVERY) == 0:
            if cursor == len(misses):
                if misses:
                    panel.append(("reset",))
                misses = unseen[:]
                rng.shuffle(misses)
                cursor = 0
            panel.append(("miss",) + misses[cursor])
            cursor += 1
        else:
            panel.append(("hit",) + rng.choice(campaign_bags))
    return panel


def fresh_misses(seed, campaign_bags, members, count):
    """Miss bags whose members no earlier bag used, so each one costs a
    process what it costs a fresh `mapp_cli predict` (its traces are
    not yet memoized in memory)."""
    rng = random.Random(f"fresh_misses/{seed}")
    seen = {canonical(a, b) for a, b in campaign_bags}
    order = members[:]
    rng.shuffle(order)
    out, used = [], set()
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            bag = canonical(a, b)
            if len(out) < count and a not in used and b not in used \
                    and bag not in seen:
                out.append(bag)
                used.update(bag)
    return out


def _num(x):
    return repr(float(x))


def raw_query(a_feat, b_feat, fairness):
    """JSON text of one raw-form query and its oracle row."""
    def app(f):
        return ('{"cpu_time":%s,"gpu_time":%s,"mix":[%s]}'
                % (_num(f[0]), _num(f[1]), ",".join(_num(v) for v in f[2:])))
    text = '"a":%s,"b":%s,"fairness":%s' % (app(a_feat), app(b_feat),
                                           _num(fairness))
    row = "raw " + " ".join(_num(v) for v in list(a_feat) + list(b_feat)
                            + [fairness])
    return text, row


def serve_pool(seed, campaign_bags, features, raw_entries=256,
               batch_entries=32):
    """The serve request pool: (bodies, rows, row_spans, kinds).

    bodies[i] is request i's JSON without its opening '{"id":...,'; its
    expected answers are rows[row_spans[i][0]:row_spans[i][1]]. Raw
    rows pair two campaign members' measured features with a seeded
    fairness, so queries land where the model was trained."""
    rng = random.Random(f"serve_pool/{seed}")
    names = sorted(features)
    bodies, rows, spans, kinds = [], [], [], []

    def raw():
        a, b = rng.choice(names), rng.choice(names)
        return raw_query(features[a], features[b],
                         round(rng.uniform(0.3, 1.0), 6))

    for _ in range(raw_entries):
        text, row = raw()
        bodies.append('"op":"predict",%s}' % text)
        spans.append((len(rows), len(rows) + 1))
        rows.append(row)
        kinds.append("raw")
    for a, b in campaign_bags:
        bodies.append('"op":"predict","a":"%s","b":"%s"}' % (a, b))
        spans.append((len(rows), len(rows) + 1))
        rows.append("member %s %s" % (a, b))
        kinds.append("member")
    for _ in range(batch_entries):
        qs = [raw() for _ in range(BATCH_ROWS)]
        bodies.append('"op":"predict_batch","queries":[%s]}'
                      % ",".join("{%s}" % t for t, _ in qs))
        spans.append((len(rows), len(rows) + BATCH_ROWS))
        rows.extend(r for _, r in qs)
        kinds.append("batch")
    return bodies, rows, spans, kinds


def serve_schedule(seed, kinds, count, phase):
    """Pool indices of `count` requests in the 70/20/10 mix."""
    rng = random.Random(f"serve_schedule/{seed}/{phase}")
    by_kind = {k: [i for i, x in enumerate(kinds) if x == k]
               for k in ("raw", "member", "batch")}
    out = []
    for _ in range(count):
        r = rng.random()
        kind = ("raw" if r < SERVE_MIX[0] else
                "member" if r < SERVE_MIX[0] + SERVE_MIX[1] else "batch")
        out.append(rng.choice(by_kind[kind]))
    return out
