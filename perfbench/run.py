#!/usr/bin/env python3
"""End-to-end benchmark of MAPP, driving the production `mapp_cli`.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `mapp_cli` and the helper
`mapp_probe` from source into .bench_build/, sets the program up, then
measures one workload for --seconds and prints one JSON object as the
last line of stdout. Every operation's output is checked; `failed`
counts refused, missing and wrong answers, and only wrong answers make
`correct` false.

Workloads (lanes = all cores; see BENCHMARK.json for why each exists):
  cold_campaign  fresh `mapp_cli loocv` processes, each with an empty cache
  warm_predict   one-shot `mapp_cli predict A B` on the set-up cache, 4:1 hit:miss
  serve_lo       `mapp_cli serve --socket` at 2,000 req/s, open loop
  serve_hi       the same at 16,000 req/s, then the rate ladder

With --trace 0 it reports the end-to-end metrics, the same names on
every workload (setup_s, p50_ms, peak_rss_mb); the
workload-specific names they stand for, and the tail percentiles, are
printed above the JSON.
With --trace 1 it runs mapp_probe, which calls each layer's public
functions and records one span per call, and reports every per-layer
metric with the end-to-end metric and workload it should move.
--smoke shrinks every phase to a tiny budget (for the self-tests).
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

import benchlib as bl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
MAPP_CLI = os.path.join(BUILD, "mapp", "examples", "mapp_cli")
PROBE = os.path.join(BUILD, "mapp_probe")
LANES = os.cpu_count() or 1
WORKLOADS = ("cold_campaign", "warm_predict", "serve_lo", "serve_hi")

# The LOOCV table of `mapp_cli loocv` (Figure 4) and the 91-bag
# campaign's ml::hashDataset, pinned at 1, 2 and 4 lanes.
LOOCV_TABLE = """\
FAST       10.60%  (16 points)
HoG        12.26%  (15 points)
KNN        15.21%  (15 points)
OBJREC     19.97%  (16 points)
ORB        32.30%  (15 points)
SIFT       27.72%  (15 points)
SURF       22.87%  (15 points)
SVM        13.46%  (15 points)
FACEDET    11.78%  (15 points)
mean       18.46%"""
CAMPAIGN_HASH = "bd017af8c777bf72"

# Per-layer metrics: name -> (unit, better, end-to-end metric, workload).
LAYERS = {
    "vision.profile_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "vision.longest_unit_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "parallel.profile_utilization": ("ratio", "higher", "cold_campaign_s", "cold_campaign"),
    "vision.busy_s": ("s", "lower", "cold_campaign_cpu_s", "cold_campaign"),
    "profiler.overhead_frac": ("ratio", "lower", "cold_campaign_cpu_s", "cold_campaign"),
    "predictor.member_features_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "sim.corun_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "sim.events": ("count", "lower", "cold_campaign_s", "cold_campaign"),
    "sim.events_per_s": ("1/s", "higher", "cold_campaign_s", "cold_campaign"),
    "predictor.assemble_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "ml.fit_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "ml.loocv_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "cache.bytes_written": ("B", "lower", "cold_campaign_s", "cold_campaign"),
    "cold.unattributed_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "cold.trace_overhead_s": ("s", "lower", "cold_campaign_s", "cold_campaign"),
    "cache.campaign_load_ms": ("ms", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "cache.model_load_ms": ("ms", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "predictor.collect_hit_ms": ("ms", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "cache.hit_ratio": ("ratio", "higher", "warm_predict_hit_p50_ms", "warm_predict"),
    "cache.lookups_per_hit_predict": ("count", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "cache.bytes_read": ("B", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "predictor.collect_miss_ms": ("ms", "lower", "warm_predict_miss_p50_ms", "warm_predict"),
    "cache.stores": ("count", "lower", "warm_predict_miss_p50_ms", "warm_predict"),
    "process.floor_ms": ("ms", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "ml.explain_us": ("us", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "warm.unattributed_ms": ("ms", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "warm.trace_overhead_ms": ("ms", "lower", "warm_predict_hit_p50_ms", "warm_predict"),
    "serve.queue_us_p50": ("us", "lower", "serve_lo_p50_us", "serve_lo"),
    "serve.queue_us_p99": ("us", "lower", "serve_lo_p99_us", "serve_lo"),
    "serve.unattributed_us": ("us", "lower", "serve_lo_p50_us", "serve_lo"),
    "serve.batch_rows_mean": ("rows", "higher", "serve_max_rps", "serve_hi"),
    "serve.rejected": ("count", "lower", "serve_hi_p99_us", "serve_hi"),
    "serve.cpu_us_per_req": ("us", "lower", "serve_max_rps", "serve_hi"),
    "serve.parse_ns": ("ns", "lower", "serve_hi_p50_us", "serve_hi"),
    "serve.format_ns": ("ns", "lower", "serve_hi_p50_us", "serve_hi"),
    "predictor.resolve_member_us": ("us", "lower", "serve_hi_p50_us", "serve_hi"),
    "ml.infer_ns_per_row_b1": ("ns", "lower", "serve_hi_p50_us", "serve_hi"),
    "ml.infer_ns_per_row_b32": ("ns", "lower", "serve_hi_p50_us", "serve_hi"),
    "serve.gen_late_us_p99": ("us", "lower", "(run validity)", "serve_lo"),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# processes

LIVE = set()


def stop_all():
    for pid in list(LIVE):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
        LIVE.discard(pid)


class Proc:
    """One finished child: wall and CPU seconds, peak RSS, output."""

    def __init__(self, wall, cpu, rss_kb, rc, out):
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_kb / 1024.0
        self.rc = rc
        self.out = out

    @classmethod
    def reaped(cls, t0, ru, status, out):
        return cls(time.perf_counter() - t0, ru.ru_utime + ru.ru_stime,
                   ru.ru_maxrss, os.waitstatus_to_exitcode(status), out)


def spawn(argv, stdout=None):
    """posix_spawn argv with stdout+stderr to `stdout` (an fd) or
    /dev/null; returns the pid, tracked until reaped."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    fd = devnull if stdout is None else stdout
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                       (os.POSIX_SPAWN_DUP2, fd, 2)])
    os.close(devnull)
    LIVE.add(pid)
    return pid


def reap(pid, t0, timeout):
    end = time.monotonic() + timeout
    while True:
        wpid, status, ru = os.wait4(pid, os.WNOHANG)
        if wpid:
            LIVE.discard(pid)
            return Proc.reaped(t0, ru, status, "")
        if time.monotonic() > end:
            stop_all()
            raise BenchError("timed out: pid %d" % pid)
        time.sleep(0.002)


def run(argv, timeout=120, tick=None):
    """Run argv to completion; wall time spans spawn to reap. tick(),
    when given, is called about every second while the child runs."""
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = spawn(argv, stdout=w)
    os.close(w)
    chunks, end = [], time.monotonic() + timeout
    next_tick = time.monotonic() + 1.0
    while True:
        now = time.monotonic()
        if tick and now >= next_tick:
            tick()
            next_tick += 1.0
        wait = min(end, next_tick if tick else end) - now
        ready, _, _ = select.select([r], [], [], max(0.0, wait))
        if not ready:
            if time.monotonic() < end:
                continue
            os.close(r)
            stop_all()
            raise BenchError("timed out: " + " ".join(argv))
        b = os.read(r, 65536)
        if not b:
            break
        chunks.append(b)
    os.close(r)
    _, status, ru = os.wait4(pid, 0)
    LIVE.discard(pid)
    return Proc.reaped(t0, ru, status,
                       b"".join(chunks).decode(errors="replace"))


def spawn_batch(ctx, name, commands, budget):
    """Run argv lists one at a time in mapp_probe, which times each from
    spawn to reap, until `budget` seconds are spent (at least one)."""
    cmds = write_lines(os.path.join(ctx.run_dir, name + ".cmds"),
                       ("\t".join(argv) for argv in commands))
    out = os.path.join(ctx.run_dir, name + ".runs")
    probe(ctx.snap, "spawn", "%.3f" % budget, cmds, out, timeout=budget + 120)
    procs = []
    with open(out, "rb") as f:
        for header in iter(f.readline, b""):
            _, wall_ns, cpu, rss_kb, rc, n = header.split()
            procs.append(Proc(int(wall_ns) / 1e9, float(cpu), int(rss_kb),
                              int(rc), f.read(int(n)).decode(errors="replace")))
    return procs


def cli(cache, *args):
    return [MAPP_CLI, "--log-level=quiet", "--threads=%d" % LANES,
            "--cache-dir=" + cache] + list(args)


def probe(cache, *args, timeout=120, tick=None):
    p = run([PROBE, "--cache-dir=" + cache, "--threads=%d" % LANES] +
            list(args), timeout=timeout, tick=tick)
    if p.rc != 0:
        raise BenchError("mapp_probe %s failed:\n%s" % (args[0], p.out))
    return p


# ---------------------------------------------------------------------
# build and provenance

def build():
    os.makedirs(WORK, exist_ok=True)
    logpath = os.path.join(WORK, "build.log")
    with open(logpath, "a") as logf:
        def step(cmd):
            if subprocess.run(cmd, stdout=logf, stderr=logf).returncode:
                raise BenchError("build failed, see " + logpath)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", BUILD, *gen,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        step(["cmake", "--build", BUILD, "--target", "mapp_cli",
              "mapp_probe", "-j", str(LANES)])


def provenance(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_vars = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:")):
                k, v = line.strip().split("=", 1)
                cache_vars[k.split(":")[0]] = v
    compiler = cache_vars.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    if not commit:
        commit = "source:" + bl.tree_digest(os.path.join(ROOT, "src"))[:16]
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "machine": platform.machine(),
            "compiler": version[0] if version else compiler,
            "build_type": cache_vars.get("CMAKE_BUILD_TYPE", ""),
            "lanes": LANES, "seed": args.seed, "commit": commit,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


# ---------------------------------------------------------------------
# set-up: the warm artifact cache every warm and serve run starts from

class Outcome:
    """attempted / failed counts with the reason of each failure. A
    failure is `wrong` unless it is a refusal or a missing answer: only
    wrong outputs make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = []

    def check(self, ok, why, wrong=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong
            if len(self.reasons) < 20:
                self.reasons.append(why)
        return ok


def setup(run_dir, reps, outcome):
    """Build the warm cache `reps` times (`mapp_cli cache warm` into an
    empty directory); the set-ups must be byte-identical. Returns
    (median seconds, snapshot dir, digest, campaign info)."""
    times, snap, digest = [], None, None
    for i in range(reps):
        d = os.path.join(run_dir, "setup%d" % i)
        p = run(cli(d, "cache", "warm"))
        if p.rc != 0:
            raise BenchError("cache warm failed:\n" + p.out)
        times.append(p.wall)
        dg = bl.tree_digest(d)
        if snap is None:
            snap, digest = d, dg
        else:
            outcome.check(dg == digest, "set-up %d differs from set-up 0" % i)
            shutil.rmtree(d)
    info = campaign_info(snap, run_dir)
    outcome.check(info["hash"] == CAMPAIGN_HASH,
                  "set-up campaign hash %s" % info["hash"])
    return bl.median(times), snap, digest, info


def fresh_copy(snap, digest, dest):
    """dest := a byte-identical copy of the set-up snapshot."""
    if bl.tree_digest(snap) != digest:
        raise BenchError("the set-up snapshot changed")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(snap, dest)
    if bl.tree_digest(dest) != digest:
        raise BenchError("the snapshot copy differs")
    return dest


def campaign_info(cache, run_dir):
    """Campaign bags, member features and dataset hash, read from a
    scratch copy of `cache` by mapp_probe."""
    tmp = os.path.join(run_dir, "campaign-cache")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(cache, tmp)
    out = os.path.join(run_dir, "campaign.txt")
    probe(tmp, "campaign", out)
    shutil.rmtree(tmp)
    info = {"bags": [], "features": {}}
    with open(out) as f:
        for line in f:
            tok = line.split()
            if tok[0] == "hash":
                info["hash"] = tok[1]
            elif tok[0] == "bag":
                info["bags"].append((tok[1], tok[2]))
            elif tok[0] == "member":
                info["features"][tok[1]] = [float(x) for x in tok[2:]]
    info["members"] = sorted(info["features"], key=bl.member_key)
    return info


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(str(x) + "\n" for x in lines))
    return path


# ---------------------------------------------------------------------
# workloads (--trace 0)

def loocv_table(out):
    lines = [l for l in out.splitlines() if "%" in l]
    return "\n".join(lines)


def cold_samples(ctx, outcome, budget, limit):
    """Fresh `loocv` processes, each on its own empty cache, until the
    budget is spent or `limit` ran; each must print the pinned table and
    leave the pinned campaign behind."""
    dirs = [os.path.join(ctx.run_dir, "cold%d" % i) for i in range(limit)]
    procs = spawn_batch(ctx, "cold", (cli(d, "loocv") for d in dirs), budget)
    for i, (d, p) in enumerate(zip(dirs, procs)):
        ok = p.rc == 0 and loocv_table(p.out) == LOOCV_TABLE
        h = campaign_info(d, ctx.run_dir)["hash"] if ok else None
        outcome.check(ok and h == CAMPAIGN_HASH,
                      "loocv sample %d: hash %s, printed:\n%s" % (i, h, p.out))
        shutil.rmtree(d, ignore_errors=True)
    return procs


def cold_campaign(ctx, outcome):
    samples = cold_samples(ctx, outcome, 0 if ctx.smoke else ctx.seconds,
                           1 if ctx.smoke else 1000)
    walls = [p.wall * 1e3 for p in samples]
    cpus = [p.cpu * 1e3 for p in samples]
    named = {"cold_campaign_s": (bl.median(walls) / 1e3, "s"),
             "cold_campaign_cpu_s": (bl.median(cpus) / 1e3, "s"),
             "cold_campaign_p90_s": (bl.percentile(walls, 90) / 1e3, "s"),
             "samples": (len(samples), "count")}
    return {"p50_ms": bl.median(walls),
            "peak_rss_mb": bl.median([p.rss_mb for p in samples])}, named


def predict_lines(out):
    pick = lambda key: next((l.split(":")[1].split()[0]
                             for l in out.splitlines() if key in l), None)
    return pick("predicted GPU time"), pick("measured GPU time")


def warm_predict(ctx, outcome):
    length = 60 if ctx.smoke else max(200, ctx.seconds * 1000)
    panel = bl.warm_panel(ctx.seed, ctx.info["bags"], ctx.info["members"],
                          length)
    bags = sorted({e[1:] for e in panel if e[0] != "reset"})
    oracle_cache = fresh_copy(ctx.snap, ctx.digest,
                              os.path.join(ctx.run_dir, "oracle-cache"))
    out = os.path.join(ctx.run_dir, "oracle-predict.txt")
    probe(oracle_cache, "oracle-predict",
          write_lines(os.path.join(ctx.run_dir, "panel.txt"),
                      ("%s %s" % b for b in bags)), out)
    with open(out) as f:
        expect = dict(zip(bags, (tuple(l.split()) for l in f)))

    # Laps end where the panel's unseen misses run out; each lap starts
    # from a fresh snapshot copy, so a miss is a miss.
    cache = os.path.join(ctx.run_dir, "cache")
    laps, lap = [], []
    for entry in panel:
        if entry[0] == "reset":
            laps.append(lap)
            lap = []
        else:
            lap.append(entry)
    laps.append(lap)
    rows = []  # (kind, Proc)
    end = time.monotonic() + ctx.seconds
    for lap in laps:
        budget = end - time.monotonic()
        if budget <= 0 and rows:
            break
        fresh_copy(ctx.snap, ctx.digest, cache)
        procs = spawn_batch(ctx, "warm", (cli(cache, "predict", a, b)
                                          for _, a, b in lap), budget)
        for (kind, a, b), p in zip(lap, procs):
            outcome.check(p.rc == 0 and predict_lines(p.out) == expect[(a, b)],
                          "predict %s %s printed %s, expected %s"
                          % (a, b, predict_lines(p.out), expect[(a, b)]))
            rows.append((kind, p))
    hits = [p.wall * 1e3 for k, p in rows if k == "hit"]
    misses = [p.wall * 1e3 for k, p in rows if k == "miss"] or [float("nan")]
    every = [p.wall * 1e3 for _, p in rows]
    hit_cpu = bl.median([p.cpu * 1e3 for k, p in rows if k == "hit"])
    named = {"warm_predict_hit_p50_ms": (bl.median(hits), "ms"),
             "warm_predict_miss_p50_ms": (bl.median(misses), "ms"),
             "warm_predict_hit_cpu_ms": (hit_cpu, "ms"),
             "hits": (len(hits), "count"),
             "misses": (len(rows) - len(hits), "count")}
    # p90 per window of 250 predicts (~50 misses), median over windows.
    named["warm_predict_p90_ms"] = (bl.windowed(every, 250, 90), "ms")
    return {"p50_ms": bl.median(hits),
            "peak_rss_mb": bl.median([p.rss_mb for _, p in rows])}, named


class ServeInputs:
    """The seeded request pool, its oracle answers and the schedules."""

    def __init__(self, ctx):
        self.ctx = ctx
        bodies, rows, spans, kinds = bl.serve_pool(
            ctx.seed, ctx.info["bags"], ctx.info["features"])
        self.kinds = kinds
        self.pool = write_lines(os.path.join(ctx.run_dir, "pool.txt"), bodies)
        oracle_cache = fresh_copy(ctx.snap, ctx.digest,
                                  os.path.join(ctx.run_dir, "oracle-cache"))
        out = os.path.join(ctx.run_dir, "oracle-serve.txt")
        probe(oracle_cache, "oracle-serve",
              write_lines(os.path.join(ctx.run_dir, "rows.txt"), rows), out)
        with open(out) as f:
            answers = [float(l) for l in f]
        self.expect = [answers[s:e] for s, e in spans]

    def schedule(self, phase, rate, seconds):
        count = max(1, int(rate * seconds))
        idx = bl.serve_schedule(self.ctx.seed, self.kinds, count, phase)
        path = os.path.join(self.ctx.run_dir, "schedule-%s.txt" % phase)
        return write_lines(path, idx), idx


class Server:
    """One `mapp_cli serve --socket` process with its default options."""

    SOCK = os.path.join(".bench_build", "serve.sock")

    def __init__(self, cache):
        if os.path.exists(self.SOCK):
            os.unlink(self.SOCK)
        self.t0 = time.perf_counter()
        self.pid = spawn(cli(cache, "serve", "--socket=" + self.SOCK))
        end = time.monotonic() + 60
        while True:
            if os.waitpid(self.pid, os.WNOHANG)[0]:
                LIVE.discard(self.pid)
                raise BenchError("mapp_cli serve exited at start")
            try:
                self.request({"op": "ping", "id": "ping"})
                return
            except OSError:
                if time.monotonic() > end:
                    raise BenchError("mapp_cli serve did not start")
                time.sleep(0.01)

    def request(self, obj):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(self.SOCK)
            s.sendall((json.dumps(obj) + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    raise OSError("server closed the connection")
                buf += chunk
        return json.loads(buf)

    def cpu_s(self):
        """CPU seconds of the server's live threads (ns resolution)."""
        task = "/proc/%d/task" % self.pid
        ns = 0
        for tid in os.listdir(task):
            try:
                with open(os.path.join(task, tid, "schedstat")) as f:
                    ns += int(f.read().split()[0])
            except OSError:  # the thread just exited
                pass
        return ns / 1e9

    def peak_rss_mb(self):
        """VmHWM, read while the server runs: a child's ru_maxrss also
        counts the memory of the process that spawned it."""
        with open("/proc/%d/status" % self.pid) as f:
            kb = next(l.split()[1] for l in f if l.startswith("VmHWM:"))
        return int(kb) / 1024.0

    def stop(self):
        self.request({"op": "shutdown", "id": "bye"})
        return reap(self.pid, self.t0, 30)


def load_phase(ctx, inputs, server, phase, rate, seconds, outcome,
               overload=False):
    """Drive one open-loop phase and check every answer. Returns, for
    the requests due after the warm-up, in due order: latency from the
    due time (ms; a refused, unsent, missing or wrong answer is inf,
    missing every limit), lateness (us) and queue wait (us); plus the
    failure count, the generator's CPU and wall seconds, and the
    server's CPU seconds per request in each whole second of the phase.
    With `overload` (a ladder rung past the knee) only wrong answers
    count against the run; the rest only fail the rung, and the
    generator gives up once it is 1 s behind (10 s otherwise)."""
    sched_path, sched = inputs.schedule(phase, rate, seconds)
    out = os.path.join(ctx.run_dir, "loadgen-%s.txt" % phase)
    warmup = 0.05 if ctx.smoke else 0.2
    cpu = []
    give_up = 1 if overload else 10
    probe(ctx.snap, "loadgen", Server.SOCK, str(rate), str(warmup),
          str(give_up), inputs.pool, sched_path, out, timeout=seconds + 60,
          tick=lambda: cpu.append((time.monotonic(), server.cpu_s())))
    lat, late, queue, failed = [], [], [], 0
    with open(out) as f:
        head = f.readline().split()
        gen_cpu, gen_wall = float(head[1]), float(head[3])
        window_waits = int(head[5])
        for line in f:
            i, warm, late_ns, lat_ns, reply = line.rstrip("\n").split(" ", 4)
            i = int(i)
            ok, why = False, "not sent" if late_ns == "-1" else "no answer"
            if reply != "-":
                r = json.loads(reply)
                got = r.get("predicted_seconds")
                got = got if isinstance(got, list) else [got]
                ok = (r.get("ok") is True and r.get("id") == str(i) and
                      got == inputs.expect[sched[i]])
                why = reply if r.get("ok") is True else r.get("error")
            wrong = reply != "-" and r.get("ok") is True and not ok
            if not overload or wrong:
                outcome.check(ok, "%s request %d: %s" % (phase, i, why), wrong)
            failed += not ok
            if warm == "0":
                late.append(int(late_ns) / 1e3 if late_ns != "-1"
                            else float("inf"))
                lat.append(int(lat_ns) / 1e6 if ok else float("inf"))
                if ok:
                    queue.append(r["queue_us"])
    cpu_per_req = [(c1 - c0) / ((t1 - t0) * rate)
                   for (t0, c0), (t1, c1) in zip(cpu, cpu[1:])]
    return {"lat_ms": lat, "late_us": late, "queue_us": queue,
            "failed": failed, "gen_cpu_s": gen_cpu, "gen_wall_s": gen_wall,
            "window_waits": window_waits,
            "cpu_per_req_s": cpu_per_req, "per_second": int(rate)}


def generator_note(phase, res, named):
    late_p99 = bl.percentile(res["late_us"], 99)
    named["%s_gen_late_us_p99" % phase] = (late_p99, "us")
    named["%s_gen_cpu_frac" % phase] = (res["gen_cpu_s"] / res["gen_wall_s"],
                                        "ratio")
    named["%s_gen_window_waits" % phase] = (res["window_waits"], "count")
    if late_p99 > bl.LATENCY_LIMIT_MS * 1e3:
        named["%s_generator_late" % phase] = (1, "flag")
        log("warning: the load generator ran %.0f us late at p99 in %s, "
            "more than the %.0f ms latency limit; this run's serve "
            "latencies are suspect" % (late_p99, phase, bl.LATENCY_LIMIT_MS))


def serve_run(ctx, outcome, rate, phase):
    inputs = ServeInputs(ctx)
    cache = fresh_copy(ctx.snap, ctx.digest,
                       os.path.join(ctx.run_dir, "cache"))
    seconds = 0.3 if ctx.smoke else ctx.seconds * (1.0 if phase == "lo" else 0.5)
    server = Server(cache)
    res = load_phase(ctx, inputs, server, phase, rate, seconds, outcome)
    stats = server.request({"op": "stats", "id": "stats"})
    rss_mb = server.peak_rss_mb()
    proc = server.stop()
    # p50, tails and CPU are medians over one-second windows, so one
    # host stall moves one window, not the run.
    p50 = bl.windowed(res["lat_ms"], res["per_second"], 50)
    tail = bl.windowed(res["lat_ms"], res["per_second"], 99)
    cpu = (bl.median(res["cpu_per_req_s"]) if res["cpu_per_req_s"]
           else proc.cpu / max(1, stats["requests"]))
    named = {"serve_%s_p50_us" % phase: (p50 * 1e3, "us"),
             "serve_%s_p99_us" % phase: (tail * 1e3, "us"),
             "serve_%s_p99_whole_run_us" % phase: (
                 bl.percentile(res["lat_ms"], 99) * 1e3, "us"),
             "serve_%s_rejected" % phase: (stats["rejected_full"], "count"),
             "serve_%s_cpu_us_per_req" % phase: (cpu * 1e6, "us"),
             "requests": (len(res["lat_ms"]), "count")}
    generator_note(phase, res, named)
    metrics = {"p50_ms": p50, "peak_rss_mb": rss_mb}
    if phase == "hi":
        named["serve_max_rps"] = (max_rate(ctx, inputs, outcome), "1/s")
    return metrics, named


def max_rate(ctx, inputs, outcome):
    """Highest ladder rate whose p99 meets the limit with no request
    failed, against a fresh server on a fresh cache copy. Refusals
    above the knee are the expected overload answer and do not count
    as failures of the run; wrong answers do."""
    cache = fresh_copy(ctx.snap, ctx.digest,
                       os.path.join(ctx.run_dir, "cache"))
    server = Server(cache)
    rung_s = 0.2 if ctx.smoke else ctx.seconds * 0.5 / 4

    def passes(rate):
        res = load_phase(ctx, inputs, server, "ladder", rate, rung_s, outcome,
                         overload=True)
        return bl.meets_limit(res["lat_ms"], res["failed"], rate // 4)

    best, probed = bl.ladder_max(passes)
    server.stop()
    log("ladder: " + ", ".join("%d:%s" % (r, "pass" if ok else "fail")
                               for r, ok in sorted(probed.items())))
    return best or 0


def serve_lo(ctx, outcome):
    return serve_run(ctx, outcome, bl.SERVE_LO_RPS, "lo")


def serve_hi(ctx, outcome):
    return serve_run(ctx, outcome, bl.SERVE_HI_RPS, "hi")


# ---------------------------------------------------------------------
# traced run (--trace 1): every layer, whatever the workload

def spans_by_name(path):
    with open(path) as f:
        doc = json.load(f)
    by = {}
    for s in doc["spans"]:
        by.setdefault(s["name"], []).append(s)
    return doc, by


def dur(s):
    return (s["end_ns"] - s["start_ns"]) / 1e9


def per_call(spans_):
    s = spans_[0]
    return dur(s) / s["count"]


def trace_cold(ctx, outcome, m):
    d = os.path.join(ctx.run_dir, "cold-traced")
    shutil.rmtree(d, ignore_errors=True)
    out = os.path.join(ctx.run_dir, "spans-cold.json")
    p = probe(d, "layers-cold", out)
    outcome.check("hash %s" % CAMPAIGN_HASH in p.out and
                  "loocv_mean 18.46" in p.out, "traced campaign: " + p.out)
    doc, by = spans_by_name(out)
    units = [dur(s) for s in by["vision.unit"]]
    unprofiled = sum(dur(s) for s in by["profiler.unit"])
    stages = ("vision.profile", "predictor.member_features", "sim.corun",
              "predictor.assemble", "ml.fit", "ml.loocv")
    m["vision.profile_s"] = dur(by["vision.profile"][0])
    m["vision.longest_unit_s"] = max(units)
    m["vision.busy_s"] = sum(units)
    m["parallel.profile_utilization"] = sum(units) / (
        m["vision.profile_s"] * doc["lanes"])
    m["profiler.overhead_frac"] = (sum(units) - unprofiled) / sum(units)
    m["predictor.member_features_s"] = dur(by["predictor.member_features"][0])
    m["sim.corun_s"] = dur(by["sim.corun"][0])
    m["sim.events"] = doc["values"]["sim.events"]
    m["sim.events_per_s"] = m["sim.events"] / m["sim.corun_s"]
    m["predictor.assemble_s"] = dur(by["predictor.assemble"][0])
    m["ml.fit_s"] = dur(by["ml.fit"][0])
    m["ml.loocv_s"] = dur(by["ml.loocv"][0])
    m["cache.bytes_written"] = doc["values"]["cache.bytes_written"]
    wall = bl.median([p.wall for p in cold_samples(ctx, outcome, 600, ctx.reps)])
    m["cold.unattributed_s"] = wall - sum(dur(by[s][0]) for s in stages)
    m["cold.trace_overhead_s"] = dur(by["cold"][0]) - wall
    shutil.rmtree(d)


def trace_warm(ctx, outcome, m):
    cache = fresh_copy(ctx.snap, ctx.digest,
                       os.path.join(ctx.run_dir, "cache"))
    panel = bl.warm_panel(ctx.seed, ctx.info["bags"], ctx.info["members"], 400)
    count = 5 if ctx.smoke else 30
    hits = [e[1:] for e in panel if e[0] == "hit"][:count]
    misses = bl.fresh_misses(ctx.seed, ctx.info["bags"], ctx.info["members"],
                             count // 2)
    out = os.path.join(ctx.run_dir, "spans-warm.json")
    probe(cache, "layers-warm",
          write_lines(os.path.join(ctx.run_dir, "hits.txt"),
                      ("%s %s" % b for b in hits)),
          write_lines(os.path.join(ctx.run_dir, "misses.txt"),
                      ("%s %s" % b for b in misses)), out)
    doc, by = spans_by_name(out)
    ms = lambda name: bl.median([dur(s) * 1e3 for s in by[name]])
    for name in ("cache.campaign_load", "cache.model_load",
                 "predictor.collect_hit", "predictor.collect_miss"):
        m[name + "_ms"] = ms(name)
    v = doc["values"]
    m["cache.hit_ratio"] = v["cache.hit_ratio"]
    m["cache.lookups_per_hit_predict"] = v["cache.lookups_per_hit_predict"]
    m["cache.bytes_read"] = v["cache.bytes_read_per_hit_predict"]
    m["cache.stores"] = v["cache.stores_per_miss_predict"]
    m["ml.explain_us"] = per_call(by["ml.explain_loop"]) * 1e6
    # The floor: exec to exit of a command that scans an empty cache.
    empty = os.path.join(ctx.run_dir, "empty-cache")
    os.makedirs(empty, exist_ok=True)
    floor = spawn_batch(ctx, "floor", [cli(empty, "cache", "stats")] * count,
                        60)
    m["process.floor_ms"] = bl.median([p.wall * 1e3 for p in floor])
    cache = fresh_copy(ctx.snap, ctx.digest, cache)
    untraced = spawn_batch(ctx, "untraced", (cli(cache, "predict", a, b)
                                             for a, b in hits), 60)
    for (a, b), p in zip(hits, untraced):
        outcome.check(p.rc == 0, "predict %s %s failed" % (a, b))
    wall = bl.median([p.wall * 1e3 for p in untraced])
    traced = bl.median([dur(s) * 1e3 for s in by["warm.predict"]])
    m["warm.unattributed_ms"] = wall - (
        m["process.floor_ms"] + m["cache.campaign_load_ms"] +
        m["cache.model_load_ms"] + m["predictor.collect_hit_ms"] +
        m["ml.explain_us"] / 1e3)
    m["warm.trace_overhead_ms"] = traced - (wall - m["process.floor_ms"])


def trace_serve(ctx, outcome, m):
    inputs = ServeInputs(ctx)
    sched_path, _ = inputs.schedule("micro", 20000, 0.1 if ctx.smoke else 1.0)
    out = os.path.join(ctx.run_dir, "spans-serve.json")
    cache = fresh_copy(ctx.snap, ctx.digest,
                       os.path.join(ctx.run_dir, "cache"))
    probe(cache, "layers-serve", inputs.pool, sched_path, out)
    _, by = spans_by_name(out)
    m["serve.parse_ns"] = per_call(by["serve.parse_loop"]) * 1e9
    m["serve.format_ns"] = per_call(by["serve.format_loop"]) * 1e9
    m["predictor.resolve_member_us"] = per_call(
        by["predictor.resolve_member_loop"]) * 1e6
    m["ml.infer_ns_per_row_b1"] = per_call(by["ml.infer_b1_loop"]) * 1e9
    m["ml.infer_ns_per_row_b32"] = per_call(by["ml.infer_b32_loop"]) * 1e9

    fresh_copy(ctx.snap, ctx.digest, cache)
    server = Server(cache)
    seconds = 0.3 if ctx.smoke else 3.0
    lo = load_phase(ctx, inputs, server, "lo", bl.SERVE_LO_RPS, seconds,
                    outcome)
    s0 = server.request({"op": "stats", "id": "s0"})
    hi = load_phase(ctx, inputs, server, "hi", bl.SERVE_HI_RPS, seconds,
                    outcome)
    s1 = server.request({"op": "stats", "id": "s1"})
    server.stop()
    m["serve.queue_us_p50"] = bl.median(lo["queue_us"])
    m["serve.queue_us_p99"] = bl.percentile(lo["queue_us"], 99)
    m["serve.gen_late_us_p99"] = bl.percentile(lo["late_us"], 99)
    m["serve.batch_rows_mean"] = ((s1["predictions"] - s0["predictions"]) /
                                  max(1, s1["batches"] - s0["batches"]))
    m["serve.rejected"] = s1["rejected_full"]
    m["serve.cpu_us_per_req"] = bl.median(hi["cpu_per_req_s"] or [0]) * 1e6
    m["serve.unattributed_us"] = bl.median(lo["lat_ms"]) * 1e3 - (
        m["serve.queue_us_p50"] + (m["serve.parse_ns"] + m["serve.format_ns"] +
                                   m["ml.infer_ns_per_row_b1"]) / 1e3 +
        bl.SERVE_MIX[1] * m["predictor.resolve_member_us"])


# ---------------------------------------------------------------------

class Context:
    pass


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budget: one set-up, one sample, short phases")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    build()

    ctx = Context()
    ctx.seed, ctx.seconds, ctx.smoke = args.seed, args.seconds, args.smoke
    ctx.reps = 1 if args.smoke else 3
    ctx.run_dir = os.path.join(WORK, "run")
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    os.makedirs(ctx.run_dir)
    outcome = Outcome()
    setup_s, ctx.snap, ctx.digest, ctx.info = setup(ctx.run_dir, ctx.reps,
                                                    outcome)
    if args.trace:
        layers = {}
        trace_cold(ctx, outcome, layers)
        trace_warm(ctx, outcome, layers)
        trace_serve(ctx, outcome, layers)
        metrics = {k: {"value": layers[k], "unit": LAYERS[k][0]}
                   for k in LAYERS}
        print("%-32s %14s %-6s  %-26s %s" % ("layer metric", "value", "unit",
                                             "moves", "on"))
        for k, (unit, _, moves, on) in LAYERS.items():
            print("%-32s %14.6g %-6s  %-26s %s" % (k, layers[k], unit, moves, on))
        named = {}
    else:
        e2e, named = globals()[args.workload](ctx, outcome)
        e2e["setup_s"] = setup_s
        units = {"setup_s": "s", "p50_ms": "ms", "peak_rss_mb": "MB"}
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in units}
        for k, (v, unit) in named.items():
            print("%-30s %14.6g %s" % (k, v, unit))
    for why in outcome.reasons:
        log("FAILED: " + why)
    named["fail_frac"] = (outcome.failed / max(1, outcome.attempted), "ratio")
    print("%-30s %14.6g ratio (%d failed of %d attempted)" % (
        "fail_frac", named["fail_frac"][0], outcome.failed, outcome.attempted))
    result = {"correct": outcome.wrong == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time())))
    with open(path, "w") as f:
        json.dump({"provenance": provenance(args), "named": named, **result},
                  f, indent=1)
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    # A stopped benchmark still stops every process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main(sys.argv[1:])
    except BenchError as e:
        log("error: %s" % e)
        sys.exit(1)
    finally:
        stop_all()
