#!/usr/bin/env python3
"""Request-path benchmark for buffyd and buffyd-router.

Builds the daemons from the sources one directory up, starts the real
binaries, drives them from one client process over their Unix sockets,
checks every answer against committed oracle fronts, and prints the
end-to-end metrics as the last line of standard output. With --trace 1 the
same workload runs and is then replayed in-process by bench_tool, which
times every layer call and writes a Chrome trace; that run prints the
per-layer metrics instead. See README.md in this directory.

    python3 perfbench/run.py --workload warm_mix --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # every workload, short, schema check
    python3 perfbench/run.py --rebuild-inputs --corpus-seed 7   # new corpus + oracle
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join(HERE, "inputs")
WORKLOADS = ("cold_explore", "warm_mix", "fleet_scatter")

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "cpu_ms_per_req": "ms",
}
PER_LAYER = {
    "io.parse_ms": "ms",
    "analysis.certificate_ms": "ms",
    "analysis.max_throughput_ms": "ms",
    "buffer.fast_front_ms": "ms",
    "lp.solves": "count",
    "lp.pivots": "count",
    "buffer.bounds_ms": "ms",
    "buffer.explore_ms": "ms",
    "state.sims_per_s": "1/s",
    "buffer.distributions": "count",
    "buffer.simulations": "count",
    "buffer.sim_ratio": "ratio",
    "buffer.cache_hits": "count",
    "buffer.dominance_skips": "count",
    "buffer.lp_prunes": "count",
    "state.run_us": "us",
    "service.codec_us": "us",
    "service.overhead_ms": "ms",
    "service.cache_warm_hits": "count",
    "service.overloaded": "count",
    "service.error_rate": "ratio",
    "fleet.slices": "count",
    "fleet.forwarded": "count",
    "fleet.redispatches": "count",
    "fleet.restarts": "count",
    "fleet.scatter_overhead_ms": "ms",
    "self.io_ms": "ms",
    "self.analysis_ms": "ms",
    "self.lp_ms": "ms",
    "self.state_ms": "ms",
    "self.buffer_ms": "ms",
    "self.service_ms": "ms",
    "self.fleet_ms": "ms",
    "trace.overhead_ms": "ms",
    "client.samples": "count",
}

# Least daemon starts per run; setup_s reports their median. warm_mix's
# set-up is dominated by one cold h263 `exh` warm-up request whose time
# swung between 0.74 and 1.20 s across fresh daemons on the baseline host,
# so the median needs this many starts to stay put.
SETUPS = 7
# Fleet shape of fleet_scatter (workers x threads, client connections).
FLEET_WORKERS, FLEET_THREADS, FLEET_CONNS = 2, 2, 2
WARM_CONNS = 4
TINY_MODELS = ("example", "fig6", "modem", "mpeg4")
# Stress corpus draws: (group, engine, graphs, band). A graph is kept when
# its engine's distributions_explored count lies in the band (about
# 0.1-0.4 s of exploration on a 2 GHz core); each draw has its own seed.
CORPUS_GROUPS = (("cold", "exh", 10, (10000, 25000)),
                 ("cold", "inc", 10, (6000, 15000)),
                 ("scatter", "exh", 8, (15000, 35000)))
FLEET_WARM = (("samplerate", "exh", None), ("mp3", "inc", None),
              ("satellite", "inc", None), ("modem", "exh", None),
              ("h263", "inc", 4))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class BenchFailure(Exception):
    """A wrong answer or an invalid run: the run reports correct=false."""


# ------------------------------------------------------------------ build

def build():
    """Builds buffyd, buffyd_router and bench_tool; returns the binary dir."""
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "examples", "buffyd.cpp"))):
        raise SystemExit("perfbench: the buffy sources (src/, examples/) are "
                         "missing next to perfbench/; cannot build")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    os.makedirs(out, exist_ok=True)
    ninja = shutil.which("ninja") is not None
    marker = os.path.join(out, "build.ninja" if ninja else "Makefile")
    with open(os.path.join(out, "build.log"), "a") as logf:
        if not os.path.exists(marker):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if ninja:
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=logf, stderr=logf)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        res = subprocess.run(["cmake", "--build", out, "-j", jobs],
                             stdout=logf, stderr=logf)
    if res.returncode != 0:
        raise SystemExit("perfbench: build failed; see " +
                         os.path.join(out, "build.log"))
    return out


# ----------------------------------------------------------------- inputs

def load_inputs():
    with open(os.path.join(INPUTS, "manifest.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(INPUTS, "oracle.json")) as f:
        oracle = json.load(f)
    graphs = {}
    for g in manifest["graphs"]:
        with open(os.path.join(INPUTS, g["file"])) as f:
            g["text"] = f.read()
        graphs[g["name"]] = g
    return graphs, oracle


def front_key(name, engine, levels):
    return "%s|%s|%s" % (name, engine, "-" if levels is None else levels)


def caps_key(name, caps):
    return "%s|%s" % (name, ",".join(str(c) for c in caps))


class Req:
    """One request of a plan: the wire line plus what checking it needs."""

    __slots__ = ("kind", "graph", "engine", "levels", "caps", "line", "key")

    def __init__(self, graph, kind, engine=None, levels=None, caps=None,
                 scatter=False):
        self.kind, self.graph, self.engine = kind, graph["name"], engine
        self.levels, self.caps = levels, caps
        body = {"method": "analyze_throughput" if kind.startswith("analyze")
                else "explore_pareto",
                "graph": graph["text"], "format": "dsl",
                "target": graph["target"]}
        if kind == "analyze_caps":
            body["capacities"] = caps
        if kind in ("explore", "explore_nocache", "scatter"):
            body["quality"] = "exact"
            body["engine"] = engine
        if kind == "fast":
            body["quality"] = "fast"
        if levels is not None:
            body["levels"] = levels
        if kind == "explore_nocache":
            body["cache"] = False
        if scatter:
            body["scatter"] = True
        self.line = json.dumps(body, separators=(",", ":"))
        self.key = "%s|%s|%s|%s|%s" % (kind, self.graph, engine, levels,
                                       ",".join(map(str, caps or [])))

    def wire(self, rid):
        return ('{"id":%d,%s\n' % (rid, self.line[1:])).encode()


def warm_mix_plan(graphs, oracle):
    models = [g for g in graphs.values() if g["group"] == "model"]
    distinct, warmup = [], []
    for m in models:
        distinct.append(Req(m, "analyze_max"))
        for caps in oracle["capacities"][m["name"]]:
            distinct.append(Req(m, "analyze_caps", caps=caps))
        for engine in ("inc", "exh"):
            for levels in (None, 4):
                r = Req(m, "explore", engine, levels)
                distinct.append(r)
                warmup.append(r)
        distinct.append(Req(m, "fast"))
        if m["name"] in TINY_MODELS:
            for engine in ("inc", "exh"):
                distinct.append(Req(m, "explore_nocache", engine))
    return distinct, warmup


def cold_plan(graphs):
    reqs = [Req(g, "explore", g["engine"])
            for g in graphs.values() if g["group"] == "cold"]
    reqs.append(Req(graphs["h263"], "explore", "inc"))
    return reqs


def fleet_plan(graphs):
    reqs, warmup = [], []
    for g in graphs.values():
        if g["group"] == "scatter":
            reqs.append(Req(g, "scatter", "exh", scatter=True))
            reqs.append(Req(g, "analyze_max"))
    for name, engine, levels in FLEET_WARM:
        r = Req(graphs[name], "explore", engine, levels)
        warmup.append(r)
        reqs += [r, r]
        reqs.append(Req(graphs[name], "analyze_max"))
    return reqs, warmup


# ------------------------------------------------------------- processes

class Daemon:
    """A spawned buffyd or buffyd-router, in its own process group."""

    live = []

    def __init__(self, argv, run_dir, sock):
        self.sock = os.path.join(run_dir, sock)
        self.t0 = time.perf_counter()
        self.err = open(os.path.join(run_dir, sock + ".log"), "ab")
        self.proc = subprocess.Popen(argv, cwd=run_dir, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.err,
                                     start_new_session=True)
        Daemon.live.append(self)

    def status(self):
        conn = Conn(self.sock)
        try:
            return json.loads(conn.call(b'{"id":0,"method":"status"}\n')[1])["result"]
        finally:
            conn.close()

    def wait_ready(self, workers=0, timeout=30.0):
        """Polls `status` until the daemon (and its workers) answer."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with %d during start-up"
                                   % self.proc.returncode)
            try:
                st = self.status()
                if workers == 0 or st["fleet"]["up"] == workers:
                    return
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.001)
        raise RuntimeError("daemon not ready after %.0f s" % timeout)

    def pids(self):
        pids = [self.proc.pid]
        try:
            shards = self.status().get("shards", [])
        except (OSError, ValueError):
            shards = []
        return pids + [s["pid"] for s in shards if s.get("pid", -1) > 0]

    def stop(self):
        if self.proc.poll() is None:
            try:
                conn = Conn(self.sock, timeout=15.0)
                conn.call(b'{"id":0,"method":"shutdown"}\n')
                conn.close()
                self.proc.wait(timeout=15)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stray workers, if any
        except (ProcessLookupError, PermissionError):
            pass
        self.err.close()
        if self in Daemon.live:
            Daemon.live.remove(self)


def stop_all():
    for d in list(Daemon.live):
        d.stop()


class Conn:
    """One client connection: newline-delimited JSON, one call at a time."""

    def __init__(self, path, timeout=170.0):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.settimeout(timeout)
        self.buf = b""
        try:
            # Relative to the cwd keeps the path under the sun_path limit.
            self.s.connect(os.path.relpath(path))
        except OSError:
            self.s.close()
            raise

    def call(self, data):
        t0 = time.perf_counter()
        self.s.sendall(data)
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                line, self.buf = self.buf[:nl], self.buf[nl + 1:]
                return time.perf_counter() - t0, line
            chunk = self.s.recv(1 << 16)
            if not chunk:
                raise OSError("connection closed by the daemon")
            self.buf += chunk

    def close(self):
        self.s.close()


def proc_cpu_ticks(pid):
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime
    except (OSError, IndexError, ValueError):
        return 0


def proc_hwm_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------- driving

class Session:
    """Everything one run measures, accumulated over its daemon lifetimes."""

    def __init__(self):
        self.samples = []      # (Req, latency_s, response bytes)
        self.measured_s = 0.0  # wall time of the closed loops
        self.cpu_ticks = 0     # server utime + stime over those loops
        self.setups = []
        self.peak_rss_kb = 0
        self.status = []       # final status of every daemon
        self.slices = 0        # explore_slice requests scatters fanned out


def closed_loop(sock, conns, next_req, session):
    """Runs `conns` closed-loop callers until next_req() returns None."""
    lock = threading.Lock()
    rid = [0]
    errors = []

    def caller():
        try:
            conn = Conn(sock)
        except OSError as e:
            errors.append(e)
            return
        try:
            while True:
                with lock:
                    req = next_req()
                    rid[0] += 1
                    this_id = rid[0]
                if req is None:
                    return
                lat, resp = conn.call(req.wire(this_id))
                with lock:
                    session.samples.append((req, lat, resp))
        except OSError as e:
            errors.append(e)
        finally:
            conn.close()

    threads = [threading.Thread(target=caller) for _ in range(conns)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    session.measured_s += time.perf_counter() - t0
    if errors:
        raise BenchFailure("client connection failed: %s" % errors[0])


def start(spawn, bins, run_dir, tag, workers, warmup, session):
    """Starts a daemon and waits until it (and its workers) answer, then
    sends the warm-up requests one at a time: a sequential warm-up keeps
    the warm caches, and the set-up time, independent of how concurrent
    explorations of one graph interleave. Records the set-up time."""
    daemon = spawn(bins, run_dir, tag)
    try:
        daemon.wait_ready(workers)
        scratch = Session()
        it = iter(warmup)
        closed_loop(daemon.sock, 1, lambda: next(it, None), scratch)
        for _, _, resp in scratch.samples:
            if not json.loads(resp).get("ok"):
                raise BenchFailure("warm-up request failed: %s" % resp[:200])
    except BaseException:
        daemon.stop()
        raise
    session.setups.append(time.perf_counter() - daemon.t0)
    return daemon


def measure(daemon, session, conns, next_req):
    """Runs a closed loop against a ready daemon, accounting its CPU (router
    and workers included) and peak memory, then records its status."""
    pids = daemon.pids()
    before = sum(proc_cpu_ticks(p) for p in pids)
    closed_loop(daemon.sock, conns, next_req, session)
    session.cpu_ticks += sum(proc_cpu_ticks(p) for p in pids) - before
    session.peak_rss_kb = max(session.peak_rss_kb,
                              sum(proc_hwm_kb(p) for p in pids))
    session.status.append(daemon.status())


def spawn_buffyd(bins, run_dir, tag):
    return Daemon([os.path.join(bins, "buffyd"), "--socket", tag + ".sock",
                   "--threads", str(WARM_CONNS)], run_dir, tag + ".sock")


def spawn_router(bins, run_dir, tag):
    return Daemon([os.path.join(bins, "buffyd_router"), "--socket",
                   tag + ".sock", "--workers", str(FLEET_WORKERS),
                   "--worker-threads", str(FLEET_THREADS),
                   "--worker-bin", os.path.join(bins, "buffyd"),
                   "--runtime-dir", tag + ".d"], run_dir, tag + ".sock")


def run_passes(bins, run_dir, seed, seconds, reqs, conns, spawn, workers,
               warmup, session):
    """Pass-based workloads: every pass sends each request of `reqs` once,
    in a seeded order, to a freshly started daemon, so caches start cold;
    passes repeat until `seconds` of closed-loop time were measured."""
    rng = random.Random(seed)
    n = 0
    while session.measured_s < seconds or n < 1:
        daemon = start(spawn, bins, run_dir, "p%d" % n, workers, warmup, session)
        try:
            order = list(reqs)
            rng.shuffle(order)
            it = iter(order)
            measure(daemon, session, conns, lambda: next(it, None))
        finally:
            daemon.stop()
        n += 1
    while len(session.setups) < SETUPS:  # set-up samples without a pass
        start(spawn, bins, run_dir, "s%d" % n, workers, warmup, session).stop()
        n += 1


def run_timed(bins, run_dir, seed, seconds, distinct, warmup, session):
    """warm_mix: one warmed buffyd, WARM_CONNS callers cycling through a
    seeded shuffle of the distinct requests until `seconds` elapse."""
    for i in range(SETUPS - 1):  # set-up samples; the last start is measured
        start(spawn_buffyd, bins, run_dir, "s%d" % i, 0, warmup, session).stop()
    daemon = start(spawn_buffyd, bins, run_dir, "w", 0, warmup, session)
    rng = random.Random(seed)
    cycle = []
    stop_at = time.perf_counter() + seconds

    def next_req():
        if time.perf_counter() >= stop_at:
            return None
        if not cycle:
            cycle.extend(distinct)
            rng.shuffle(cycle)
        return cycle.pop()

    try:
        measure(daemon, session, WARM_CONNS, next_req)
    finally:
        daemon.stop()


# --------------------------------------------------------------- checking

def dominated(point, front):
    size, tput = point
    return any(s <= size and t >= tput for s, t in front)


def check(session, oracle):
    """Checks every answer; returns (attempted, failed). A wrong answer
    raises BenchFailure; an error response is a failed operation."""
    failed = 0
    fronts = oracle["fronts"]
    for req, _, resp in session.samples:
        doc = json.loads(resp)
        if not doc.get("ok"):
            failed += 1
            continue
        res = doc["result"]
        if req.kind in ("explore", "explore_nocache", "scatter"):
            want = fronts[front_key(req.graph, req.engine, req.levels)]["front"]
            if res["front"] != want:
                raise BenchFailure("front mismatch on %s" % req.key)
            if req.kind == "scatter":
                if not res.get("scattered"):
                    raise BenchFailure("scatter request was not scattered")
                session.slices += res["slices"]
        elif req.kind == "fast":
            exact = [(s, Fraction(t)) for s, t in
                     fronts[front_key(req.graph, "inc", None)]["points"]]
            for p in res["points"]:
                if not dominated((p["size"], Fraction(p["throughput"])), exact):
                    raise BenchFailure("fast point %s of %s beats the exact "
                                       "front" % (p["size"], req.graph))
        elif req.kind == "analyze_max":
            if res["throughput"] != oracle["max_throughput"][req.graph]:
                raise BenchFailure("max throughput mismatch on %s" % req.graph)
        elif req.kind == "analyze_caps":
            if res["throughput"] != oracle["simulate"][caps_key(req.graph, req.caps)]:
                raise BenchFailure("simulated throughput mismatch on %s" % req.key)
    return len(session.samples), failed


def check_status(session, fleet):
    """Counters from outside: an overloaded answer at the sized load or a
    worker restart makes the run invalid."""
    for st in session.status:
        if st["responses"]["overloaded"] != 0:
            raise BenchFailure("invalid run: %d requests answered overloaded"
                               % st["responses"]["overloaded"])
        if fleet and st["fleet"]["restarts_total"] != 0:
            raise BenchFailure("invalid run: a fleet worker restarted")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    v = sorted(values)
    k = max(0, min(len(v) - 1, int(-(-q * len(v) // 100)) - 1))
    return v[k]


def end_to_end(session, attempted):
    """Latency percentiles pool every answered request of the run; a
    percentile with fewer than ten samples beyond it is flagged on stderr."""
    lats = [lat * 1000.0 for _, lat, resp in session.samples
            if b'"ok":true' in resp[:40]]
    n = len(lats)
    for q in (50, 90, 99):
        beyond = n - int(-(-q * n // 100))
        if beyond < 10:
            log("latency p%d: %d of %d samples beyond it, below the "
                "10-sample floor" % (q, beyond, n))
    hz = os.sysconf("SC_CLK_TCK")
    return {
        "setup_s": statistics.median(session.setups),
        "throughput_rps": n / session.measured_s,
        "latency_p50_ms": percentile(lats, 50),
        "latency_p90_ms": percentile(lats, 90),
        "latency_p99_ms": percentile(lats, 99),
        "ok_rate": n / attempted,
        "peak_rss_mb": session.peak_rss_kb / 1024.0,
        "cpu_ms_per_req": session.cpu_ticks * 1000.0 / hz / max(1, n),
    }


# ---------------------------------------------------------------- tracing

def replay(bins, run_dir, reqs, warmup, reps):
    """In-process replay of `reqs`; returns the rows of its three passes:
    untraced on a fresh process, traced, and untraced again."""
    req_path = os.path.join(run_dir, "replay.jsonl")
    warm_path = os.path.join(run_dir, "replay_warmup.jsonl")
    with open(req_path, "w") as f:
        f.writelines(r.line + "\n" for r in reqs)
    with open(warm_path, "w") as f:
        f.writelines(r.line + "\n" for r in warmup)
    out = subprocess.run(
        [os.path.join(bins, "bench_tool"), "replay", "--requests", req_path,
         "--warmup", warm_path, "--reps", str(reps),
         "--trace-out", os.path.join(run_dir, "trace.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    if out.returncode != 0:
        raise BenchFailure("replay failed: %s" % out.stderr.decode()[-500:])
    rows = [json.loads(line) for line in out.stdout.splitlines() if line]
    return tuple([r for r in rows if r["pass"] == p] for p in range(3))


def med(values):
    return statistics.median(values) if values else 0.0


def per_layer(session, reqs, passes, attempted, failed, fleet):
    """Per-layer metrics from the replay passes and the daemons' status."""
    untraced, traced, untraced_after = passes
    sp = lambda r, k: r["spans"].get(k, 0.0) / 1000.0   # -> ms
    cnt = lambda rows, k: sum(r["counters"].get(k, 0) for r in rows)
    explores = [r for r in traced if r["kind"].startswith("explore")]
    fast = [r for r in traced if r["kind"] == "fast"]
    caps = [r for r in traced if r["kind"] == "analyze_caps"]

    # Untraced in-process wall time per request key (median over reps) on
    # a fresh process, like the daemon's, then the client-observed latency
    # minus it: what the daemon path adds.
    inproc = {}
    for r in untraced:
        inproc.setdefault(reqs[r["i"]].key, []).append(r["total_us"] / 1000.0)
    inproc = {k: statistics.median(v) for k, v in inproc.items()}
    over, scatter_over = [], []
    for req, lat, _ in session.samples:
        if req.key in inproc:
            d = lat * 1000.0 - inproc[req.key]
            (scatter_over if req.kind == "scatter" else over).append(d)
    dists, sims = cnt(explores, "distributions"), cnt(explores, "simulations")
    explore_s = sum(sp(r, "buffer.explore") for r in explores) / 1000.0

    def self_ms(r):
        bounds = r["probes"].get("buffer.fast_bounds", 0.0) / 1000.0
        return {
            "io": sp(r, "io.parse"),
            "analysis": sp(r, "analysis.certificate") + sp(r, "analysis.max_throughput"),
            "lp": max(0.0, sp(r, "buffer.fast_front") - bounds),
            "state": sp(r, "state.run"),
            "buffer": sp(r, "buffer.explore") + min(bounds, sp(r, "buffer.fast_front")),
            "service": sp(r, "service.decode") + sp(r, "service.cache") + sp(r, "service.encode"),
        }

    selfs = [self_ms(r) for r in traced]
    mean = lambda k: sum(s[k] for s in selfs) / max(1, len(selfs))
    n_samples = max(1, len(session.samples))
    client_extra = sum(over) / n_samples
    scatter_extra = sum(scatter_over) / n_samples
    status = session.status
    total = lambda path: sum(_dig(st, path) for st in status)
    # The router's status carries each worker's last status under its shard.
    warm_hits = sum(_dig(sh, ("worker", "cache", "warm_hits"))
                    for st in status for sh in st.get("shards", [])) \
        if fleet else total(("cache", "warm_hits"))
    m = {
        "io.parse_ms": med([sp(r, "io.parse") for r in traced]),
        "analysis.certificate_ms": med([sp(r, "analysis.certificate") for r in traced]),
        "analysis.max_throughput_ms": med([sp(r, "analysis.max_throughput")
                                           for r in traced
                                           if "analysis.max_throughput" in r["spans"]]),
        "buffer.fast_front_ms": med([sp(r, "buffer.fast_front") for r in fast]),
        "lp.solves": cnt(fast, "lp_solves"),
        "lp.pivots": cnt(fast, "lp_pivots"),
        "buffer.bounds_ms": med([r["probes"]["buffer.bounds"] / 1000.0
                                 for r in explores]),
        "buffer.explore_ms": med([sp(r, "buffer.explore") for r in explores]),
        "state.sims_per_s": sims / explore_s if explore_s > 0 else 0.0,
        "buffer.distributions": dists,
        "buffer.simulations": sims,
        "buffer.sim_ratio": sims / dists if dists else 0.0,
        "buffer.cache_hits": cnt(explores, "cache_hits"),
        "buffer.dominance_skips": cnt(explores, "dominance_skips"),
        "buffer.lp_prunes": cnt(explores, "lp_prunes"),
        "state.run_us": med([r["spans"]["state.run"] for r in caps]),
        "service.codec_us": med([r["spans"].get("service.decode", 0.0) +
                                 r["spans"].get("service.encode", 0.0)
                                 for r in traced]),
        "service.overhead_ms": med(over),
        "service.cache_warm_hits": warm_hits,
        "service.overloaded": total(("responses", "overloaded")),
        "service.error_rate": failed / attempted,
        "fleet.slices": session.slices,
        "fleet.forwarded": total(("fleet", "forwarded")) if fleet else 0,
        "fleet.redispatches": total(("fleet", "redispatches")) if fleet else 0,
        "fleet.restarts": total(("fleet", "restarts_total")) if fleet else 0,
        "fleet.scatter_overhead_ms": med(scatter_over),
        "self.io_ms": mean("io"),
        "self.analysis_ms": mean("analysis"),
        "self.lp_ms": mean("lp"),
        "self.state_ms": mean("state"),
        "self.buffer_ms": mean("buffer"),
        "self.service_ms": mean("service") + (0.0 if fleet else client_extra),
        "self.fleet_ms": (client_extra + scatter_extra) if fleet else 0.0,
        "trace.overhead_ms": trace_overhead_ms(untraced_after, traced),
        "client.samples": len(session.samples),
    }
    return m


def trace_overhead_ms(untraced, traced):
    """Median over requests of the traced pass's mean time minus the
    untraced pass's: pairing each request with itself keeps the spread
    between requests out of the difference."""
    def mean_ms(rows):
        by_req = {}
        for r in rows:
            by_req.setdefault(r["i"], []).append(r["total_us"] / 1000.0)
        return {i: statistics.mean(v) for i, v in by_req.items()}
    plain, with_trace = mean_ms(untraced), mean_ms(traced)
    return med([with_trace[i] - plain[i] for i in plain if i in with_trace])


def _dig(obj, path):
    for p in path:
        if not isinstance(obj, dict) or p not in obj:
            return 0
        obj = obj[p]
    return obj if isinstance(obj, (int, float)) else 0


def check_replay(rows, reqs, oracle):
    """The in-process answers must match the oracle just like the daemon's."""
    for r in rows:
        req = reqs[r["i"]]
        if req.kind in ("explore", "explore_nocache", "scatter"):
            if r["front"] != oracle["fronts"][front_key(req.graph, req.engine,
                                                        req.levels)]["front"]:
                raise BenchFailure("replay front mismatch on %s" % req.key)


# ------------------------------------------------------------- workloads

def run_workload(name, seed, seconds, traced, bins, run_dir):
    graphs, oracle = load_inputs()
    session = Session()
    if name == "cold_explore":
        reqs = cold_plan(graphs)
        run_passes(bins, run_dir, seed, seconds, reqs, 1, spawn_buffyd, 0, [],
                   session)
        replay_reqs, replay_warm, reps, fleet = reqs, [], 1, False
    elif name == "warm_mix":
        distinct, warmup = warm_mix_plan(graphs, oracle)
        run_timed(bins, run_dir, seed, seconds, distinct, warmup, session)
        replay_reqs, replay_warm, reps, fleet = distinct, warmup, 3, False
    elif name == "fleet_scatter":
        reqs, warmup = fleet_plan(graphs)
        run_passes(bins, run_dir, seed, seconds, reqs, FLEET_CONNS,
                   spawn_router, FLEET_WORKERS, warmup, session)
        replay_reqs, replay_warm, reps, fleet = reqs, warmup, 1, True
    else:
        raise SystemExit("perfbench: unknown workload '%s' (one of %s)"
                         % (name, ", ".join(WORKLOADS)))
    attempted, failed = check(session, oracle)
    check_status(session, fleet)
    if not traced:
        return attempted, failed, end_to_end(session, attempted), END_TO_END
    passes = replay(bins, run_dir, replay_reqs, replay_warm, reps)
    check_replay([r for rows in passes for r in rows], replay_reqs, oracle)
    return attempted, failed, per_layer(session, replay_reqs, passes,
                                        attempted, failed, fleet), PER_LAYER


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()} if metrics else {}})


def run_dir_for(tag):
    d = os.path.join(ROOT, ".bench_run", tag)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def smoke(bins):
    """One short run of every workload, traced and untraced; asserts that
    every metric BENCHMARK.json names is printed, with its unit."""
    named = {}
    path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(path):
        with open(path) as f:
            spec = json.load(f)
        named = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        if named != {**END_TO_END, **PER_LAYER}:
            raise SystemExit("perfbench smoke: BENCHMARK.json and run.py "
                             "name different metrics or units")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            raise SystemExit("perfbench smoke: BENCHMARK.json names other workloads")
    for name in WORKLOADS:
        for traced in (False, True):
            _, failed, metrics, units = run_workload(
                name, 1, 1, traced, bins, run_dir_for("smoke"))
            line = json.loads(result_line(True, 1, failed, metrics, units))
            for k, u in units.items():
                got = line["metrics"].get(k)
                if got is None or got["unit"] != u or not isinstance(
                        got["value"], (int, float)):
                    raise SystemExit("perfbench smoke: %s/%s lacks %s [%s]"
                                     % (name, traced, k, u))
            if failed:
                raise SystemExit("perfbench smoke: %s had %d failed requests"
                                 % (name, failed))
            log("smoke ok: %s trace=%d (%d metrics)" % (name, traced, len(units)))
    print(json.dumps({"smoke": "ok"}))


# ----------------------------------------------------------- input build

def rebuild_inputs(bins, corpus_seed):
    """Regenerates models, corpus, manifest and oracle answers."""
    tool = os.path.join(bins, "bench_tool")
    shutil.rmtree(INPUTS, ignore_errors=True)
    for sub in ("models", "corpus"):
        os.makedirs(os.path.join(INPUTS, sub))
    graphs = []

    def run(args):
        out = subprocess.run([tool] + args, stdout=subprocess.PIPE, check=True)
        return [json.loads(l) for l in out.stdout.splitlines() if l]

    for g in run(["models", os.path.join(INPUTS, "models")]):
        g.update(file="models/" + g["file"], group="model", engine=None)
        graphs.append(g)
    for k, (group, engine, count, (lo, hi)) in enumerate(CORPUS_GROUPS):
        for g in run(["corpus", "--seed", str(corpus_seed * 10 + k),
                      "--count", str(count), "--engine", engine,
                      "--lo", str(lo), "--hi", str(hi),
                      "--out", os.path.join(INPUTS, "corpus")]):
            g.update(file="corpus/" + g["file"], group=group)
            graphs.append(g)
    by_name = {g["name"]: g for g in graphs}

    # Oracle jobs: every (graph, engine, levels) any plan can request, the
    # unquantised incremental front for fast-tier dominance checks, max
    # throughputs, then simulations of the first and last front point.
    jobs = set()
    for g in graphs:
        jobs.add((g["name"], "inc", None))
        if g["group"] == "model":
            for e in ("inc", "exh"):
                jobs.update({(g["name"], e, None), (g["name"], e, 4)})
        else:
            jobs.add((g["name"], g["engine"], None))
    for name, engine, levels in FLEET_WARM:
        jobs.add((name, engine, levels))

    def oracle(lines):
        path = os.path.join(INPUTS, ".jobs.jsonl")
        with open(path, "w") as f:
            f.writelines(json.dumps(j) + "\n" for j in lines)
        with open(path) as f:
            out = subprocess.run([tool, "oracle"], stdin=f,
                                 stdout=subprocess.PIPE, check=True)
        os.remove(path)
        return {a["id"]: a for a in map(json.loads, out.stdout.splitlines())}

    path = lambda n: os.path.join(INPUTS, by_name[n]["file"])
    front_jobs = [{"id": front_key(n, e, l), "op": "front", "graph": path(n),
                   "target": by_name[n]["target"], "engine": e, "levels": l}
                  for n, e, l in sorted(jobs, key=str)]
    answers = oracle(front_jobs)
    fronts = {k: {"front": a["front"],
                  "points": [[p["size"], p["throughput"]] for p in a["points"]]}
              for k, a in answers.items()}
    capacities, sim_jobs = {}, []
    for g in graphs:
        pts = answers[front_key(g["name"], "inc", None)]["points"]
        capacities[g["name"]] = [pts[0]["capacities"], pts[-1]["capacities"]]
        sim_jobs.append({"id": g["name"], "op": "max_throughput",
                         "graph": path(g["name"]), "target": g["target"]})
        for caps in capacities[g["name"]]:
            sim_jobs.append({"id": caps_key(g["name"], caps), "op": "simulate",
                             "graph": path(g["name"]), "target": g["target"],
                             "capacities": caps})
    sims = oracle(sim_jobs)
    with open(os.path.join(INPUTS, "manifest.json"), "w") as f:
        json.dump({"corpus_seed": corpus_seed, "groups": CORPUS_GROUPS,
                   "graphs": graphs},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    with open(os.path.join(INPUTS, "oracle.json"), "w") as f:
        json.dump({"fronts": fronts, "capacities": capacities,
                   "max_throughput": {g["name"]: sims[g["name"]]["throughput"]
                                      for g in graphs},
                   "simulate": {j["id"]: sims[j["id"]]["throughput"]
                                for j in sim_jobs if j["op"] == "simulate"}},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    log("inputs rebuilt: %d graphs, %d fronts" % (len(graphs), len(fronts)))


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--rebuild-inputs", action="store_true")
    ap.add_argument("--corpus-seed", type=int, default=1)
    args = ap.parse_args()
    if not (args.workload or args.smoke or args.rebuild_inputs):
        ap.error("one of --workload, --smoke, --rebuild-inputs is required")

    bins = build()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.rebuild_inputs:
            rebuild_inputs(bins, args.corpus_seed)
            return 0
        if args.smoke:
            smoke(bins)
            return 0
        run_dir = run_dir_for(args.workload)
        try:
            attempted, failed, metrics, units = run_workload(
                args.workload, args.seed, args.seconds, args.trace == 1, bins,
                run_dir)
        except BenchFailure as e:
            log(str(e))
            print(result_line(False, 1, 1, None, {}))
            return 1
        print(result_line(True, attempted, failed, metrics, units))
        return 0
    finally:
        stop_all()


if __name__ == "__main__":
    sys.exit(main())
