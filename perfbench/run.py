#!/usr/bin/env python3
"""Moonwalk benchmark: end-to-end workloads plus a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--check]

The first run builds the program (target moonwalk_cli) and the in-process
harness (perfbench/harness.cc) into $CARGO_TARGET_DIR, default
.bench_build/.  Scratch files (disk caches, trace files, server logs) go
to .bench_out/.

Workloads (see README.md for why each was chosen):
  regen_cold       `moonwalk sweep <app> --jobs 1`, fresh process per op
  regen_disk_warm  fresh optimizer per op, every sweep served from disk
  serve_warm       memo-hit explore requests on 2 connections
  serve_cold       never-seen explore requests, each sent on 2
                   connections at once (single-flight dedup)

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics and the tracing overhead.  --check stops at the first output
that fails verification, naming the seed and the key.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a summary that
also records nproc, --jobs, the connection count and sample counts.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
MOONWALK = os.path.join(BUILD, "moonwalk", "tools", "moonwalk")
HARNESS = os.path.join(BUILD, "harness", "perfbench_harness")

APPS = ["Bitcoin", "Litecoin", "Video Transcode", "Deep Learning"]
NODES = ["250nm", "180nm", "130nm", "90nm", "65nm", "40nm", "28nm", "16nm"]
# Pairs with a feasible design at every serve_cold option value,
# ordered node by node so cheap and costly sweeps interleave.
COLD_PAIRS = [(a, n) for n in NODES for a in APPS
              if a != "Deep Learning" or n in ("40nm", "28nm", "16nm")]
COLD_STEPS = range(10, 40)  # voltage_steps and rca_count_steps values

JOBS = 1  # program's --jobs: one pool worker plus the joining caller
CONNECTIONS = {"regen_cold": 1, "regen_disk_warm": 1,
               "serve_warm": 2, "serve_cold": 2}
SETUP_REPS = 3
OP_TIMEOUT_S = 60

_children = []


class VerifyError(Exception):
    """An output failed verification under --check."""


class Failures:
    def __init__(self, seed, check):
        self.seed, self.check, self.count, self.first = seed, check, 0, ""

    def add(self, key, why):
        msg = f"seed {self.seed} key {key}: {why}"
        if self.check:
            raise VerifyError(msg)
        self.count += 1
        self.first = self.first or msg

    def merge(self, count, first):
        """Take failures counted elsewhere (the harness)."""
        if count and self.check:
            raise VerifyError(first)
        self.count += count
        self.first = self.first or first


# ---------------------------------------------------------------------
# Processes, builds, statistics.

def env():
    e = dict(os.environ)
    e.pop("MOONWALK_CACHE_DIR", None)
    e.pop("MOONWALK_JOBS", None)
    return e


def spawn(cmd, **kw):
    p = subprocess.Popen(cmd, env=env(), **kw)
    _children.append(p)
    return p


def reap(p, timeout=OP_TIMEOUT_S):
    """Wait for @p p; returns (status, rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            _children.remove(p)
            return p.returncode, ru
        if time.monotonic() > deadline:
            raise RuntimeError(f"{p.args[:3]} did not exit")
        time.sleep(0.001)


def stop_children():
    for p in list(_children):
        if p.poll() is None:
            p.terminate()
            try:
                p.wait(10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        _children.remove(p)


def run_build(cmd, log):
    with open(log, "ab") as f:
        if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
            with open(log, "rb") as g:
                sys.stderr.write(g.read()[-4000:].decode(errors="replace"))
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise SystemExit("perfbench: run from the root of a Moonwalk "
                         "source checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    src, harness = os.path.join(BUILD, "moonwalk"), os.path.join(BUILD, "harness")
    par = str(nproc())
    if not os.path.exists(os.path.join(src, "CMakeCache.txt")):
        run_build(["cmake", "-S", ROOT, "-B", src, "-G", "Unix Makefiles",
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
    run_build(["cmake", "--build", src, "--target", "moonwalk_cli",
               "-j", par], log)
    # Configured on every build (it is cheap) with the libraries the CLI
    # links now, so the harness never misses a new library or links a
    # stale archive of a removed one.
    run_build(["cmake", "-S", BENCH, "-B", harness,
               "-DMOONWALK_ROOT=" + ROOT, "-DMOONWALK_BUILD=" + src,
               "-DMOONWALK_LIBS=" + ";".join(cli_libs(src))], log)
    run_build(["cmake", "--build", harness, "-j", par], log)


def cli_libs(src):
    """The static libraries on moonwalk_cli's link line, in its order."""
    tools = os.path.join(src, "tools")
    with open(os.path.join(tools, "CMakeFiles", "moonwalk_cli.dir",
                           "link.txt")) as f:
        libs = [os.path.normpath(os.path.join(tools, arg))
                for arg in f.read().split() if arg.endswith(".a")]
    if not libs:
        raise SystemExit("perfbench: moonwalk_cli links no static library")
    return libs


def nproc():
    return len(os.sched_getaffinity(0))


def p50(v):
    return statistics.median(v)


def p90(v):
    return statistics.quantiles(v, n=10, method="inclusive")[8]


def fresh_dir(name):
    path = os.path.join(OUT, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM")


# ---------------------------------------------------------------------
# Workloads.  Each returns a dict of raw measurements.

def rotation(seed):
    apps = list(APPS)
    random.Random(seed).shuffle(apps)
    return apps


def regen_cold(seed, seconds, fails, traced, setup_reps):
    with open(os.path.join(BENCH, "reference.json")) as f:
        reference = json.load(f)["sweep_stdout_sha256"]
    order = rotation(seed)
    trace_file = os.path.join(OUT, "regen_cold.trace.json")

    def op(app, fails):
        cmd = [MOONWALK, "sweep", app, "--jobs", str(JOBS)]
        if traced:
            cmd += ["--trace", trace_file]
        t0 = time.perf_counter_ns()
        p = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out = p.stdout.read()
        p.stdout.close()
        status, ru = reap(p)
        t1 = time.perf_counter_ns()
        if status != 0:
            fails.add(app, f"exit status {status}")
        elif hashlib.sha256(out).hexdigest() != reference[app]:
            fails.add(app, "stdout differs from the reference digest")
        return (t1 - t0) / 1e9, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024

    # A fixed app, so set-up time does not depend on the seed.  A wrong
    # set-up output ends the run.
    setups = [op(APPS[0], Failures(seed, True))[0] for _ in range(setup_reps)]
    lat, cpu, rss = [], 0.0, 0.0
    start = time.perf_counter()
    # Whole rotations only, so every app is weighted equally.
    while time.perf_counter() - start < seconds or len(lat) % len(order):
        dt, c, r = op(order[len(lat) % len(order)], fails)
        lat.append(dt)
        cpu += c
        rss = max(rss, r)
    return dict(setup_s=p50(setups), lat=lat, wall=time.perf_counter() - start,
                cpu=cpu, rss=rss)


def regen_disk_warm(seed, seconds, fails, traced, setup_reps):
    digests = os.path.join(OUT, "disk_warm.digests")
    setups = []
    for _ in range(setup_reps):
        cache = fresh_dir("disk_warm_cache")
        t0 = time.perf_counter_ns()
        p = spawn([HARNESS, "fill", cache, digests], stdout=subprocess.DEVNULL)
        if reap(p)[0] != 0:
            raise RuntimeError("disk-cache fill failed")
        setups.append((time.perf_counter_ns() - t0) / 1e9)
    cmd = [HARNESS, "disk-warm", cache, digests, str(seed), str(seconds)]
    if traced:
        cmd.append(os.path.join(OUT, "disk_warm.trace.json"))
    p = spawn(cmd, stdout=subprocess.PIPE)
    out = p.stdout.read()
    p.stdout.close()
    status, ru = reap(p, timeout=seconds + OP_TIMEOUT_S)
    if status != 0:
        raise RuntimeError(f"disk-warm harness exited {status}")
    res = json.loads(out)
    fails.merge(int(res["failed"]), res["first_failure"])
    lat = [n / 1e9 for n in res["lat_ns"]]
    # Verification is the generator's work: the measured phase is the
    # ops' own time, as with the harness's cpu_s.
    return dict(setup_s=p50(setups), lat=lat, wall=sum(lat), cpu=res["cpu_s"],
                rss=ru.ru_maxrss / 1024)


class Client:
    """One connection of the load generator (closed loop)."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=OP_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.sent_ns = 0

    def send(self, line):
        self.sent_ns = time.perf_counter_ns()
        self.sock.sendall(line)

    def poll(self):
        """Read what is there; the response line once complete."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise RuntimeError("server closed the connection")
        scan = len(self.buf)
        self.buf += chunk
        nl = self.buf.find(b"\n", scan)
        if nl < 0:
            return None
        line = bytes(self.buf[:nl])
        del self.buf[:nl + 1]
        return line

    def call(self, line):
        self.send(line)
        while True:
            resp = self.poll()
            if resp is not None:
                return resp

    def close(self):
        self.sock.close()


def request(obj):
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def explore_line(app, node, options=None):
    obj = {"cmd": "explore", "app": app, "node": node}
    if options:
        obj["options"] = options
    return request(obj)


class Server:
    """A `moonwalk serve --jobs 1` child process."""

    def __init__(self, name, cache_dir=None, trace_file=None,
                 access_log=None):
        self.log = os.path.join(OUT, name + ".out")
        cmd = [MOONWALK, "serve", "--port", "0", "--jobs", str(JOBS)]
        if cache_dir:
            cmd += ["--cache-dir", cache_dir]
        if trace_file:
            cmd += ["--trace", trace_file]
        t0 = time.perf_counter()
        with open(self.log, "wb") as out, \
                open(access_log or os.devnull, "wb") as err:
            self.proc = spawn(cmd, stdout=out, stderr=err)
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() - t0 > 30:
                raise RuntimeError("moonwalk serve did not start")
            with open(self.log) as f:
                for line in f:
                    if "listening on" in line:
                        self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.002)
        self.clients = [Client(self.port) for _ in range(2)]
        if json.loads(self.clients[0].call(request({"cmd": "ping"}))).get("ok") is not True:
            raise RuntimeError("ping failed")
        self.boot_s = time.perf_counter() - t0

    def stats(self):
        return json.loads(self.clients[0].call(request({"cmd": "stats"})))["result"]

    def reset_peak_rss(self):
        with open(f"/proc/{self.proc.pid}/clear_refs", "w") as f:
            f.write("5")

    def close(self):
        for c in self.clients:
            c.close()
        self.proc.send_signal(signal.SIGTERM)
        if reap(self.proc)[0] != 0:
            raise RuntimeError("moonwalk serve did not drain cleanly")


def closed_loop(server, seconds, next_line, on_response):
    """Each connection sends its next request when the last returns."""
    sel = selectors.DefaultSelector()
    pending = {}
    for i, c in enumerate(server.clients):
        pending[c] = next_line(i)
        c.send(pending[c][1])
        sel.register(c.sock, selectors.EVENT_READ, (i, c))
    lat, end = [], time.perf_counter() + seconds
    while pending:
        for key, _ in sel.select(OP_TIMEOUT_S):
            i, c = key.data
            resp = c.poll()
            if resp is None:
                continue
            lat.append((time.perf_counter_ns() - c.sent_ns) / 1e9)
            on_response(pending.pop(c)[0], resp)
            if time.perf_counter() < end:
                pending[c] = next_line(i)
                c.send(pending[c][1])
            else:
                sel.unregister(c.sock)
    sel.close()
    return lat


def measure_server(server, body):
    """Run @p body (which returns latencies) and take the server's CPU
    and peak RSS over exactly that phase."""
    server.reset_peak_rss()
    cpu0, t0 = proc_cpu_s(server.proc.pid), time.perf_counter()
    lat = body()
    wall = time.perf_counter() - t0
    return dict(lat=lat, wall=wall, cpu=proc_cpu_s(server.proc.pid) - cpu0,
                rss=proc_hwm_mb(server.proc.pid))


def serve_warm(seed, seconds, fails, traced, setup_reps):
    trace = os.path.join(OUT, "serve_warm.trace.json") if traced else None
    setups, server = [], None
    for _ in range(setup_reps):
        if server:
            server.close()
        t0 = time.perf_counter_ns()
        server = Server("serve_warm", trace_file=trace)
        feasible = []
        for app in APPS:
            resp = json.loads(server.clients[0].call(
                request({"cmd": "sweep", "app": app})))
            if resp.get("ok") is not True:
                raise RuntimeError(f"warm fill of {app} failed")
            feasible += [(app, n["node"]) for n in resp["result"]["nodes"]]
        expected = {p: server.clients[0].call(explore_line(*p)) for p in feasible}
        setups.append((time.perf_counter_ns() - t0) / 1e9)
    before = server.stats()["metrics"]
    rngs = [random.Random(seed * 2 + i) for i in range(2)]

    def next_line(i):
        pair = rngs[i].choice(feasible)
        return pair, explore_line(*pair)

    def check(pair, resp):
        if resp != expected[pair]:
            fails.add(f"{pair[0]}@{pair[1]}", "response differs from set-up")

    res = measure_server(server, lambda: closed_loop(
        server, seconds, next_line, check))
    after = server.stats()["metrics"]
    for kind, name in (("gauges", "dse.sweep_cache.misses"),
                       ("counters", "dse.evaluations")):
        if after[kind][name] != before[kind][name]:
            fails.add(name, "moved during the memo-hit phase")
    server.close()
    res["setup_s"] = p50(setups)
    return res


def cold_requests(seed):
    """Endless never-repeated explore requests.  Pairs cycle through
    COLD_PAIRS from a seeded start.  The option values form a Latin
    square over COLD_STEPS in seeded orders: every block of
    len(COLD_STEPS) steps uses each voltage_steps value and each
    rca_count_steps value once, so the work per block hardly depends on
    the seed, and no option pair repeats for len(COLD_STEPS)**2 steps.
    After that, max_drams_per_die steps down to keep the keys new."""
    rng = random.Random(seed)
    start = rng.randrange(len(COLD_PAIRS))
    vs, rs = list(COLD_STEPS), list(COLD_STEPS)
    rng.shuffle(vs)
    rng.shuffle(rs)
    n = len(COLD_STEPS)
    for k in itertools.count():
        v, r = vs[k % n], rs[(k % n + k // n) % n]
        options = {"voltage_steps": v, "rca_count_steps": r}
        if k >= n * n:
            options["max_drams_per_die"] = 12 - k // (n * n)
        app, node = COLD_PAIRS[(start + k) % len(COLD_PAIRS)]
        yield f"{app}@{node}/{v}/{r}", explore_line(app, node, options)


def dedup_steps(server, requests, seconds, fails):
    """Send each request on both connections at once; both responses
    must be ok and byte-identical.  Runs for @p seconds, or until
    @p requests runs out."""
    lat, end = [], time.perf_counter() + seconds
    for key, line in requests:
        if time.perf_counter() >= end:
            break
        for c in server.clients:
            c.send(line)
        resps = []
        for c in server.clients:
            while (resp := c.poll()) is None:
                pass
            lat.append((time.perf_counter_ns() - c.sent_ns) / 1e9)
            resps.append(resp)
        body = json.loads(resps[0])
        if body.get("ok") is not True or not body["result"].get("tco_optimal"):
            fails.add(key, "no feasible design returned")
        elif resps[0] != resps[1]:
            fails.add(key, "duplicate responses differ")
    return lat


def serve_cold(seed, seconds, fails, traced, setup_reps):
    trace = os.path.join(OUT, "serve_cold.trace.json") if traced else None
    setups, server = [], None
    for _ in range(setup_reps):
        if server:
            server.close()
        server = Server("serve_cold", cache_dir=fresh_dir("serve_cold_cache"),
                        trace_file=trace)
        setups.append(server.boot_s)
    res = measure_server(server, lambda: dedup_steps(
        server, cold_requests(seed), seconds, fails))
    server.close()
    res["setup_s"] = p50(setups)
    return res


WORKLOADS = {"regen_cold": regen_cold, "regen_disk_warm": regen_disk_warm,
             "serve_warm": serve_warm, "serve_cold": serve_cold}


def end_to_end(raw, fails):
    lat = raw["lat"]
    ops = len(lat)
    return {
        "setup_s": raw["setup_s"],
        "latency_ms_p50": p50(lat) * 1e3,
        "latency_ms_p90": p90(lat) * 1e3,
        "ops_per_s": ops / raw["wall"],
        "cpu_ms_per_op": raw["cpu"] * 1e3 / ops,
        "peak_rss_mb": raw["rss"],
        "fail_ratio": fails.count / ops,
    }


# ---------------------------------------------------------------------
# The traced per-layer run.

def serve_layers(seed):
    """A short daemon session: cold dedup steps, then sequential memo
    hits of the same requests, then pings.  Per-phase p50s come from
    `stats` snapshots taken where each phase kind dominates."""
    access_log = os.path.join(OUT, "layers.access.log")
    server = Server("layers", cache_dir=fresh_dir("layers_serve_cache"),
                    access_log=access_log)
    gen = cold_requests(seed)
    lines = [next(gen) for _ in range(6)]
    dedup_steps(server, iter(lines), OP_TIMEOUT_S, Failures(seed, True))
    cold = server.stats()
    for _ in range(40):
        for _, line in lines:
            server.clients[0].call(line)
    warm = server.stats()["metrics"]["histograms"]
    ping = []
    for _ in range(200):
        t0 = time.perf_counter_ns()
        server.clients[0].call(request({"cmd": "ping"}))
        ping.append((time.perf_counter_ns() - t0) / 1e3)
    server.close()
    with open(access_log) as f:
        computed = sum(" cmd=explore " in line and " source=computed " in line
                       for line in f)

    m = cold["metrics"]
    out = {"serve.ping_us_p50": p50(ping)}
    for phase in ("parse", "validate", "admission", "serialize", "write"):
        out[f"serve.phase.{phase}_us_p50"] = \
            warm[f"serve.phase.{phase}.ns"]["p50"] / 1e3
    for phase in ("flight_wait", "compute"):
        out[f"serve.phase.{phase}_us_p50"] = \
            m["histograms"][f"serve.phase.{phase}.ns"]["p50"] / 1e3
    # Duplicates answered by a flight, out of duplicates sent.
    out["serve.singleflight_hit_ratio"] = \
        cold["singleflight"]["hits"] / len(lines)
    out["serve.rejected"] = m["counters"]["serve.requests.rejected"]
    # Explores computed minus results the disk cache holds.  The
    # dse.sweep_cache.* and sweep.diskcache.{hits,inserts} gauges hold
    # only the options profile published last, so the computed count
    # comes from the access log and the inserts from the directory scan
    # behind sweep.diskcache.entries.
    out["exec.sweep_cache_wasted"] = \
        computed - m["gauges"]["sweep.diskcache.entries"]
    return out


def harness_layers(seed):
    p = spawn([HARNESS, "layers", str(seed), fresh_dir("layers")],
              stdout=subprocess.PIPE)
    out = p.stdout.read()
    p.stdout.close()
    if reap(p)[0] != 0:
        raise RuntimeError("layer pass failed")
    return json.loads(out)


def declared(kind):
    """{name: unit} of the end_to_end or per_layer metrics in
    BENCHMARK.json, the list a run must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def with_units(values, units):
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


# ---------------------------------------------------------------------

def on_alarm(*_):
    raise TimeoutError("run exceeded 170 s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="stop at the first verification failure")
    args = ap.parse_args()

    budget = CONNECTIONS[args.workload] + JOBS + 1
    info = {"workload": args.workload, "seed": args.seed, "nproc": nproc(),
            "jobs": JOBS, "connections": CONNECTIONS[args.workload],
            "thread_budget": budget}
    if budget > nproc():
        sys.stderr.write(f"perfbench: {args.workload} needs {budget} busy "
                         f"threads (connections + jobs + generator) but "
                         f"nproc is {nproc()}; refusing to run\n")
        return 3

    build()
    os.makedirs(OUT, exist_ok=True)
    # A run must end within 180 s once the program is built.
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(170)

    run = WORKLOADS[args.workload]
    fails = Failures(args.seed, args.check)
    try:
        if not args.trace:
            raw = run(args.seed, args.seconds, fails, False, SETUP_REPS)
            e2e = end_to_end(raw, fails)
            units = declared("end_to_end")
            metrics = with_units(e2e, units)
            # The summary carries the two metrics BENCHMARK.json does
            # not gate: fail_ratio is 0 on a correct build, and the serve
            # daemon's peak RSS varies run to run (see README.md).
            info.update(samples=len(raw["lat"]), metrics=with_units(
                e2e, dict(units, peak_rss_mb="MB", fail_ratio="1")))
        else:
            half = args.seconds / 2
            plain = run(args.seed, half, fails, False, 1)
            raw = run(args.seed, half, fails, True, 1)
            ratio = p50(raw["lat"]) / p50(plain["lat"])
            metrics = harness_layers(args.seed)
            metrics.update(serve_layers(args.seed))
            metrics["bench.trace_overhead_ratio"] = ratio
            metrics = with_units(metrics, declared("per_layer"))
            info.update(samples=len(plain["lat"]) + len(raw["lat"]))
    except VerifyError as e:
        sys.stderr.write(f"perfbench: verification failed: {e}\n")
        return 1
    finally:
        signal.alarm(0)
        stop_children()
    attempted = info.get("samples", 0)
    info.update(fail_ratio=fails.count / max(attempted, 1),
                first_failure=fails.first)
    print(json.dumps(info))
    print(json.dumps({"correct": fails.count == 0 and attempted > 0,
                      "attempted": attempted, "failed": fails.count,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
