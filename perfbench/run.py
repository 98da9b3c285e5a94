#!/usr/bin/env python3
"""The rtlb benchmark: end-to-end CLI and serve latency, per-layer timings.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense-cli --seed 1 --trace 0
    python3 perfbench/run.py sweep --seeds 1-10 --out runs.jsonl [--workloads a,b]
    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

A run builds the CLI, the probe (perfbench/probe) and the host-speed
calibration (perfbench/calib) with dune, writes its seeded inputs under
.perfbench/, measures for --seconds, checks every output, and prints a
metrics table followed by one JSON result line.
--trace 1 runs the traced in-process pass instead and reports the
per-layer metrics.  See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".perfbench")
CLI = os.path.join("_build", "default", "bin", "rtlb_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe", "probe.exe")
CALIB = os.path.join("_build", "default", "perfbench", "calib", "calib.exe")
WORKLOADS = ("dense-cli", "sparse-cli", "serve-mixed")
DEFAULT_SEED = 1
SETUP_REPS = 3
# Children never see the knobs that select engines, jobs, faults or clocks.
PINNED_ENV = ("RTLB_JOBS", "RTLB_SOA_NO_PRUNE", "RTLB_CHAOS", "RTLB_FAKE_CLOCK")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def child_env():
    env = dict(os.environ)
    for k in PINNED_ENV:
        env.pop(k, None)
    return env


LIVE = []  # daemons still running; stopped on every exit path


def stop(proc, grace=10.0):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in LIVE:
        LIVE.remove(proc)


# ---------------------------------------------------------------- build

def build():
    for need in ("dune-project", os.path.join("bin", "rtlb_cli.ml"), "lib"):
        if not os.path.exists(need):
            raise BenchError(f"not an rtlb source checkout: {need} is missing")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "--cache=disabled",
            "./bin/rtlb_cli.exe", "./perfbench/probe/probe.exe",
            "./perfbench/calib/calib.exe"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr[-4000:])


def env_info():
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlc", "-version"], capture_output=True,
                               text=True, timeout=30).stdout.strip()
    except OSError:
        ocaml = "unknown"
    commit = "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           timeout=30)
        if p.returncode == 0:
            commit = p.stdout.strip()
    except OSError:
        pass
    if commit == "unknown":
        # Not a git checkout: identify the program by its sources.
        h = hashlib.sha256()
        for top in ("bin", "lib"):
            for d, _, files in sorted(os.walk(top)):
                for f in sorted(files):
                    path = os.path.join(d, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
        commit = "tree:" + h.hexdigest()[:16]
    return {"nproc": os.cpu_count(), "ocaml": ocaml, "commit": commit}


# ------------------------------------------------------------ processes

def run_cli(args, out_path, timeout=120):
    """Run the CLI once with stdout to [out_path]; returns
    (wall_ms, rc, stdout_bytes, maxrss_kb) with the child's own rusage."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen([CLI] + args, stdout=out, stderr=subprocess.DEVNULL,
                             env=child_env())
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = (time.perf_counter() - t0) * 1000.0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        data = fh.read()
    return wall, p.returncode, data, ru.ru_maxrss


def probe(args, timeout=170):
    t0 = time.perf_counter()
    p = subprocess.run([PROBE] + args, capture_output=True, text=True, timeout=timeout,
                       env=child_env())
    if p.returncode != 0:
        raise BenchError(f"probe {args[0]} failed: {p.stderr[-2000:]}")
    log(f"probe {args[0]}: {time.perf_counter() - t0:.1f} s")
    return p.stdout


def start_daemon(sock_path):
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    proc = subprocess.Popen(
        [CLI, "serve", "--socket", sock_path, "--workers", "1", "--jobs", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=child_env())
    LIVE.append(proc)
    return proc


class Conn:
    """One JSON-lines connection; one request in flight at a time."""

    def __init__(self, path, retry_for=10.0):
        deadline = time.monotonic() + retry_for
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                break
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    raise BenchError("daemon did not come up")
                time.sleep(0.005)
        self.sock = s
        self.rfile = s.makefile("rb")

    def call(self, payload):
        self.sock.sendall(payload)
        line = self.rfile.readline()
        if not line:
            raise BenchError("connection closed by the daemon")
        return line

    def close(self):
        self.rfile.close()
        self.sock.close()


def frame(obj):
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def daemon_up(sock_path):
    """Spawn a daemon and wait for its first successful ping."""
    proc = start_daemon(sock_path)
    conn = Conn(sock_path)
    while True:
        reply = json.loads(conn.call(frame({"id": 0, "op": "ping"})))
        if reply.get("ok"):
            return proc, conn
        time.sleep(0.005)


# ---------------------------------------------------------- host speed

# The shared host's speed drifts by a third within minutes, and every
# process slows alike (the CPU time of a fixed `rtlb analyze` tracks its
# wall time within 1%).  So the benchmark runs a fixed stdlib-only OCaml
# program (perfbench/calib) between ops, and every time it reports is a
# wall time scaled by CALIB_MS / (mean calibration time around that
# moment): milliseconds on a host where the calibration takes CALIB_MS.
# The host also flips between a fast and a slow state within a second
# (a warm calibration reads ~26 or ~35 ms); the mean follows the share
# of slow time, where the median would jump between the two.  The
# calibration links no rtlb code, so only the host moves it; the raw
# wall times are printed next to the scaled ones.
CALIB_MS = 30.0
CALIB_OUT = b"24125300408 10958\n"
CALIB_WINDOW_S = 3.0
CALIB_MIN = 4
CALIB_EVERY_S = 0.3  # serve-mixed: between requests


class HostSpeed:
    """Calibration samples of one run.  Cold samples run the calibration
    as a fresh process, as a CLI op runs; warm ones time one round of it
    in a long-lived process, as the daemon serves a request."""

    def __init__(self, warm=False):
        self.samples = []  # (start, ms)
        self.proc = None
        if warm:
            self.proc = subprocess.Popen([CALIB, "loop"], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, env=child_env())
            LIVE.append(self.proc)

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            if self.proc:
                self.proc.stdin.write(b"\n")
                self.proc.stdin.flush()
                out = self.proc.stdout.readline()
            else:
                p = subprocess.run([CALIB], capture_output=True, env=child_env(), timeout=60)
                out = p.stdout if p.returncode == 0 else b""
            ms = (time.perf_counter() - t0) * 1000.0
            if out != CALIB_OUT:
                raise BenchError(f"calibration program failed: {out!r}")
            self.samples.append((t0, ms))

    def close(self):
        if self.proc:
            self.proc.stdin.close()
            stop(self.proc)
            self.proc.stdout.close()

    def factor(self, t_a, t_b=None):
        """Scale for a wall time measured between t_a and t_b: from the
        mean of the calibrations within CALIB_WINDOW_S of that span, or
        of the nearest CALIB_MIN of them if fewer."""
        t_b = t_a if t_b is None else t_b
        near = [ms for t, ms in self.samples
                if t_a - CALIB_WINDOW_S <= t <= t_b + CALIB_WINDOW_S]
        if len(near) < CALIB_MIN:
            mid = (t_a + t_b) / 2
            near = [ms for _, ms in
                    sorted(self.samples, key=lambda s: abs(s[0] - mid))[:CALIB_MIN]]
        return CALIB_MS / statistics.fmean(near)

    def note(self):
        ms = [m for _, m in self.samples]
        return f"{len(ms)} calibrations, median {median(ms):.2f} ms " \
            f"(range {min(ms):.2f}-{max(ms):.2f})" if ms else "no calibrations"


# --------------------------------------------------------------- stats

# The percentile each `_tail_ms` metric reports, per workload and op
# ("request" = all ops).  It is fixed, so that a faster and a slower
# commit report the same statistic.  Each is the highest percentile that
# leaves ten samples beyond it at the op's sample floor (min_samples), and
# every run reaches that floor.  Where an op's latencies form clusters
# (dedicated vs shared inputs, warm vs cold serve builds), the
# percentile lies inside the slowest cluster, not on its edge.
TAIL_PCT = {
    "dense-cli": {"analyze": 75, "check": 75, "whatif": 75, "request": 90},
    "sparse-cli": {"analyze": 75, "check": 75, "whatif": 75, "request": 90},
    "serve-mixed": {"analyze": 85, "check": 80, "whatif": 95, "request": 97.5},
}


def min_samples(pct):
    """Samples needed for ten of them to lie beyond [pct]."""
    return math.ceil(10 / (1 - pct / 100) - 1e-9)


def floors_met(workload, counts):
    """[counts]: samples per op so far."""
    counts = dict(counts, request=sum(counts.values()))
    pcts = TAIL_PCT[workload]
    return all(counts[op] >= min_samples(pcts[op]) for op in pcts)


def tail(values, pct):
    """Nearest-rank [pct] percentile; also returns the sample count and
    how many samples lie beyond it."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 0, 0
    k = max(0, math.ceil(pct / 100 * n) - 1)
    return v[k], n, n - k - 1


def median(values):
    return statistics.median(values) if values else 0.0


def tail_metric(name, values, pct, out, notes):
    t, n, beyond = tail(values, pct)
    out[f"{name}_tail_ms"] = t
    notes[f"{name}_tail_ms"] = f"p{pct:g} of {n} samples, {beyond} beyond"


def raw_notes(raw, notes):
    """Append the unscaled p50 of each op to its note."""
    for op, v in raw.items():
        notes[f"{op}_p50_ms"] += f"; raw {median([w for _, w in v]):.4f}"


def latency_metrics(workload, lat, every, out, notes):
    for op in ("analyze", "check", "whatif"):
        out[f"{op}_p50_ms"] = median(lat[op])
        notes[f"{op}_p50_ms"] = f"{len(lat[op])} samples"
        tail_metric(op, lat[op], TAIL_PCT[workload][op], out, notes)
    tail_metric("request", every, TAIL_PCT[workload]["request"], out, notes)


UNITS = {}


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"] + spec["per_layer"]:
        UNITS[m["name"]] = m["unit"]
    return spec


# ------------------------------------------------------------ checking

def check_output_ok(rc, data):
    """`rtlb check` passes: exit 0 and no E1xx diagnostic
    (lines read FILE:LINE: CODE subject: message)."""
    return rc == 0 and not re.search(rb"(^|: )E1\d\d ", data, re.M)


def verify(work, items):
    """Certify analyze / what-if outputs with the probe.  Returns
    (failures, digest) where digest maps input file -> bounds + cost."""
    path = os.path.join(work, "checks.json")
    with open(path, "w") as fh:
        json.dump(items, fh)
    res = json.loads(probe(["verify", path]).strip().splitlines()[-1])
    return res["failures"], res["digest"]


def check_digest(workload, seed, digest):
    """For the default seed, bounds and costs must match the committed
    digest; returns a list of mismatches.  On a mismatch the computed
    digest is logged, so that a change to the input generator can carry
    the new one into digests.json as a reviewed edit."""
    if seed != DEFAULT_SEED:
        return []
    with open(os.path.join(HERE, "digests.json")) as fh:
        committed = json.load(fh).get(workload)
    if committed is None:
        mismatches = [f"no committed digest for {workload}"]
    else:
        mismatches = [f"{f}: bounds/cost differ from the committed digest"
                      for f in sorted(set(committed) | set(digest))
                      if committed.get(f) != digest.get(f)]
    if mismatches:
        log(f"computed digest for {workload}: " + json.dumps(digest, sort_keys=True))
    return mismatches


def whatif_args(edit):
    args = ["--task", str(edit["task"])]
    for k in ("deadline", "release", "compute"):
        if k in edit:
            args += [f"--{k}", str(edit[k])]
    return args


# ---------------------------------------------------------- CLI workloads

def cli_ops(work, inp, e):
    f = os.path.join(work, inp["file"])
    return [("check", ["check", f]),
            ("analyze", ["analyze", "--json", f]),
            ("whatif", ["whatif", "--json"] + whatif_args(inp["edits"][e]) + [f])]


def run_cli_workload(work, manifest, seconds, workload, seed):
    inputs = manifest["inputs"]
    host = HostSpeed()
    failures = []
    setup_runs = [[] for _ in range(SETUP_REPS)]  # (start, wall_ms) per pass
    # Set-up: warm-up passes of `analyze` over every input; the first
    # pass's outputs are the certified references.
    for rep in range(SETUP_REPS):
        for i, inp in enumerate(inputs):
            out = os.path.join(work, f"ref-{i}.out" if rep == 0 else "scratch.out")
            host.sample()
            t0 = time.perf_counter()
            wall, rc, _, _ = run_cli(["analyze", "--json", os.path.join(work, inp["file"])],
                                     out)
            setup_runs[rep].append((t0, wall))
            if rc != 0:
                failures.append(f"{inp['file']}: analyze exited {rc}")

    raw = {"check": [], "analyze": [], "whatif": []}  # (start, wall_ms)
    attempted = failed = 0
    tasks = 0
    rss = 0
    outputs = {}  # (input, op, edit, sha) -> [path, count]
    # The timed phase runs for [seconds], then on until every op has
    # reached its sample floor (at most [seconds] more).
    t_start = time.perf_counter()
    deadline = t_start + seconds
    cap = deadline + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if now >= cap or (now >= deadline and floors_met(
                workload, {op: len(v) for op, v in raw.items()})):
            break
        idx = i % len(inputs)
        inp = inputs[idx]
        e = (i // len(inputs)) % len(inp["edits"])
        host.sample()
        for op, args in cli_ops(work, inp, e):
            t0 = time.perf_counter()
            wall, rc, data, maxrss = run_cli(args, os.path.join(work, "scratch.out"))
            attempted += 1
            raw[op].append((t0, wall))
            rss = max(rss, maxrss)
            if rc != 0 or (op == "check" and not check_output_ok(rc, data)):
                failed += 1
            elif op != "check":
                # Distinct outputs are kept and certified after the timed phase.
                key = (idx, op, e, hashlib.sha1(data).hexdigest())
                if key not in outputs:
                    path = os.path.join(work, f"out-{len(outputs)}.json")
                    with open(path, "wb") as fh:
                        fh.write(data)
                    outputs[key] = [path, 0]
                outputs[key][1] += 1
            if op == "analyze":
                tasks += inp["tasks"]
        i += 1
    host.sample(CALIB_MIN)
    lat = {op: [w * host.factor(t) for t, w in v] for op, v in raw.items()}
    busy_s = sum(map(sum, lat.values())) / 1000.0

    items = [{"app": os.path.join(work, inp["file"]), "analyze": os.path.join(work, f"ref-{i}.out"),
              "whatifs": []} for i, inp in enumerate(inputs)]
    for (idx, op, e, _), (path, _) in outputs.items():
        if op == "analyze":
            items.append({"app": items[idx]["app"], "analyze": path, "whatifs": []})
        else:
            items[idx]["whatifs"].append([inputs[idx]["edits"][e:e + 1], path])
    fails, digest = verify(work, items)
    bad = {path for path, _ in fails}
    failed += sum(count for path, count in outputs.values() if path in bad)
    failures += [msg for _, msg in fails] + check_digest(workload, seed, digest)

    metrics, notes = {}, {}
    passes = [sum(w * host.factor(t) for t, w in runs) / 1000.0 for runs in setup_runs]
    metrics["setup_s"] = median(passes)
    notes["setup_s"] = f"median of {len(passes)} warm-up analyze passes over " \
        f"{len(inputs)} inputs; raw {median([sum(w for _, w in r) / 1000 for r in setup_runs]):.4f}"
    latency_metrics(workload, lat, lat["check"] + lat["analyze"] + lat["whatif"],
                    metrics, notes)
    raw_notes(raw, notes)
    notes["request_tail_ms"] += " (all CLI invocations)"
    analyze_s = sum(lat["analyze"]) / 1000.0
    metrics["tasks_per_s"] = tasks / analyze_s if analyze_s else 0.0
    notes["tasks_per_s"] = f"{inputs[0]['tasks']} tasks per input"
    metrics["ops_per_s"] = (attempted - failed) / busy_s
    notes["ops_per_s"] = f"completed CLI invocations per second of their scaled " \
        f"wall time ({busy_s:.1f} s)"
    notes["host"] = host.note()
    metrics["peak_rss_mb"] = rss / 1024.0
    notes["peak_rss_mb"] = "max ru_maxrss of the CLI children"
    return metrics, notes, attempted, failed, failures


# ------------------------------------------------------------ serve workload

# Cold analyzes are a tenth of the requests, not a twentieth: the tails
# lie in the cold-sparse cluster, and twice its samples cut the
# run-to-run spread of analyze_tail_ms and request_tail_ms from ~15% to
# ~5%.  Warm analyzes stay more than half of all analyzes, so that
# analyze_p50_ms lies inside the warm cluster, not between clusters.
BLOCK = ["whatif"] * 13 + ["warm"] * 3 + ["check"] * 2 + ["cold"] * 2


def request_plan(manifest, seed, length):
    """The connection's request sequence: blocks of 20 requests with a
    fixed mix (13 what-if on the hot instances, 3 warm analyze, 2 check
    of the dense instances, 2 analyze of a colder instance), shuffled
    within each block.  Instances rotate, so every run sees the same
    proportions."""
    rng = random.Random(seed * 7919)
    inputs = manifest["inputs"]
    hot = [i for i, x in enumerate(inputs) if x["role"] == "hot"]
    cold = [i for i, x in enumerate(inputs) if x["role"] == "cold"]
    dense = [i for i, x in enumerate(inputs) if x["model"] != "frames"]
    rot = {"whatif": 0, "warm": 0, "check": 0, "cold": 0}
    plan = []
    while len(plan) < length:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            k = rot[kind]
            rot[kind] += 1
            if kind == "whatif":
                idx = hot[k % len(hot)]
                plan.append(("whatif", idx, rng.randrange(len(inputs[idx]["edits"]))))
            elif kind == "warm":
                plan.append(("analyze", hot[k % len(hot)], None))
            elif kind == "check":
                plan.append(("check", dense[k % len(dense)], None))
            else:
                plan.append(("analyze", cold[k % len(cold)], None))
    return plan


def payloads(work, manifest):
    texts = {}
    out = {}
    for i, inp in enumerate(manifest["inputs"]):
        with open(os.path.join(work, inp["file"])) as fh:
            texts[i] = fh.read()
        out[("analyze", i, None)] = frame({"id": 1, "op": "analyze", "app": texts[i]})
        out[("check", i, None)] = frame({"id": 1, "op": "check", "app": texts[i]})
        for e, edit in enumerate(inp["edits"]):
            out[("whatif", i, e)] = frame(
                {"id": 1, "op": "whatif", "app": texts[i], "edits": [edit]})
    return out


def prime(conn, manifest, frames):
    """Cold analyze of every pooled instance; hot ones last so they are warm."""
    order = sorted(range(len(manifest["inputs"])),
                   key=lambda i: manifest["inputs"][i]["role"] == "hot")
    for i in order:
        reply = json.loads(conn.call(frames[("analyze", i, None)]))
        if not reply.get("ok"):
            raise BenchError(f"priming {manifest['inputs'][i]['file']} failed: {reply}")


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_serve_workload(work, manifest, seconds, workload, seed):
    inputs = manifest["inputs"]
    frames = payloads(work, manifest)
    sock_path = os.path.join(work, "d.sock")
    setups = []
    proc = conn = None
    host = HostSpeed(warm=True)
    for rep in range(SETUP_REPS):
        host.sample(2)
        t0 = time.perf_counter()
        proc, conn = daemon_up(sock_path)
        prime(conn, manifest, frames)
        setups.append((t0, time.perf_counter()))
        conn.close()
        if rep < SETUP_REPS - 1:
            stop(proc)
    # Timed phase: one closed-loop connection, with a warm calibration
    # between requests every CALIB_EVERY_S.  As in the CLI workloads it
    # lasts [seconds], then runs on until the floors are met (at most
    # [seconds] more).
    plan = iter(request_plan(manifest, seed, 100000))
    results = []  # (key, start, wall_ms, reply line)
    counts = {"analyze": 0, "check": 0, "whatif": 0}
    errors = []
    host.sample(CALIB_MIN)
    cn = Conn(sock_path)
    t_start = time.perf_counter()
    deadline = t_start + seconds
    cap = deadline + seconds
    next_cal = t_start + CALIB_EVERY_S
    while True:
        now = time.perf_counter()
        if now >= cap or (now >= deadline and floors_met(workload, counts)):
            break
        if now >= next_cal:
            host.sample()
            next_cal = time.perf_counter() + CALIB_EVERY_S
        key = next(plan)
        counts[key[0]] += 1
        t0 = time.perf_counter()
        try:
            line = cn.call(frames[key])
        except (OSError, BenchError) as e:
            results.append((key, t0, (time.perf_counter() - t0) * 1000.0, None))
            errors.append(str(e))
            cn.close()
            cn = Conn(sock_path)
            continue
        results.append((key, t0, (time.perf_counter() - t0) * 1000.0, line))
    cn.close()
    host.sample(CALIB_MIN)
    host.close()
    hwm = vm_hwm_kb(proc.pid)
    stats = {}
    try:
        sc = Conn(sock_path)
        stats = json.loads(sc.call(frame({"id": 0, "op": "stats"}))).get("result", {})
        sc.close()
    finally:
        stop(proc)

    # Check every reply: distinct replies per request key are compared
    # with the one-shot CLI answer, and the one-shot answers certified.
    distinct = {}
    for key, _, _, line in results:
        if line is not None:
            distinct.setdefault((key, hashlib.sha1(line).hexdigest()), line)
    oneshot = {}
    oneshot_path = {}
    bad = set()
    failures = list(errors)
    checks = {}
    for key in sorted({k for k, _ in distinct}, key=str):
        op, idx, e = key
        inp = inputs[idx]
        f = os.path.join(work, inp["file"])
        out = os.path.join(work, f"oneshot-{op}-{idx}-{e}.out")
        oneshot_path[key] = out
        if op == "check":
            _, rc, data, _ = run_cli(["check", f], out)
            oneshot[key] = (check_output_ok(rc, data), len(data.splitlines()))
            continue
        if op == "analyze":
            _, rc, data, _ = run_cli(["analyze", "--json", f], out)
        else:
            _, rc, data, _ = run_cli(["whatif", "--json"] + whatif_args(inp["edits"][e]) + [f],
                                     out)
        oneshot[key] = json.loads(data) if rc == 0 else None
        item = checks.setdefault(idx, {"app": f, "whatifs": []})
        if op == "analyze":
            item["analyze"] = out
        else:
            item["whatifs"].append([[inp["edits"][e]], out])
    for idx, inp in enumerate(inputs):
        item = checks.setdefault(idx, {"app": os.path.join(work, inp["file"]), "whatifs": []})
        if "analyze" not in item:
            out = os.path.join(work, f"oneshot-analyze-{idx}-None.out")
            run_cli(["analyze", "--json", item["app"]], out)
            item["analyze"] = out
    fails, digest = verify(work, [checks[i] for i in sorted(checks)])
    failures += [msg for _, msg in fails] + check_digest(workload, seed, digest)
    uncertified = {path for path, _ in fails}
    for (key, sha), line in distinct.items():
        reply = json.loads(line)
        ref = oneshot.get(key)
        if not reply.get("ok") or oneshot_path.get(key) in uncertified:
            good = False
        elif key[0] == "check":
            res = reply["result"]
            good = ref[0] and res.get("errors") == 0 and len(res.get("diags", [])) == ref[1]
        else:
            good = ref is not None and reply["result"] == ref
        if not good:
            bad.add((key, sha))
            failures.append(f"{inputs[key[1]]['file']}: {key[0]} reply differs from one-shot")

    lat = {"analyze": [], "check": [], "whatif": []}
    every = []
    attempted = failed = 0
    tasks = 0
    raw = {"analyze": [], "check": [], "whatif": []}
    for key, t0, ms, line in results:
        attempted += 1
        raw[key[0]].append((t0, ms))
        scaled = ms * host.factor(t0)
        every.append(scaled)
        lat[key[0]].append(scaled)
        if line is None or (key, hashlib.sha1(line).hexdigest()) in bad:
            failed += 1
        if key[0] == "analyze":
            tasks += inputs[key[1]]["tasks"]
    metrics, notes = {}, {}
    metrics["setup_s"] = median([(b - a) * host.factor(a, b) for a, b in setups])
    notes["setup_s"] = f"median of {len(setups)} daemon spawn + ping + cold priming of " \
        f"{len(inputs)} instances; raw {median([b - a for a, b in setups]):.4f}"
    latency_metrics(workload, lat, every, metrics, notes)
    raw_notes(raw, notes)
    notes["request_tail_ms"] += " (all requests)"
    analyze_s = sum(lat["analyze"]) / 1000.0
    metrics["tasks_per_s"] = tasks / analyze_s if analyze_s else 0.0
    notes["tasks_per_s"] = "tasks of analyze requests per second of their latency"
    busy_s = sum(every) / 1000.0
    metrics["ops_per_s"] = (attempted - failed) / busy_s if busy_s else 0.0
    notes["ops_per_s"] = f"completed requests per second of their scaled latency " \
        f"({busy_s:.1f} s; serve_rps)"
    notes["host"] = host.note()
    metrics["peak_rss_mb"] = hwm / 1024.0
    notes["peak_rss_mb"] = "daemon VmHWM before drain"
    log("daemon stats: " + json.dumps({k: stats.get(k) for k in (
        "requests_admitted", "requests_rejected", "cold_builds", "evictions",
        "coalesced_queries", "cache_hits", "cache_entries")}))
    return metrics, notes, attempted, failed, failures


# ------------------------------------------------------------- traced run

def run_traced(work, manifest, workload, seed):
    scratch = os.path.join(work, "scratch.out")
    startups = [run_cli(["--version"], scratch)[0] for _ in range(21)]
    cli_analyze = []
    checks = []
    failures = []
    for i, inp in enumerate(manifest["inputs"]):
        f = os.path.join(work, inp["file"])
        out = os.path.join(work, f"trace-ref-{i}.out")
        for rep in range(2):
            wall, rc, _, _ = run_cli(["analyze", "--json", f], out)
            cli_analyze.append(wall)
            if rc != 0:
                failures.append(f"{inp['file']}: analyze exited {rc}")
        checks.append({"app": f, "analyze": out, "whatifs": []})
    fails, digest = verify(work, checks)
    failures += [msg for _, msg in fails] + check_digest(workload, seed, digest)
    sock_path = os.path.join(work, "t.sock")
    proc, conn = daemon_up(sock_path)
    conn.close()
    try:
        out = probe(["trace", work, sock_path])
    finally:
        stop(proc)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    raw = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in raw.items()}
    metrics["cli.startup_ms"] = median(startups)
    metrics["cli.unaccounted_ms"] = median(cli_analyze) - metrics["inproc.analyze_ms"]
    n_ops = len(startups) + len(cli_analyze) + len(manifest["inputs"])
    log(f"chrome trace: {os.path.join(WORK, workload + '-trace.json')}")
    shutil.copy(os.path.join(work, "trace.json"), os.path.join(WORK, workload + "-trace.json"))
    return metrics, {}, n_ops, len(failures), failures


# -------------------------------------------------------------- one run

def one_run(args):
    spec = load_spec()
    build()
    env = env_info()
    log("ENV " + json.dumps(dict(env, workload=args.workload, seed=args.seed,
                                  seconds=args.seconds, trace=args.trace)))
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        probe(["gen", args.workload, str(args.seed), work])
        with open(os.path.join(work, "manifest.json")) as fh:
            manifest = json.load(fh)
        if args.trace:
            metrics, notes, attempted, failed, failures = run_traced(
                work, manifest, args.workload, args.seed)
            wanted = [m["name"] for m in spec["per_layer"]]
        elif args.workload == "serve-mixed":
            metrics, notes, attempted, failed, failures = run_serve_workload(
                work, manifest, args.seconds, args.workload, args.seed)
            wanted = [m["name"] for m in spec["end_to_end"]]
        else:
            metrics, notes, attempted, failed, failures = run_cli_workload(
                work, manifest, args.seconds, args.workload, args.seed)
            wanted = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures[:20]:
        log("FAIL " + f)
    if "host" in notes:
        log(f"  host speed: {notes['host']}; times below are scaled to {CALIB_MS:g} ms "
            f"per calibration")
    for name in sorted(metrics):
        note = notes.get(name, "")
        log(f"  {name:34s} {metrics[name]:14.4f} {UNITS.get(name, ''):6s} {note}")
    log(f"  {'fail_ratio':34s} {failed / max(1, attempted):14.4f} ratio  "
        f"{failed} of {attempted} ops failed")
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": UNITS[m]} for m in wanted},
    }
    print(json.dumps(result), flush=True)


# ---------------------------------------------------- sweep and compare

def parse_seeds(s):
    if "-" in s:
        a, b = s.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in s.split(",")]


def sweep(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                t0 = time.perf_counter()
                p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                    "--workload", w, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(args.trace)],
                                   capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                env = next((json.loads(x[4:]) for x in lines if x.startswith("ENV ")), {})
                rec = {"workload": w, "seed": seed, "trace": args.trace, "rc": p.returncode,
                       "wall_s": time.perf_counter() - t0, "env": env,
                       "result": json.loads(lines[-1]) if p.returncode == 0 else None}
                if p.returncode != 0:
                    rec["stderr"] = p.stderr[-2000:]
                out.write(json.dumps(rec) + "\n")
                out.flush()
                r = rec["result"]
                log(f"{w} seed {seed}: rc {p.returncode} {rec['wall_s']:.1f}s " +
                    (" ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                     if r else p.stderr[-300:]))


def load_runs(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("result") and not rec.get("trace"):
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def compare(args):
    """Section 8 of the choosing-metrics guide: a side is better only when
    it wins >= 90% of the seed-paired runs and the medians differ by more
    than the base's own quartile spread; worse when its median is worse
    by more than the metric's bound; unresolved when the base's spread
    exceeds the bound (unless every new run beats every base run)."""
    spec = load_spec()
    base, new = load_runs(args.base), load_runs(args.new)
    hosts = {json.dumps(r["env"].get("nproc")) for rs in list(base.values()) +
             list(new.values()) for r in rs}
    log(f"nproc of the runs: {', '.join(sorted(hosts))}")
    log(f"{'workload':12s} {'metric':16s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s}"
        f" {'wins':>7s}  verdict")
    for w in sorted(set(base) | set(new)):
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            b = {r["seed"]: r["result"]["metrics"][name]["value"] for r in base.get(w, [])}
            n = {r["seed"]: r["result"]["metrics"][name]["value"] for r in new.get(w, [])}
            if len(b) < 2 or len(n) < 2:
                log(f"{w:12s} {name:16s} not enough runs")
                continue
            bq = statistics.quantiles(b.values(), n=4)
            nq = statistics.quantiles(n.values(), n=4)
            bm, nm = statistics.median(b.values()), statistics.median(n.values())
            pairs = [s for s in b if s in n]

            def better(x, y):
                return x < y if lower else x > y
            wins = sum(better(n[s], b[s]) for s in pairs)
            worse_by = (nm - bm) / bm if lower else (bm - nm) / bm
            spread = (bq[2] - bq[0]) / bm
            all_better = all(better(x, y) for x in n.values() for y in b.values())
            if pairs and wins >= 0.9 * len(pairs) and abs(nm - bm) > bq[2] - bq[0]:
                verdict = "better"
            elif worse_by > bound:
                verdict = "worse"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "same (within bound)"
            log(f"{w:12s} {name:16s} {bq[0]:9.4g} {bm:9.4g} {bq[2]:9.4g}  "
                f"{nq[0]:9.4g} {nm:9.4g} {nq[2]:9.4g}  {wins:3d}/{len(pairs):<3d}  {verdict}"
                f"  (worse by {100 * worse_by:+.1f}%, bound {100 * bound:.0f}%)")


def main():
    # A run stopped with SIGTERM still stops its daemon (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if len(sys.argv) > 1 and sys.argv[1] in ("sweep", "compare"):
        ap = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "sweep":
            ap.add_argument("--seeds", default="1-10")
            ap.add_argument("--out", required=True)
            ap.add_argument("--workloads")
            ap.add_argument("--seconds", type=int)
            ap.add_argument("--trace", type=int, default=0)
            sweep(ap.parse_args(sys.argv[2:]))
        else:
            ap.add_argument("base")
            ap.add_argument("new")
            compare(ap.parse_args(sys.argv[2:]))
        return 0
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        one_run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        for proc in list(LIVE):
            stop(proc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
