#!/usr/bin/env python3
"""End-to-end benchmark of nodebench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a nodebench source tree. The first run builds the
`nodebench` CLI (Release) under $CARGO_TARGET_DIR (default .bench_build);
`--trace 1` also builds the per-layer driver in perfbench/layers.

With --trace 0 the workload drives the real CLI (serve-mix: the serve
daemon) from this one client process, for S seconds of closed-loop rounds
whose step order is shuffled from the seed; every output is checked, and
the end-to-end metrics are printed. With --trace 1 the per-layer driver,
the supervise-overhead probe and the serve memo probe give the per-layer
metrics instead. The last line of stdout is the JSON result. See
perfbench/README.md for the workloads, metrics and the layer map.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

# The workloads BENCHMARK.json declares, and serve-mix, which runs by hand
# only (README: "Not declared").
DECLARED = ("paper-tables", "durable-campaign")
WORKLOADS = (*DECLARED, "serve-mix")
SETUP_REPEATS = 21
HARD_LIMIT_S = 170  # every run ends, children included, before 180 s
REGRESSION_PLAN = HERE / "inputs" / "regression_plan.json"
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Each timing is its lowest window median (README: "Windows"). A window is
# ROUNDS_PER_WINDOW[workload] whole rounds, so it holds the same number of
# samples of each step however fast the program runs; the partial rounds
# at the end of the run are left out. On a shared host, a burst of
# neighbour load that misses one window then leaves the timing alone.
# paper-tables is CPU-bound and drifts slowly, so its whole run is one
# window (None). serve-mix's windows are the SERVE_BLOCKS time blocks of
# its two mixes.
ROUNDS_PER_WINDOW = {"paper-tables": None, "durable-campaign": 12}
SERVE_BLOCKS = 8

# Every declared workload reports every end-to-end metric. Each step
# slot is named after its step on paper-tables, then on durable-campaign.
# journaled_table_all_ms is measured and printed but fills no slot: it is
# fsync-bound, and fsync latency on a shared disk swings too far between
# runs for any bound (README: "Not declared").
SLOTS = {
    "table_all.resume_ms": ("table_all_ms", "resume_ms"),
    "memlab.gate_ms": ("memlab_ms", "gate_ms"),
    "traced_table.supervise_merge_ms": ("traced_table_ms", "supervise_merge_ms"),
}
E2E_UNITS = {"setup_s": "s", "ok_ratio": "ratio", "peak_rss_mib": "MiB",
             **{slot: "ms" for slot in SLOTS}}
SERVE_UNITS = {"req_per_s": "1/s", "hit_p50_ms": "ms", "cold_p50_ms": "ms",
               "get_p50_ms": "ms"}

# Per-layer metric -> (unit, the step metric @ workload it should move; a
# step metric is reported in the SLOTS entry that names it).
LAYER_METRICS = {
    "report.compute_tables_ms": ("ms", "table_all_ms@paper-tables"),
    "report.render_ms": ("ms", "table_all_ms@paper-tables"),
    "report.cells": ("count", "ok_ratio@all"),
    "report.cell_retries": ("count", "ok_ratio@all"),
    "memlab.compute_sweep_ms": ("ms", "memlab_ms@paper-tables"),
    "memlab.compute_chase_ms": ("ms", "memlab_ms@paper-tables"),
    "memsim.bw_resolve_ns": ("ns", "memlab_ms,table_all_ms@paper-tables"),
    "memsim.bw_resolve_calls": ("count", "memlab_ms,table_all_ms@paper-tables"),
    "osu.latency_measure_us": ("us", "table_all_ms@paper-tables"),
    "babelstream.run_us": ("us", "table_all_ms@paper-tables"),
    "commscope.suite_us": ("us", "table_all_ms@paper-tables"),
    "osu.latency_measure_traced_us": ("us", "traced_table_ms@paper-tables"),
    "mpisim.sched_switches": ("count", "traced_table_ms@paper-tables"),
    "sim.ns_per_switch": ("ns", "traced_table_ms@paper-tables"),
    "trace.finish_ms": ("ms", "traced_table_ms@paper-tables"),
    "trace.bytes": ("bytes", "traced_table_ms,peak_rss_mib@paper-tables"),
    "campaign.journal_append_us": (
        "us", "journaled_table_all_ms,supervise_merge_ms@durable-campaign"),
    "campaign.journal_append_p90_us": (
        "us", "journaled_table_all_ms,supervise_merge_ms@durable-campaign"),
    "campaign.journal_appends": (
        "count", "journaled_table_all_ms,supervise_merge_ms@durable-campaign"),
    "campaign.journal_resume_ms": ("ms", "resume_ms@durable-campaign"),
    "campaign.merge_journals_ms": ("ms", "supervise_merge_ms@durable-campaign"),
    "stats.store_append_us": ("us", "journaled_table_all_ms@durable-campaign"),
    "stats.store_load_ms": ("ms", "gate_ms,resume_ms@durable-campaign"),
    "stats.compare_ms": ("ms", "gate_ms@durable-campaign"),
    "stats.compare_cells": ("count", "gate_ms@durable-campaign"),
    "stats.merge_stores_ms": ("ms", "supervise_merge_ms@durable-campaign"),
    "supervise.overhead_ms": ("ms", "supervise_merge_ms@durable-campaign"),
    "serve.request_decode_us": ("us", "hit_p50_ms,cold_p50_ms@serve-mix"),
    "serve.http_parse_us": ("us", "get_p50_ms@serve-mix"),
    "serve.memo_hit_ratio": ("ratio", "hit_p50_ms,req_per_s@serve-mix"),
    "serve.rejected": ("count", "ok_ratio@serve-mix"),
    "machines.registry_ms": ("ms", "setup_s@all"),
    "bench.trace_overhead_pct": ("%", "tracing overhead (traced - untraced table all)"),
}

# Serve mixes: the all-hit mix repeats the fixed spec set (primed at
# set-up); the all-cold mix draws unique keys from runs 101..164 x
# cell_retries 0..100, none equal to a hit spec. The runs band is narrow so
# every cold request costs about the same.
HIT_SPECS = (
    {"tables": [4], "runs": 100},
    {"tables": [5], "runs": 100},
    {"tables": [6], "runs": 100},
    {"families": ["sweep"], "runs": 100},
)
COLD_KEYS = 64 * 101
MEMO_PROBE_HITS = 40


class SetupError(Exception):
    """The program failed before the first step: nothing to measure."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(values, p):
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def rel(path):
    return os.path.relpath(path, ROOT)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- build --------------------------------------------------------------------

def cmake(build, source, target, defines, logfile):
    cmds = []
    if not (build / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(source), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release", *defines])
    cmds.append(["cmake", "--build", str(build), "--target", target,
                 "-j", str(os.cpu_count() or 2)])
    with open(logfile, "ab") as out:
        for cmd in cmds:
            pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 2)])
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                tail = Path(logfile).read_text(errors="replace")[-3000:]
                raise SetupError(f"build failed: {' '.join(cmd)}\n{tail}")


def build(bench_dir, with_layers):
    nb_build = bench_dir / "nodebench"
    nb_build.mkdir(parents=True, exist_ok=True)
    # GCC 12 at -O3 raises a false -Wrestrict inside libstdc++ (trace
    # sink); warnings stay on, they just do not stop the perf build.
    cmake(nb_build, ROOT, "nodebench",
          ["-DNODEBENCH_WERROR=OFF", "-DNODEBENCH_BUILD_TESTS=OFF",
           "-DNODEBENCH_BUILD_BENCH=OFF", "-DNODEBENCH_BUILD_EXAMPLES=OFF"],
          bench_dir / "build.log")
    layers = None
    if with_layers:
        layers_build = bench_dir / "layers"
        cmake(layers_build, HERE / "layers", "perfbench_layers",
              [f"-DNODEBENCH_SOURCE_DIR={ROOT}",
               f"-DNODEBENCH_BUILD_DIR={nb_build}"],
              bench_dir / "build.log")
        layers = layers_build / "perfbench_layers"
    return nb_build, nb_build / "src" / "cli" / "nodebench", layers


# --- child processes ---------------------------------------------------------

class Children:
    """Spawns children with stdout/stderr in files, times each from spawn
    to reap, and keeps the peak RSS any of them reached (wait4 rusage,
    which covers a child's own reaped descendants too)."""

    def __init__(self, nodebench):
        self.nodebench = str(nodebench)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("NODEBENCH_")}
        self.live = set()
        self.peak_rss_kb = 0

    def spawn(self, argv, out, err):
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        pid = os.posix_spawn(argv[0], argv, self.env,
                             file_actions=[
                                 (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                 (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                                 (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)])
        self.live.add(pid)
        return pid

    def reap(self, pid, options=0):
        got, status, usage = os.wait4(pid, options)
        if got == 0:
            return None
        self.live.discard(pid)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return os.waitstatus_to_exitcode(status)

    def run(self, args, out, err=os.devnull):
        """Runs one CLI command to completion: (exit code, wall ms)."""
        start = time.perf_counter_ns()
        pid = self.spawn([self.nodebench, *args], out, err)
        rc = self.reap(pid)
        return rc, (time.perf_counter_ns() - start) / 1e6

    def stop(self, pid, timeout_s=30):
        """SIGTERM, then SIGKILL after `timeout_s`; returns the exit code."""
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            rc = self.reap(pid, os.WNOHANG)
            if rc is not None:
                return rc
            time.sleep(0.005)
        os.kill(pid, signal.SIGKILL)
        return self.reap(pid)

    def kill_all(self):
        for pid in list(self.live):
            try:
                os.kill(pid, signal.SIGKILL)
                self.reap(pid)
            except (ProcessLookupError, ChildProcessError):
                self.live.discard(pid)


# --- one run -------------------------------------------------------------------

class Run:
    def __init__(self, args, nodebench, work):
        self.args = args
        self.seed = args.seed
        self.rng = random.Random(args.seed)
        self.work = work
        self.children = Children(nodebench)
        self.samples = {}  # name -> [(window, value)]
        self.window = 0  # the window samples go to now
        self.windows = 1  # complete windows once the loop has ended
        self.rates = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_s = None
        self.setup_fn = None
        self.setup_times = []
        self.extra_rss_kb = 0

    def sample(self, name, value):
        self.samples.setdefault(name, []).append((self.window, value))

    def values(self, name):
        return [value for _, value in self.samples.get(name, [])]

    def tally(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)

    def nb(self, args, out, err=os.devnull):
        return self.children.run([str(a) for a in args], out, err)

    def require(self, args, out, what):
        rc, _ = self.nb(args, out)
        if rc != 0:
            raise SetupError(f"{what} exited {rc}")

    def timed_setup(self, fn):
        """Sets up SETUP_REPEATS times from scratch before the loop (serve-mix:
        a daemon cannot restart mid-loop); setup_s is the median. The last
        set-up state is the one the loop uses."""
        times, state = [], None
        for _ in range(SETUP_REPEATS):
            if state is not None and hasattr(state, "close"):
                state.close()
            start = time.perf_counter()
            state = fn()
            times.append(time.perf_counter() - start)
        self.setup_s = statistics.median(times)
        return state

    def spread_setup(self, fn):
        """Sets up once now; rounds() repeats the set-up from scratch at even
        intervals, SETUP_REPEATS times in all, and setup_s is the median. A
        burst of neighbour load then hits one set-up, not all of them."""
        self.setup_fn = fn
        self.time_setup()

    def time_setup(self):
        start = time.perf_counter()
        self.setup_fn()
        self.setup_times.append(time.perf_counter() - start)

    def rounds(self, seconds, make_round, per_window):
        """Closed loop: whole rounds until `seconds` have passed, in windows
        of `per_window` rounds (None: one window)."""
        start = time.perf_counter()
        interval = seconds / SETUP_REPEATS
        count = 0
        while count == 0 or time.perf_counter() - start < seconds:
            self.window = count // per_window if per_window else 0
            for step in make_round():
                step()
            count += 1
            if (self.setup_fn and len(self.setup_times) < SETUP_REPEATS
                    and time.perf_counter() - start >= interval * len(self.setup_times)):
                self.time_setup()
        self.windows = max(count // per_window, 1) if per_window else 1
        while self.setup_fn and len(self.setup_times) < SETUP_REPEATS:
            self.time_setup()
        if self.setup_fn:
            self.setup_s = statistics.median(self.setup_times)


def window_of(at, span, k):
    """Which of the `k` equal time blocks of `span` the time `at` falls in."""
    start, end = span
    return min(max(int((at - start) * k / (end - start)), 0), k - 1)


def window_groups(samples, windows):
    """The values of each complete window that holds any, in order."""
    groups = [[] for _ in range(windows)]
    for window, value in samples:
        if window < windows:
            groups[window].append(value)
    return [g for g in groups if g]


def lowest_median(groups):
    """The timing estimator: the lowest window median."""
    return min(statistics.median(g) for g in groups)


def seeded_order(rng, steps, after):
    """A random order of `steps` in which each step in `after` follows the
    step it names (a seeded topological shuffle)."""
    pending, order = list(steps), []
    while pending:
        ready = [s for s in pending if after.get(s) not in pending]
        pick = ready[rng.randrange(len(ready))]
        pending.remove(pick)
        order.append(pick)
    return order


# --- workload: paper-tables ------------------------------------------------------

def paper_tables(run):
    w = run.work
    ref = w / "ref"
    # References at the default (parallel) --jobs; the steps run --jobs 1,
    # so every check is also a cross-worker-count byte-identity check.
    reference_cmds = {
        "table_all": ["table", "all"],
        "sweep": ["sweep"],
        "chase": ["chase"],
        "table5": ["table", "5"],
    }

    def setup():
        fresh_dir(ref)
        for name, args in reference_cmds.items():
            run.require(args, ref / f"{name}.txt", " ".join(args))

    run.spread_setup(setup)
    expected = {name: (ref / f"{name}.txt").read_bytes() for name in reference_cmds}
    out, trace = w / "out.txt", w / "trace.json"
    expected["traced"] = expected["table5"] + f"wrote {rel(trace)}\n".encode()
    first_trace = []

    def table_all():
        rc, ms = run.nb(["table", "all", "--jobs", "1"], out)
        run.sample("table_all_ms", ms)
        run.tally(checks.exit_code(rc, 0, "table all") or checks.same_bytes(
            out.read_bytes(), expected["table_all"], "table all vs the parallel reference"))

    def memlab():
        problem, total = None, 0.0
        for family in ("sweep", "chase"):
            rc, ms = run.nb([family, "--jobs", "1"], out)
            total += ms
            problem = problem or checks.exit_code(rc, 0, family) or checks.same_bytes(
                out.read_bytes(), expected[family], f"{family} vs the parallel reference")
        run.sample("memlab_ms", total)
        run.tally(problem)

    def traced_table():
        rc, ms = run.nb(["table", "5", "--jobs", "1", "--trace", rel(trace)], out)
        run.sample("traced_table_ms", ms)
        problem = checks.exit_code(rc, 0, "table 5 --trace") or checks.same_bytes(
            out.read_bytes(), expected["traced"], "table 5 --trace stdout")
        if not problem:
            data = trace.read_bytes()
            digest = hashlib.sha256(data).digest()
            if not first_trace:
                problem = checks.trace_well_formed(data)
                first_trace.append(digest)
            problem = problem or checks.trace_stable(digest, first_trace[0])
        run.tally(problem)

    # 3:3:1 keeps the fast steps' sample counts high next to the ~300 ms
    # traced step.
    def make_round():
        steps = [table_all, memlab] * 3 + [traced_table]
        run.rng.shuffle(steps)
        return steps

    run.rounds(run.args.seconds, make_round, ROUNDS_PER_WINDOW[run.args.workload])
    return {}


# --- workload: durable-campaign -----------------------------------------------

def durable_campaign(run):
    w = run.work
    ref = w / "ref"
    plan = rel(REGRESSION_PLAN)

    def setup():
        fresh_dir(ref)
        run.require(["table", "all", "--jobs", "1", "--journal", rel(ref / "ref.journal"),
                     "--store", rel(ref / "ref.store")], ref / "table_all.txt",
                    "reference table all --journal --store")
        run.require(["table", "all", "--faults", plan, "--store", rel(ref / "regress.store")],
                    ref / "regress.txt", "table all under the regression plan")

    run.spread_setup(setup)
    expected = (ref / "table_all.txt").read_bytes()
    ref_journal = (ref / "ref.journal").read_bytes()
    ref_store = (ref / "ref.store").read_bytes()
    out = w / "out.txt"
    journal, store = w / "campaign.journal", w / "campaign.store"
    sup = w / "sup"
    merged_journal, merged_store = w / "merged.journal", w / "merged.store"

    def journaled():
        journal.unlink(missing_ok=True)
        store.unlink(missing_ok=True)
        rc, ms = run.nb(["table", "all", "--journal", rel(journal), "--store", rel(store)], out)
        run.sample("journaled_table_all_ms", ms)
        run.tally(checks.exit_code(rc, 0, "table all --journal --store") or checks.same_bytes(
            out.read_bytes(), expected, "journaled table all vs --jobs 1"))

    def resume():
        before = (journal.read_bytes(), store.read_bytes())
        rc, ms = run.nb(["table", "all", "--journal", rel(journal), "--store", rel(store),
                         "--resume"], out)
        run.sample("resume_ms", ms)
        run.tally(checks.exit_code(rc, 0, "table all --resume")
                  or checks.same_bytes(out.read_bytes(), expected, "resumed table all vs --jobs 1")
                  or checks.unchanged_by_resume(before[0], journal.read_bytes(), "journal")
                  or checks.unchanged_by_resume(before[1], store.read_bytes(), "store"))

    def supervise():
        fresh_dir(sup)
        merged_journal.unlink(missing_ok=True)
        merged_store.unlink(missing_ok=True)
        rc, ms = run.nb(["supervise", "all", "--shards", "4", "--workers", "2",
                         "--journal", rel(sup / "j"), "--store", rel(sup / "s"),
                         "--merge-out", rel(merged_journal),
                         "--merge-store-out", rel(merged_store)], out)
        run.sample("supervise_merge_ms", ms)
        problem = checks.exit_code(rc, 0, "supervise")
        if not problem:
            problem = (checks.same_bytes(merged_journal.read_bytes(), ref_journal,
                                         "supervised merged journal vs --jobs 1")
                       or checks.same_bytes(merged_store.read_bytes(), ref_store,
                                            "supervised merged store vs --jobs 1"))
        run.tally(problem)

    def gate(candidate, expect_regression):
        def step():
            rc, ms = run.nb(["gate", rel(ref / "ref.store"), rel(candidate)], out)
            run.sample("gate_ms", ms)
            run.tally(checks.gate_verdict(rc, out.read_bytes(), expect_regression))
        return step

    # Three resumes a round: the ~5 ms step then has as many samples per
    # window as the two gates together.
    steps = {
        "journaled": journaled, "resume1": resume, "resume2": resume, "resume3": resume,
        "supervise": supervise, "gate_clean": gate(merged_store, False),
        "gate_regress": gate(ref / "regress.store", True),
    }
    after = {"resume1": "journaled", "resume2": "journaled", "resume3": "journaled",
             "gate_clean": "supervise"}
    first = [True]

    def make_round():
        # Dependencies bind only until each artifact exists once.
        order = seeded_order(run.rng, list(steps), after if first[0] else {})
        first[0] = False
        return [steps[name] for name in order]

    run.rounds(run.args.seconds, make_round, ROUNDS_PER_WINDOW[run.args.workload])
    return {}


# --- workload: serve-mix -----------------------------------------------------------

def http(sock, method, target, body=b""):
    """One request on a fresh connection (the daemon closes each after one
    response): (status, body)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(60)
        s.connect(sock)
        s.sendall(f"{method} {target} HTTP/1.1\r\nHost: localhost\r\n"
                  f"Content-Type: application/json\r\nContent-Length: {len(body)}"
                  "\r\n\r\n".encode() + body)
        chunks = []
        while chunk := s.recv(65536):
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


class Daemon:
    """A `nodebench serve` daemon on a unix socket under the run's dir."""

    def __init__(self, run, base):
        self.run = run
        fresh_dir(base)
        self.sock = rel(base / "d.sock")
        self.pid = run.children.spawn(
            [run.children.nodebench, "serve", "--socket", self.sock,
             "--state-dir", rel(base / "state")],
            base / "daemon.out", base / "daemon.err")
        deadline = time.monotonic() + 30
        while True:
            try:
                if http(self.sock, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or run.children.reap(self.pid, os.WNOHANG) is not None:
                raise SetupError("serve daemon never answered /healthz")
            time.sleep(0.001)
        self.primed = {}
        self.posted = {}
        for i, spec in enumerate(HIT_SPECS):
            body = json.dumps(dict(spec, tenant="prime")).encode()
            status, reply = http(self.sock, "POST", "/requests", body)
            problem, doc = checks.serve_done(status, reply)
            if problem:
                raise SetupError(f"priming spec {i}: {problem}")
            self.primed[i] = doc["tables"]
            self.posted[doc["id"]] = reply

    def peak_rss_kb(self):
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def close(self):
        return self.run.children.stop(self.pid)


def healthz(daemon):
    status, body = http(daemon.sock, "GET", "/healthz")
    if status != 200:
        raise SetupError(f"/healthz returned {status}")
    return json.loads(body)


def post_hit(daemon, spec, tenant):
    """POSTs hit spec `spec`; returns (problem, result doc, reply, ms)."""
    body = json.dumps(dict(HIT_SPECS[spec], tenant=tenant)).encode()
    start = time.perf_counter_ns()
    try:
        status, reply = http(daemon.sock, "POST", "/requests", body)
    except (OSError, ValueError, IndexError) as e:
        return f"hit request failed: {e!r}", None, None, None
    ms = (time.perf_counter_ns() - start) / 1e6
    problem, doc = checks.serve_done(status, reply)
    return problem or checks.memo_hit_matches(doc, daemon.primed[spec]), doc, reply, ms


def serve_mix(run):
    """Two mixes on one daemon, in SERVE_BLOCKS equal time blocks of the
    run, half of each, in a seeded order: all memo hits, or all cold keys.
    The mix is the "how much work do inputs share" axis."""
    base = run.work / "serve"
    daemon = run.timed_setup(lambda: Daemon(run, base))
    k = SERVE_BLOCKS
    mixes = ["hit", "cold"] * (k // 2)
    run.rng.shuffle(mixes)
    keys = list(range(COLD_KEYS))
    run.rng.shuffle(keys)
    cond = threading.Condition()
    colds = []  # (runs, table ascii) of every cold result
    latencies = {"hit": [], "cold": [], "get": []}  # (request start, ms)
    ids = sorted(daemon.posted)  # every completed request, GET targets
    fresh = []  # ids completed by the writer, in completion order
    outcomes = []
    writing = [True]
    start = time.perf_counter()
    span = (start, start + run.args.seconds)
    hits_sent = [0]

    def writer():
        """Connection 0: POSTs of the current block's mix."""
        rng = random.Random(f"{run.seed}/post")
        try:
            while (at := time.perf_counter()) < span[1] and keys:
                if mixes[window_of(at, span, k)] == "hit":
                    kind, spec = "hit", rng.randrange(len(HIT_SPECS))
                    hits_sent[0] += 1
                    problem, doc, reply, ms = post_hit(daemon, spec, "writer")
                else:
                    key = keys.pop()
                    kind, body = "cold", {"tenant": "writer", "tables": [4],
                                          "runs": 101 + key % 64, "cell_retries": key // 64}
                    try:
                        status, reply = http(daemon.sock, "POST", "/requests",
                                             json.dumps(body).encode())
                        ms = (time.perf_counter() - at) * 1e3
                        problem, doc = checks.serve_done(status, reply)
                    except (OSError, ValueError, IndexError) as e:
                        problem = f"cold request failed: {e!r}"
                with cond:
                    outcomes.append(problem)
                    if not problem:
                        latencies[kind].append((at, ms))
                        daemon.posted[doc["id"]] = reply
                        ids.append(doc["id"])
                        fresh.append(doc["id"])
                        if kind == "cold":
                            colds.append((body["runs"], doc["tables"]["4"]))
                    cond.notify()
        finally:
            with cond:
                writing[0] = False
                cond.notify()

    def reader():
        """Connection 1: reads back each result the writer completes, and
        one seeded older result, while the writer's next POST runs."""
        rng = random.Random(f"{run.seed}/get")
        seen = 0
        while True:
            with cond:
                cond.wait_for(lambda: len(fresh) > seen or not writing[0])
                if len(fresh) == seen:
                    return
                targets = [fresh[seen], rng.choice(ids)]
                seen += 1
                expected = [daemon.posted[t] for t in targets]
            for target, posted in zip(targets, expected):
                at = time.perf_counter()
                try:
                    status, reply = http(daemon.sock, "GET", f"/requests/{target}")
                    problem = checks.get_matches(status, reply, posted)
                except (OSError, ValueError, IndexError) as e:
                    problem = f"get request failed: {e!r}"
                with cond:
                    outcomes.append(problem)
                    if not problem:
                        latencies["get"].append((at, (time.perf_counter() - at) * 1e3))

    try:
        before = healthz(daemon)
        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for problem in outcomes:
            run.tally(problem)
        health = healthz(daemon)
        run.extra_rss_kb = daemon.peak_rss_kb()
    finally:
        rc = daemon.close()
    run.tally(checks.exit_code(rc, 0, "serve daemon drain"))
    # Each block is a window. A GET under the cold mix shares the CPU with
    # a measurement, so get_p50_ms takes the GETs of the all-hit blocks,
    # like req_per_s.
    run.windows = k
    blocks = {kind: [(window_of(at, span, k), ms) for at, ms in samples]
              for kind, samples in latencies.items()}
    gets = {mix: [(w, ms) for w, ms in blocks["get"] if mixes[w] == mix]
            for mix in ("hit", "cold")}
    run.samples.update(hit_p50_ms=blocks["hit"], cold_p50_ms=blocks["cold"],
                       get_p50_ms=gets["hit"])
    # req_per_s: requests (POST and GET) started per second in the busiest
    # all-hit block.
    counts = [0] * k
    for samples in blocks.values():
        for w, _ in samples:
            counts[w] += 1
    block_s = run.args.seconds / k
    rates = {mix: [counts[i] / block_s for i in range(k) if mixes[i] == mix]
             for mix in ("hit", "cold")}
    run.rates["req_per_s"] = max(rates["hit"])
    # Cold results against the CLI, outside the timed loop.
    out = run.work / "out.txt"
    for runs, ascii_table in random.Random(run.seed).sample(colds, min(3, len(colds))):
        rc, _ = run.nb(["table", "4", "--runs", runs], out)
        run.tally(checks.exit_code(rc, 0, "table 4 --runs")
                  or checks.cold_matches_cli(ascii_table, out.read_bytes(), runs))
    return {"block mixes": " ".join(mixes),
            "cold-mix req/s (busiest block)": max(rates["cold"]),
            "cold-mix GET ms (lowest block median)": lowest_median(window_groups(gets["cold"], k)),
            "memo hits / hit requests sent":
                (health["memo_hits"] - before["memo_hits"]) / max(hits_sent[0], 1),
            "rejected": health["rejected"], "completed": health["completed"]}


# --- traced run: per-layer metrics -------------------------------------------------

def layer_references(run, ref):
    fresh_dir(ref)
    for name, args in (("table_all", ["table", "all", "--jobs", "1", "--journal",
                                      rel(ref / "ref.journal"), "--store",
                                      rel(ref / "ref.store")]),
                       ("sweep", ["sweep", "--jobs", "1"]),
                       ("chase", ["chase", "--jobs", "1"]),
                       ("table5", ["table", "5", "--jobs", "1", "--trace",
                                   rel(ref / "table5.trace.json")]),
                       ("regress", ["table", "all", "--faults", rel(REGRESSION_PLAN),
                                    "--store", rel(ref / "regress.store")])):
        run.require(args, ref / f"{name}.txt", " ".join(args))


def supervise_overhead(run, seconds):
    """supervise_merge_ms minus the slowest directly-run shard minus the
    merge: what supervision itself costs. Leaves the last round's direct
    shard journals/stores in work/shard for the layer driver."""
    w = run.work
    ref_journal = (w / "ref" / "ref.journal").read_bytes()
    out = w / "out.txt"

    def once():
        sup, shard = fresh_dir(w / "sup"), fresh_dir(w / "shard")
        rc, sup_ms = run.nb(["supervise", "all", "--shards", "4", "--workers", "2",
                             "--journal", rel(sup / "j"), "--store", rel(sup / "s"),
                             "--merge-out", rel(sup / "m.journal"),
                             "--merge-store-out", rel(sup / "m.store")], out)
        problem = checks.exit_code(rc, 0, "supervise")
        shard_ms = []
        for i in range(4):
            rc, ms = run.nb(["table", "all", "--shard", f"{i}/4",
                             "--journal", rel(shard / f"journal.shard{i}of4"),
                             "--store", rel(shard / f"store.shard{i}of4")], out)
            shard_ms.append(ms)
            problem = problem or checks.exit_code(rc, 0, f"table all --shard {i}/4")
        merge = ["merge", "--out", rel(shard / "m.journal"), "--store-out",
                 rel(shard / "m.store")]
        for i in range(4):
            merge += ["--stores", rel(shard / f"store.shard{i}of4")]
        merge += [rel(shard / f"journal.shard{i}of4") for i in range(4)]
        rc, merge_ms = run.nb(merge, out)
        problem = (problem or checks.exit_code(rc, 0, "merge") or checks.same_bytes(
            (shard / "m.journal").read_bytes(), ref_journal, "merged direct shards vs --jobs 1"))
        run.tally(problem)
        run.sample("supervise.overhead_ms", sup_ms - max(shard_ms) - merge_ms)

    start = time.perf_counter()
    once()
    while time.perf_counter() - start < seconds:
        once()


def serve_memo_probe(run):
    """serve.memo_hit_ratio and serve.rejected, through a real daemon and
    the same HTTP client as serve-mix. After the set-up has primed every
    hit spec, an all-hit mix of MEMO_PROBE_HITS seeded POSTs: the ratio is
    the memo hits the daemon counts over the hit-spec requests sent, so it
    falls below 1 only when the memo misses."""
    daemon = Daemon(run, run.work / "serve")
    try:
        before = healthz(daemon)
        for _ in range(MEMO_PROBE_HITS):
            run.tally(post_hit(daemon, run.rng.randrange(len(HIT_SPECS)), "probe")[0])
        after = healthz(daemon)
    finally:
        rc = daemon.close()
    run.tally(checks.exit_code(rc, 0, "serve daemon drain"))
    return {"serve.memo_hit_ratio": (after["memo_hits"] - before["memo_hits"]) / MEMO_PROBE_HITS,
            "serve.rejected": after["rejected"]}


def self_times(spans_path):
    """Self time per span name: duration minus the time its children cover."""
    spans = [json.loads(line) for line in Path(spans_path).read_text().splitlines()]
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    total = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child.get(s["id"], 0)
        total[s["name"]] = total.get(s["name"], 0) + own
    return sorted(total.items(), key=lambda kv: -kv[1])


def traced(run, layers):
    layer_references(run, run.work / "ref")
    supervise_overhead(run, run.args.seconds * 0.3)
    spans = run.work / "spans.jsonl"
    out = run.work / "layers.out"
    pid = run.children.spawn(
        [str(layers), "--seed", str(run.seed), "--seconds", str(run.args.seconds * 0.6),
         "--work", rel(run.work), "--spans", rel(spans)], out, run.work / "layers.err")
    rc = run.children.reap(pid)
    if rc != 0:
        raise SetupError("perfbench_layers exited %d: %s" % (
            rc, (run.work / "layers.err").read_text(errors="replace")[-2000:]))
    result = json.loads(out.read_text().strip().splitlines()[-1])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.problems += result["failures"]
    metrics = dict(result["metrics"])
    metrics["supervise.overhead_ms"] = statistics.median(run.values("supervise.overhead_ms"))
    metrics.update(serve_memo_probe(run))
    print("self time by span (all rounds):")
    for name, ns in self_times(spans)[:12]:
        print(f"  {name:32s} {ns / 1e6:12.3f} ms")
    return metrics


# --- reporting ------------------------------------------------------------------

def describe(name, values, unit):
    n = len(values)
    line = f"  {name:26s} {statistics.median(values):14.4f} {unit:6s} median of n={n}"
    tail = next((p for p in PERCENTILES if n * (100 - p) >= 1000 - 1e-6), None)
    if tail is None:
        return line + ", no percentile with >=10 samples beyond it"
    return line + f", p{tail:g}={quantile(values, tail):.4f}"


def timing(run, step, unit, tag):
    """Prints a step's timing and returns its lowest window median."""
    groups = window_groups(run.samples[step], run.windows)
    value = lowest_median(groups)
    print(f"  {step:26s} {value:14.4f} {unit:6s} lowest median of {len(groups)} windows{tag}")
    if run.windows > 1:
        print("      per window: " + ", ".join(
            f"{statistics.median(g):.4f} (n={len(g)})" for g in groups))
    print("    " + describe("whole run", run.values(step), unit).strip())
    return value


def e2e_metrics(run, workload):
    """{metric: (step name, unit)} of the workload, measured and printed."""
    if workload in DECLARED:
        index = DECLARED.index(workload)
        wanted = {slot: (steps[index], "ms") for slot, steps in SLOTS.items()}
    else:
        wanted = {name: (name, unit) for name, unit in SERVE_UNITS.items()}
    units = {"setup_s": "s", "ok_ratio": "ratio", "peak_rss_mib": "MiB",
             **{name: unit for name, (_, unit) in wanted.items()}}
    metrics = {"setup_s": run.setup_s,
               "peak_rss_mib": max(run.children.peak_rss_kb, run.extra_rss_kb) / 1024}
    print(f"end-to-end metrics ({workload}, seed {run.seed}):")
    print(f"  {'setup_s':26s} {run.setup_s:14.4f} s      median of {SETUP_REPEATS} set-ups")
    for name, (step, unit) in wanted.items():
        if step in run.rates:
            metrics[name] = run.rates[step]
            print(f"  {step:26s} {metrics[name]:14.4f} {unit:6s} in the busiest all-hit block")
            continue
        if not run.samples.get(step):
            run.tally(f"no successful sample of {step}")
            metrics[name] = 0.0
            continue
        metrics[name] = timing(run, step, unit, "" if step == name else f"  [{name}]")
    if workload == "durable-campaign":
        timing(run, "journaled_table_all_ms", "ms", "  [not declared]")
    metrics["ok_ratio"] = (run.attempted - run.failed) / run.attempted
    print(f"  {'ok_ratio':26s} {metrics['ok_ratio']:14.4f} ratio  "
          f"({run.attempted - run.failed} of {run.attempted} steps correct)")
    print(f"  {'peak_rss_mib':26s} {metrics['peak_rss_mib']:14.4f} MiB")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def layer_report(run, metrics):
    print("per-layer metrics (traced run) -> the step metric @ workload each should move:")
    result = {}
    for name, (unit, moves) in LAYER_METRICS.items():
        if name not in metrics:
            run.tally(f"the traced run measured no {name}")
        value = metrics.get(name, 0.0)
        print(f"  {name:32s} {value:16.4f} {unit:6s} -> {moves}")
        result[name] = {"value": value, "unit": unit}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "cli").is_dir():
        log(f"perfbench: {ROOT} holds no nodebench source tree to build")
        return 2
    os.chdir(ROOT)
    bench_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bench_dir.mkdir(parents=True, exist_ok=True)
    run = None

    def out_of_time(signum, frame):
        raise SetupError(f"run exceeded {HARD_LIMIT_S} s")

    try:
        nb_build, nodebench, layers = build(bench_dir, args.trace == 1)
        snapshot = checks.build_snapshot(ROOT, nb_build)
        print("snapshot: " + json.dumps(snapshot, sort_keys=True))
        refusal = checks.unmeasurable(snapshot)
        if refusal:
            log(f"perfbench: refusing to measure a {refusal}")
            return 1
        signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(HARD_LIMIT_S)
        work = fresh_dir(bench_dir / "work" / f"{args.workload}-t{args.trace}")
        run = Run(args, nodebench, work)
        if args.trace:
            metrics = layer_report(run, traced(run, layers))
        else:
            extra = {"paper-tables": paper_tables, "durable-campaign": durable_campaign,
                     "serve-mix": serve_mix}[args.workload](run)
            for key, value in extra.items():
                print(f"  {key}: {value}")
            metrics = e2e_metrics(run, args.workload)
    except SetupError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        signal.alarm(0)
        if run is not None:
            run.children.kill_all()
    for problem in run.problems[:10]:
        log(f"perfbench: check failed: {problem}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
