#!/usr/bin/env python3
"""The xic benchmark.

    python3 xicbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds xicheck, xicbatch, xicd and
the benchmark's own tools from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's inputs from the seed, drives the
built binaries as child processes for S seconds, checks every verdict
against the generator's ground truth, and prints a human-readable table
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the traced run (xicbench_trace) calls each layer's
functions directly and the metrics are the per-layer ones. METRICS.md
describes every workload and metric.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
import gen  # noqa: E402

WORKLOADS = ("catalog_bulk", "wide_batch", "xicd_mix")
TARGETS = ("xicheck", "xicbatch", "xicd", "xicbench_load", "xicbench_trace",
           "xicbench_spawn")
SETUP_REPEATS = 31
XICD_SETUP_REPEATS = 11
XICD_THREADS = 2
XICD_SCHEMAS = ("schema.xml", "session.xml")
XICD_WARMUP_US = 500_000  # requests due earlier are checked, not timed


def cpus():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Build.

def build(root, build_dir):
    """Configures and builds the programs; returns {target: path}."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        raise RuntimeError(f"{root} holds no source tree to build")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", str(cpus())])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise RuntimeError(f"build failed: {' '.join(step)}\n{tail}")
    paths = {t: os.path.join(build_dir, "xic", "examples", t)
             for t in TARGETS[:3]}
    paths.update({t: os.path.join(build_dir, t) for t in TARGETS[3:]})
    SPAWN["path"] = paths["xicbench_spawn"]
    return paths


# ---------------------------------------------------------------------------
# Child processes run under xicbench_spawn, which reports each one's exit
# code, wall time, CPU time and its own peak RSS (see spawn.cc).

SPAWN = {}  # {"path": xicbench_spawn}, set by build()


def spawn(argv, out_path, env):
    """Starts argv with stdout+stderr into out_path; returns a handle."""
    cost = out_path + ".cost"
    actions = [(os.POSIX_SPAWN_OPEN, 0, "/dev/null", os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, cost,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    pid = os.posix_spawn(SPAWN["path"], [SPAWN["path"], out_path, *argv],
                         env, file_actions=actions)
    return {"pid": pid, "cost": cost, "out": out_path}


def child_pid(handle):
    """The program's own pid (the launcher prints it first)."""
    while True:
        with open(handle["cost"]) as f:
            line = f.readline()
        if line.endswith("\n"):
            return int(line)
        time.sleep(0.0005)


def reap(handle, waited=False):
    """Waits for the program; returns a sample dict."""
    if not waited:
        os.waitpid(handle["pid"], 0)
    with open(handle["cost"]) as f:
        lines = f.read().split("\n")
    code, wall, cpu, rss_kb, steal = lines[1].split()
    with open(handle["out"], errors="replace") as f:
        output = f.read()
    return {"code": int(code), "wall": float(wall), "cpu": float(cpu),
            "rss": int(rss_kb) / 1024, "steal": float(steal),
            "output": output}


def run_child(argv, out_path, env):
    """Runs one program to completion. Returns a sample dict."""
    return reap(spawn(argv, out_path, env))


def wall_less_steal(sample):
    """A child's wall seconds less the time the host's hypervisor stole
    from this machine's CPUs meanwhile (per CPU): the wall time it would
    have taken on CPUs of its own. Stolen time varies by minutes on a
    shared host; wall time less steal still sees a thread pool that
    stops overlapping its work, which CPU time cannot."""
    return sample["wall"] - sample["steal"]


# ---------------------------------------------------------------------------
# Statistics.

def median(values):
    return statistics.median(values) if values else 0.0


def high_percentile(values):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond
    it, as (label, value); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (f"p{p:g}", ordered[min(n - 1, int(n * p / 100))])
    return best or ("max", ordered[-1] if ordered else 0.0)


def describe(name, unit, values):
    """One table line: median, high percentile, sample count."""
    label, hi = high_percentile(values)
    return (f"  {name:<28} {median(values):12.4f} {unit:<6} "
            f"{label} {hi:.4f}  n={len(values)}")


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok


# ---------------------------------------------------------------------------
# Verdict checks against the generator's ground truth.

def verdict(truth):
    """(verdict, structure violations, constraint violations)."""
    return truth["verdict"], truth["structure"], truth["constraints"]


def xicheck_verdict(output, name):
    """The verdict tuple of xicheck's output; None when the summary lines
    are missing (a parse error prints none)."""
    structure = constraints = None
    listing = False  # inside the structure violation lines
    for line in output.splitlines():
        if listing and line.startswith("vertex "):
            structure += 1  # one "vertex N: ..." line per violation
        elif line == f"{name}: structure valid":
            structure = 0
        elif line == f"{name}: structure INVALID":
            structure, listing = 0, True
        elif line.startswith(f"{name}: "):
            listing = False
            if line.endswith(" violation(s)"):
                constraints = int(line.split(", ")[-1].split()[0])
    if structure is None or constraints is None:
        return None
    return verdict(gen.expect(structure, constraints))


def check_xicheck(sample, name, expect, tally):
    want_code = 0 if expect["verdict"] == "ok" else 1
    got = xicheck_verdict(sample["output"], name)
    return tally.check(
        sample["code"] == want_code and got == verdict(expect),
        f"{name}: exit {sample['code']} verdict {got}, expected "
        f"exit {want_code} verdict {verdict(expect)}")


def report_verdict(document):
    """The verdict tuple of one document of a batch report."""
    return (document.get("verdict"),
            len(document.get("structure_violations", [])),
            len(document.get("constraint_violations", [])))


def check_batch(sample, report_path, names, truth, tally):
    """Checks an xicbatch run document by document."""
    want_code = 0 if all(t["verdict"] == "ok" for t in truth.values()) else 1
    tally.check(sample["code"] == want_code,
                f"xicbatch exit {sample['code']}, expected {want_code}")
    try:
        with open(report_path) as f:
            documents = json.load(f)["documents"]
    except (OSError, ValueError, KeyError):
        documents = []
    by_name = {d["name"]: d for d in documents}
    for path, key in names:
        d = by_name.get(path)
        expect = truth[key]
        got = d and report_verdict(d)
        tally.check(got == verdict(expect),
                    f"{key}: got {got}, expected {verdict(expect)}")


def check_response(code, body, expect, tally):
    """Checks one xicd reply against its expectation."""
    verb = expect["verb"]
    ok = code == "ok"
    if ok and verb in ("validate", "validate.stream"):
        try:
            documents = json.loads(body)["documents"]
            ok = (len(documents) == 1 and
                  report_verdict(documents[0]) == verdict(expect))
        except (ValueError, KeyError):
            ok = False
    elif ok and verb == "session.apply":
        ok = body.splitlines() == expect["body"]
    elif ok and verb == "imply":
        ok = body.startswith(f"implied {str(expect['implied']).lower()} ")
    return tally.check(ok, f"{verb}: code {code} body {body[:120]!r}")


# ---------------------------------------------------------------------------
# Workloads (tracing off).

def timed_rounds(seconds, modes, run_one):
    """Runs every mode once per round until `seconds` have elapsed
    (at least one round); returns {mode: [samples]}."""
    samples = {m: [] for m in modes}
    start = time.perf_counter()
    while not samples[modes[0]] or time.perf_counter() - start < seconds:
        for mode in modes:
            samples[mode].append(run_one(mode))
    return samples


def setup_times(argv, out_path, env, check, repeats=SETUP_REPEATS):
    """CPU seconds of each run of a program on a schema-only input."""
    cpu = []
    for _ in range(repeats):
        sample = run_child(argv, out_path, env)
        check(sample)
        cpu.append(sample["cpu"])
    return cpu


CATALOG_MODES = {"dom": [], "stream": ["--stream"],
                 "spill": ["--stream", "--spill-mb", "1"]}


def run_catalog(bins, work, truth, seconds, env, tally):
    doc = os.path.join(work, "catalog.xml")
    schema = os.path.join(work, "schema.xml")
    out = os.path.join(work, "out.txt")
    empty = gen.expect(0, 0)
    setup = setup_times([bins["xicheck"], schema], out, env,
                        lambda s: check_xicheck(s, schema, empty, tally))

    def run_one(mode):
        sample = run_child([bins["xicheck"], *CATALOG_MODES[mode], doc],
                           out, env)
        check_xicheck(sample, doc, truth["docs"]["catalog.xml"], tally)
        return sample

    samples = timed_rounds(seconds, list(CATALOG_MODES), run_one)
    size_mb = os.path.getsize(doc) / 1e6
    lines = [describe("setup_s", "s", setup)]
    for mode in CATALOG_MODES:
        walls = [wall_less_steal(s) for s in samples[mode]]
        lines.append(describe(f"{mode}.mb_s", "MB/s",
                              [size_mb / w for w in walls]))
        lines.append(describe(f"{mode}.peak_rss_mb", "MiB",
                              [s["rss"] for s in samples[mode]]))
    every = [s for mode in CATALOG_MODES for s in samples[mode]]
    metrics = e2e(setup, samples["dom"], samples["stream"],
                  sum(s["cpu"] for s in every) / len(every))
    return metrics, lines


def run_batch(bins, work, truth, seconds, env, tally):
    schema = os.path.join(work, "schema.xml")
    names = [(os.path.join(work, key), key) for key in sorted(truth["docs"])
             if key != "schema.xml"]
    out = os.path.join(work, "out.txt")
    report = os.path.join(work, "report.json")
    threads = str(cpus())
    empty = {"schema.xml": gen.expect(0, 0)}
    setup = setup_times(
        [bins["xicbatch"], "--threads", threads, "--json", report, schema],
        out, env, lambda s: check_batch(s, report, [(schema, "schema.xml")],
                                        empty, tally))
    files = [schema] + [path for path, _ in names]
    modes = {"dom": [], "stream": ["--stream"]}

    def run_one(mode):
        sample = run_child([bins["xicbatch"], "--threads", threads,
                            *modes[mode], "--json", report, *files], out, env)
        check_batch(sample, report, [(schema, "schema.xml")] + names,
                    truth["docs"], tally)
        return sample

    samples = timed_rounds(seconds, list(modes), run_one)
    ndocs = len(files)
    lines = [describe("setup_s", "s", setup)]
    for mode, metric in (("dom", "batch.docs_s"),
                         ("stream", "batch_stream.docs_s")):
        lines.append(describe(metric, "docs/s",
                              [ndocs / wall_less_steal(s)
                               for s in samples[mode]]))
        lines.append(describe(f"{mode}.peak_rss_mb", "MiB",
                              [s["rss"] for s in samples[mode]]))
    every = samples["dom"] + samples["stream"]
    metrics = e2e(setup, samples["dom"], samples["stream"],
                  sum(s["cpu"] for s in every) / (len(every) * ndocs))
    return metrics, lines


def e2e(setup, dom, stream, cpu_s_per_doc):
    """The end-to-end metrics of a CLI workload: run times are wall time
    less steal, set-up and per-document cost are CPU time (user+sys)."""
    return {
        "setup_s": (median(setup), "s"),
        "dom.ms": (median([wall_less_steal(s) for s in dom]) * 1e3, "ms"),
        "stream.ms": (median([wall_less_steal(s) for s in stream]) * 1e3,
                      "ms"),
        "dom.peak_rss_mb": (median([s["rss"] for s in dom]), "MiB"),
        "stream.peak_rss_mb": (median([s["rss"] for s in stream]), "MiB"),
        "cpu_us_per_doc": (cpu_s_per_doc * 1e6, "us"),
    }


# xicd_mix -------------------------------------------------------------------

def rpc(port, verb, body):
    """One request on a fresh connection; returns (code, headers, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        data = body.encode()
        s.sendall(f"xic/1 {verb} {len(data)}\n".encode() + data)
        reply = b""
        while b"\n" not in reply:
            chunk = s.recv(65536)
            if not chunk:
                raise RuntimeError(f"xicd closed the connection on {verb}")
            reply += chunk
        head, rest = reply.split(b"\n", 1)
        fields = head.decode().split(" ")
        length = int(fields[2])
        while len(rest) < length:
            chunk = s.recv(65536)
            if not chunk:
                break
            rest += chunk
        headers = dict(f.split("=", 1) for f in fields[3:] if "=" in f)
        return fields[1], headers, rest[:length].decode()


def start_daemon(bins, work, env, schemas):
    """Starts xicd and puts every schema. Returns (handle, port, hashes,
    daemon CPU seconds from exec to the last schema.put reply)."""
    out = os.path.join(work, "xicd.out")
    if os.path.exists(out):
        os.remove(out)  # never read an earlier daemon's port
    start = time.perf_counter()
    handle = spawn([bins["xicd"], "--port", "0", "--threads",
                    str(XICD_THREADS)], out, env)
    try:
        port = None
        while port is None:
            if time.perf_counter() - start > 30:
                raise RuntimeError("xicd did not start listening")
            if os.path.exists(out):
                with open(out) as f:
                    for line in f:
                        if line.startswith("xicd listening on "):
                            port = int(line.rsplit(":", 1)[1])
            if port is None:
                time.sleep(0.0005)
        hashes = []
        for text in schemas:
            code, headers, _ = rpc(port, "schema.put", text)
            if code != "ok" or "schema" not in headers:
                raise RuntimeError(f"schema.put answered {code}")
            hashes.append(headers["schema"])
    except (RuntimeError, OSError):
        # SIGKILL cannot be forwarded by the launcher: kill the daemon.
        os.kill(child_pid(handle), signal.SIGKILL)
        os.waitpid(handle["pid"], 0)
        raise
    # Nothing has exited yet, so the live threads hold all setup CPU.
    return handle, port, hashes, live_threads_cpu(child_pid(handle))


def stop_daemon(handle, timeout=30):
    """SIGTERM (xicd drains, then exits 0); SIGKILL if it hangs."""
    os.kill(handle["pid"], signal.SIGTERM)
    deadline = time.perf_counter() + timeout
    while os.waitpid(handle["pid"], os.WNOHANG) == (0, 0):
        if time.perf_counter() > deadline:
            os.kill(child_pid(handle), signal.SIGKILL)
            os.waitpid(handle["pid"], 0)
            break
        time.sleep(0.005)
    return reap(handle, waited=True)


def daemon_cpu(pid):
    """CPU seconds of the daemon, exited threads included (clock ticks)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def live_threads_cpu(pid):
    """CPU seconds of the daemon's live threads, to the nanosecond."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
            total += int(f.read().split()[0])
    return total / 1e9


def read_load_results(path):
    results = []
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos < len(data):
        eol = data.index(b"\n", pos)
        index, latency, late, code, length = data[pos:eol].decode().split()
        body = data[eol + 1:eol + 1 + int(length)].decode(errors="replace")
        pos = eol + 1 + int(length)
        results.append((int(latency), int(late), code, body))
    return results


def run_xicd(bins, work, truth, seconds, env, tally):
    schemas = []
    for name in XICD_SCHEMAS:
        with open(os.path.join(work, name)) as f:
            schemas.append(f.read())
    setup = []
    for attempt in range(XICD_SETUP_REPEATS):
        daemon, port, hashes, cpu_to_ready = start_daemon(
            bins, work, env, schemas)
        setup.append(cpu_to_ready)
        if attempt + 1 < XICD_SETUP_REPEATS:
            tally.check(stop_daemon(daemon)["code"] == 0,
                        "xicd exit code on SIGTERM")
    try:
        pid = child_pid(daemon)
        cpu_before = daemon_cpu(pid)
        load_out = os.path.join(work, "load.out")
        load = run_child([bins["xicbench_load"], str(port), ",".join(hashes),
                          os.path.join(work, "requests.bin"),
                          os.path.join(work, "requests.schedule"), load_out],
                         os.path.join(work, "load.log"), env)
        cpu = daemon_cpu(pid) - cpu_before
    finally:
        stopped = stop_daemon(daemon)
    rss = stopped["rss"]
    tally.check(stopped["code"] == 0,
                f"xicd exited {stopped['code']} on SIGTERM")
    results = read_load_results(load_out)
    tally.check(load["code"] == 0 and len(results) == len(truth["schedule"]),
                f"load generator exit {load['code']}: {load['output'][-300:]}")

    latency = {}
    late = []
    everything = []
    for (due, _, frame), (lat, lateness, code, body) in zip(
            truth["schedule"], results):
        expect = truth["truth"][frame]
        check_response(code, body, expect, tally)
        late.append(lateness / 1e3)
        if due < XICD_WARMUP_US or lat < 0:
            continue
        verb = expect["verb"]
        latency.setdefault(verb, []).append(lat / 1e3)
        everything.append(lat / 1e3)
    validate = latency.get("validate", [])
    stream = latency.get("validate.stream", [])
    lines = [describe("setup_s", "s", setup),
             describe("xicd.latency_ms (all)", "ms", everything)]
    for verb in sorted(latency):
        lines.append(describe(f"  {verb}", "ms", latency[verb]))
    lines.append(f"  {'xicd.cpu_us_per_req':<28} "
                 f"{cpu * 1e6 / max(len(results), 1):12.4f} us")
    lines.append(f"  {'xicd.peak_rss_mb':<28} {rss:12.4f} MiB")
    lines.append(f"  {'xicd.gen_late_ms (worst)':<28} "
                 f"{max(late, default=0):12.4f} ms  n={len(late)}")
    metrics = {
        "setup_s": (median(setup), "s"),
        "dom.ms": (median(validate), "ms"),
        "stream.ms": (median(stream), "ms"),
        "dom.peak_rss_mb": (rss, "MiB"),
        "stream.peak_rss_mb": (rss, "MiB"),
        "cpu_us_per_doc": (cpu * 1e6 / max(len(results), 1), "us"),
    }
    return metrics, lines


# ---------------------------------------------------------------------------
# The traced run.

PER_LAYER_UNITS = {
    "xml.parse_ns_per_byte": "ns/B", "xml.tokenize_ns_per_byte": "ns/B",
    "xml.events": "count", "xml.dtd_parse_us": "us",
    "regex.compile_us": "us", "regex.match_ns_per_symbol": "ns",
    "regex.wide_symbol_share": "ratio",
    "model.structure_ns_per_vertex": "ns", "model.vertices": "count",
    "model.tree_mb": "MiB",
    "constraints.check_ns_per_vertex": "ns", "constraints.wellformed_us": "us",
    "constraints.render_us": "us", "constraints.violations": "count",
    "constraints.incremental_ns_per_op": "ns",
    "engine.stream_extract_ns_per_byte": "ns/B",
    "engine.extent_records": "count", "engine.spilled_mb": "MiB",
    "engine.spill_runs": "count",
    "engine.extent_log.append_ns_per_record": "ns",
    "engine.extent_log.merge_ns_per_record": "ns",
    "engine.extent_log.append_ns_per_record.unbounded": "ns",
    "engine.extent_log.merge_ns_per_record.unbounded": "ns",
    "engine.batch.docs_s.t1": "docs/s", "engine.batch.docs_s.tN": "docs/s",
    "engine.pool.scaling": "ratio",
    "serve.dispatch_us.validate": "us",
    "serve.dispatch_us.validate.stream": "us",
    "serve.dispatch_us.session.apply": "us",
    "serve.dispatch_us.imply": "us",
    "serve.socket_overhead_us": "us",
    "serve.plan_cache.hit_ratio": "ratio",
    "serve.imply_memo.hit_ratio": "ratio",
    "obs.trace_overhead": "ratio",
}

# Bases printed beside the ratios they divide.
RATIO_BASES = {
    "engine.pool.scaling": ("engine.batch.docs_s.tN", "engine.batch.docs_s.t1",
                            "engine.pool.threads"),
    "serve.plan_cache.hit_ratio": ("serve.plan_cache.lookups",),
    "serve.imply_memo.hit_ratio": ("serve.imply_memo.lookups",),
    "regex.wide_symbol_share": ("regex.symbols",),
    "obs.trace_overhead": ("obs.passes",),
}


def run_traced(bins, work, workload, truth, seconds, env, tally, spans):
    schemas = [os.path.join(work, "schema.xml")]
    if workload == "xicd_mix":
        requests = "requests"
        expected = truth["pool_violations"]
        schemas = [os.path.join(work, name) for name in XICD_SCHEMAS]
    else:
        requests = "trace"
        expected = sum(t["structure"] + t["constraints"]
                       for name, t in truth["docs"].items()
                       if name != "schema.xml")
    sample = run_child(
        [bins["xicbench_trace"], ",".join(schemas),
         os.path.join(work, requests + ".bin"),
         os.path.join(work, requests + ".schedule"), str(seconds), spans],
        os.path.join(work, "trace.out"), env)
    try:
        raw = json.loads(sample["output"].strip().splitlines()[-1])
    except (ValueError, IndexError):
        raw = {}
    tally.check(sample["code"] == 0 and raw,
                f"xicbench_trace exit {sample['code']}: "
                f"{sample['output'][-300:]}")
    tally.check(raw.get("constraints.violations") == expected,
                f"constraints.violations {raw.get('constraints.violations')}"
                f", ground truth {expected}")
    metrics = {name: (raw.get(name, 0.0), unit)
               for name, unit in PER_LAYER_UNITS.items()}
    lines = []
    for name, (value, unit) in metrics.items():
        bases = "".join(f"  {b}={raw.get(b, 0):.6g}"
                        for b in RATIO_BASES.get(name, ()))
        lines.append(f"  {name:<50} {value:14.4f} {unit}{bases}")
    return metrics, lines


# ---------------------------------------------------------------------------

def generate(workload, seed, work, seconds, trace):
    if workload == "catalog_bulk":
        return gen.catalog_bulk(seed, work, trace)
    if workload == "wide_batch":
        return gen.wide_batch(seed, work, trace)
    return gen.xicd_mix(seed, work, seconds)


RUNNERS = {"catalog_bulk": run_catalog, "wide_batch": run_batch,
           "xicd_mix": run_xicd}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(BENCH)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    try:
        bins = build(root, build_dir)
    except (RuntimeError, OSError) as e:
        print(f"xicbench: {e}", file=sys.stderr)
        return 1

    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tmp = os.path.join(build_dir, "tmp")  # spill files stay in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    tally = Tally()
    try:
        truth = generate(args.workload, args.seed, work, args.seconds,
                         args.trace)
        if args.trace:
            spans = os.path.join(
                build_dir, f"spans-{args.workload}-{args.seed}.json")
            metrics, lines = run_traced(bins, work, args.workload, truth,
                                        args.seconds, env, tally, spans)
            lines.append(f"  spans written to {spans}")
        else:
            metrics, lines = RUNNERS[args.workload](bins, work, truth,
                                                    args.seconds, env, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"xicbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} cpus={cpus()}")
    print("\n".join(lines))
    print("  -- the metrics BENCHMARK.json lists:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value:14.4f} {unit}")
    fail_ratio = tally.failed / max(tally.attempted, 1)
    print(f"  {'fail_ratio':<28} {fail_ratio:12.4f} ratio  "
          f"({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
