#!/usr/bin/env python3
"""End-to-end benchmark of confcase: a case file turned into a verdict, a
daemon answering query/edit and stream traffic, and the population Delphi.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds `confcase` and
the benchmark's own tools with dune, generates the workload's inputs from
the seed, measures, checks every output against a known answer, and prints
one JSON object as its last line of standard output.  With --trace 0 it
reports the end-to-end metrics, measured from outside the process; with
--trace 1 it reports the per-layer metrics of the traced run.  The exit
status is 0 only when every output was correct.  See perfbench/README.md.

--toy shrinks every input (the benchmark's own tests use it);
--corrupt-expected perturbs one known answer, so the run must fail.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(ROOT, ".bench_run")
BUILD = os.path.join(ROOT, "_build", "default")
CONFCASE = os.path.join(BUILD, "bin", "confcase.exe")
CBENCH = os.path.join(BUILD, "perfbench", "load", "cbench.exe")
CTRACE = os.path.join(BUILD, "perfbench", "trace", "ctrace.exe")

WORKLOADS = ("cli_case_1e6", "serve_query_hot", "serve_stream_bulk", "population_4e6")

# Reported by every workload with --trace 0; README.md says what each
# means on each workload.
END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "p50_us": "us",
    "p99_us": "us",
    "peak_rss_mb": "MB",
}

# Reported by every workload with --trace 1 (the traced run covers every
# layer whatever the workload).
PER_LAYER = {
    "read.s": "s",
    "case_format.parse_raw.s": "s",
    "case_format.parse_raw.alloc_mw": "MW",
    "case_format.parse.s": "s",
    "case_format.parse.alloc_mw": "MW",
    "node.validate.s": "s",
    "graph.of_node.s": "s",
    "graph.of_node.alloc_mw": "MW",
    "graph.propagate.s": "s",
    "case_rules.check.s": "s",
    "case_rules.check.alloc_mw": "MW",
    "audit.graph.s": "s",
    "audit.case.s": "s",
    "cli.propagate.unattributed_s": "s",
    "cli.check.unattributed_s": "s",
    "cli.audit.unattributed_s": "s",
    "engine.parse.us": "us",
    "engine.execute.evaluate_hit.us": "us",
    "engine.execute.evaluate_miss.us": "us",
    "engine.execute.edit.us": "us",
    "engine.execute.quantile.us": "us",
    "engine.memo.hit_ratio": "ratio",
    "engine.memo.entries": "count",
    "protocol.parse.us": "us",
    "protocol.parse.trajectory_ms": "ms",
    "protocol.print.trajectory_ms": "ms",
    "engine.execute.ingest.us": "us",
    "engine.execute.trajectory_ms": "ms",
    "stream.observe_demands.ns": "ns",
    "server.transport.us": "us",
    "population.run.1d_s": "s",
    "population.run.2d_s": "s",
    "parallel.speedup_2d": "x",
    "population.alloc_mw": "MW",
    "trace.overhead_s": "s",
}

SIZES = {
    "full": {
        "flags": [],
        "population": 4_000_000,
        "trace_population": 1_000_000,
        "engine_requests": 100_000,
        "small_setups": 9,
        "query_setups": 3,
    },
    "toy": {
        "flags": ["--toy"],
        "population": 20_000,
        "trace_population": 20_000,
        "engine_requests": 5_000,
        "small_setups": 3,
        "query_setups": 2,
    },
}

# The smallest valid case: what every CLI invocation pays before its input.
TINY_CASE = 'goal G0 "Tiny root" all\n  evidence E1 "Tiny evidence" 0.9\n'

DIAG = re.compile(r"^.*:(\d+):\d+: (?:error|warning|info)\[(\w+)\]", re.M)
POPULATION = re.compile(r"(\d+) assessors \((\d+) doubters, (\d+) believers\)")


class Failure(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"wrong output: {what}", file=sys.stderr)
        return ok

    def add(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]


def path(name):
    return os.path.join(RUN_DIR, name)


def build(trace):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "confcase.ml"))):
        raise Failure(f"no confcase source tree at {ROOT}")
    targets = ["./bin/confcase.exe", "./perfbench/load/cbench.exe"]
    if trace:
        targets.append("./perfbench/trace/ctrace.exe")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", "--display", "quiet"] + targets,
        cwd=ROOT, stdout=sys.stderr, timeout=850)
    if proc.returncode != 0:
        raise Failure("build failed")


def spawn_wait(argv, env=None):
    """Run argv to completion; spawn-to-exit seconds, exit code, peak RSS
    in MB and standard output."""
    out_path = path("stdout.txt")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ if env is None else env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        elapsed = time.perf_counter() - t0
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return elapsed, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, text


def tool(argv):
    """Run one of the benchmark's tools; its last stdout line is JSON."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        raise Failure(f"{os.path.basename(argv[0])} {argv[1]} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def quantile(values, p):
    """Linear interpolation between ranks, as statistics.quantiles(method="inclusive")."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    h = p * (len(values) - 1)
    lo = int(h)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (h - lo) * (values[hi] - values[lo])


def write_case(seed, size, corrupt):
    case = path("case.case")
    expected = tool([CBENCH, "write-case", "--seed", str(seed), "--out", case] + SIZES[size]["flags"])
    if corrupt:
        expected["root"] = "%.6f" % (float(expected["root"]) + 1e-6)
    return case, expected


def diags(text):
    return sorted((code, int(line)) for line, code in DIAG.findall(text))


def cli_commands(case, expected):
    """(name, argv, verify) for the three verdict commands on one file."""
    nodes = expected["nodes"]

    def propagate_ok(code, out):
        return (code == 0
                and f"Graph: {nodes} nodes, {nodes - 1} edges" in out
                and f"Root confidence: {expected['root']}\n" in out
                and f"Under any dependence: [{expected['lo']}, {expected['hi']}]" in out)

    def diags_ok(key):
        want = sorted((c, l) for c, l in expected[key])
        return lambda code, out: code == 0 and diags(out) == want

    return [
        ("propagate", [CONFCASE, "propagate", case], propagate_ok),
        ("check", [CONFCASE, "check", case], diags_ok("check")),
        ("audit", [CONFCASE, "audit", case, "--target", "0.9"], diags_ok("audit")),
    ]


def small_setups(tally, argv, ok, count, env=None):
    times = []
    for _ in range(count):
        t, code, _, out = spawn_wait(argv, env)
        tally.check(code == 0 and ok(out), " ".join(argv[1:3]))
        times.append(t)
    return times


# --- workloads (untraced) -------------------------------------------------------------


def cli_case(seed, seconds, size, corrupt, tally):
    case, expected = write_case(seed, size, corrupt)
    tiny = path("tiny.case")
    with open(tiny, "w") as f:
        f.write(TINY_CASE)
    setups = small_setups(tally, [CONFCASE, "propagate", tiny],
                          lambda out: "Root confidence: 0.900000" in out,
                          SIZES[size]["small_setups"])
    commands = cli_commands(case, expected)
    times = {name: [] for name, _, _ in commands}
    rss = []
    rounds = []
    start = time.perf_counter()
    while True:
        total = 0.0
        for name, argv, verify in commands:
            t, code, peak, out = spawn_wait(argv)
            tally.check(verify(code, out), f"confcase {name}: exit {code}\n{out[-2000:]}")
            times[name].append(t)
            rss.append(peak)
            total += t
        rounds.append(total)
        if time.perf_counter() - start >= seconds:
            break
    ops = [t for ts in times.values() for t in ts]
    metrics = {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(rounds),
        "p50_us": quantile(ops, 0.5) * 1e6,
        "p99_us": quantile(ops, 0.99) * 1e6,
        "peak_rss_mb": max(rss),
    }
    detail = {f"{name}_s": statistics.median(ts) for name, ts in times.items()}
    detail["rounds"] = len(rounds)
    return metrics, detail


def serve_query(seed, seconds, size, corrupt, tally):
    r = tool([CBENCH, "query", "--confcase", CONFCASE, "--case", path("case.case"),
              "--belief", path("case.belief"), "--seed", str(seed), "--seconds", str(seconds),
              "--setups", str(SIZES[size]["query_setups"])]
             + SIZES[size]["flags"] + (["--corrupt"] if corrupt else []))
    tally.add(r)
    return serve_metrics(r), {k: r[k] for k in (
        "setup_s", "requests", "blocks", "req_per_s", "eval_p50_us", "eval_p99_us",
        "edit_p50_us", "edit_p99_us", "quantile_p50_us")}


def serve_stream(seed, seconds, size, corrupt, tally):
    r = tool([CBENCH, "stream", "--confcase", CONFCASE, "--seed", str(seed),
              "--seconds", str(seconds), "--setups", str(SIZES[size]["small_setups"])]
             + SIZES[size]["flags"] + (["--corrupt"] if corrupt else []))
    tally.add(r)
    return serve_metrics(r), {k: r[k] for k in (
        "setup_s", "requests", "blocks", "req_per_s", "ingest_p50_us", "ingest_p99_us",
        "trajectory_s")}


def serve_metrics(r):
    return {
        "setup_s": statistics.median(r["setup_s"]),
        "work_s": r["work_s"],
        "p50_us": r["p50_us"],
        "p99_us": r["p99_us"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def population_ok(n, out, corrupt):
    m = POPULATION.search(out)
    doubters = n // 4 + (1 if corrupt else 0)
    return bool(m) and [int(x) for x in m.groups()] == [n, doubters, n - n // 4]


def population(seed, seconds, size, corrupt, tally):
    env = dict(os.environ, CONFCASE_DOMAINS="2")
    setups = small_setups(tally, [CONFCASE, "stream", "--population", "1000", "--seed", str(seed)],
                          lambda out: population_ok(1000, out, False),
                          SIZES[size]["small_setups"], env)
    n = SIZES[size]["population"]
    runs, rss = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        t, code, peak, out = spawn_wait(
            [CONFCASE, "stream", "--population", str(n), "--seed", str(seed)], env)
        tally.check(code == 0 and population_ok(n, out, corrupt), f"population run: {out[-500:]}")
        runs.append(t)
        rss.append(peak)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(runs),
        "p50_us": quantile(runs, 0.5) * 1e6,
        "p99_us": quantile(runs, 0.99) * 1e6,
        "peak_rss_mb": max(rss),
    }
    return metrics, {"population_s": statistics.median(runs), "runs": len(runs)}


RUNNERS = {
    "cli_case_1e6": cli_case,
    "serve_query_hot": serve_query,
    "serve_stream_bulk": serve_stream,
    "population_4e6": population,
}


# --- traced run ------------------------------------------------------------------------


def traced(seed, size, corrupt, tally):
    """Every layer, whatever the workload: the three CLI paths replayed
    in-process next to the real (untraced) commands, the engine under the
    query mix, the stream path, and the population run at 1 and 2
    domains."""
    case, expected = write_case(seed, size, corrupt)
    os.makedirs(path("spans"), exist_ok=True)
    m = {}
    spans = {}
    overhead = 0.0
    for name, argv, verify in cli_commands(case, expected):
        wall, code, _, out = spawn_wait(argv)
        tally.check(verify(code, out), f"confcase {name}")
        t, code, _, out = spawn_wait([CTRACE, "cmd", name, case, "--spans", path(f"spans/{name}.tsv")])
        if code != 0:
            raise Failure(f"ctrace cmd {name} exited {code}")
        r = json.loads(out.strip().splitlines()[-1])
        if name == "propagate":
            tally.check([r["root"], r["lo"], r["hi"], r["nodes"]]
                        == [expected["root"], expected["lo"], expected["hi"], expected["nodes"]],
                        "traced propagate")
        else:
            tally.check(sorted(map(tuple, r["diags"])) == sorted(map(tuple, expected[name])),
                        f"traced {name}")
        layers = [s for s in r["spans"] if s["parent"] == f"cli.{name}"]
        probes = [s for s in r["spans"] if s["parent"] is None and s["name"] != f"cli.{name}"]
        m[f"cli.{name}.unattributed_s"] = wall - sum(s["self_s"] for s in layers)
        overhead += (t - sum(s["dur_s"] for s in probes)) - wall
        for s in layers + probes:
            spans.setdefault(s["name"], s)
            if s["name"] == "graph.propagate":
                spans.setdefault("graph.propagate*", []).append(s["self_s"])
    for layer in ("read", "case_format.parse_raw", "case_format.parse", "node.validate",
                  "graph.of_node", "case_rules.check", "audit.graph", "audit.case"):
        m[f"{layer}.s"] = spans[layer]["self_s"]
    for layer in ("case_format.parse_raw", "case_format.parse", "graph.of_node", "case_rules.check"):
        m[f"{layer}.alloc_mw"] = spans[layer]["alloc_mw"]
    m["graph.propagate.s"] = statistics.median(spans["graph.propagate*"])
    m["trace.overhead_s"] = overhead

    flags = SIZES[size]["flags"]
    e = tool([CTRACE, "engine", "--case", case, "--belief", path("case.belief"), "--seed", str(seed),
              "--requests", str(SIZES[size]["engine_requests"]), "--spans", path("spans/engine.tsv")]
             + flags)
    tally.add(e)
    m["engine.parse.us"] = e["parse_us"]
    for op in ("evaluate_hit", "evaluate_miss", "edit", "quantile"):
        m[f"engine.execute.{op}.us"] = e[f"{op}_us"]
    m["engine.memo.hit_ratio"] = e["hit_ratio"]
    m["engine.memo.entries"] = e["entries"]

    s = tool([CTRACE, "stream", "--confcase", CONFCASE, "--seed", str(seed),
              "--spans", path("spans/stream.tsv")] + flags)
    tally.add(s)
    m["protocol.parse.us"] = s["protocol_parse_us"]
    m["protocol.parse.trajectory_ms"] = s["parse_trajectory_ms"]
    m["protocol.print.trajectory_ms"] = s["print_trajectory_ms"]
    m["engine.execute.ingest.us"] = s["execute_ingest_us"]
    m["engine.execute.trajectory_ms"] = s["execute_trajectory_ms"]
    m["stream.observe_demands.ns"] = s["observe_demands_ns"]
    m["server.transport.us"] = s["transport_us"]

    p = tool([CTRACE, "population", "--n", str(SIZES[size]["trace_population"]), "--seed", str(seed),
              "--spans", path("spans/population.tsv")])
    tally.add(p)
    m["population.run.1d_s"] = p["run_1d_s"]
    m["population.run.2d_s"] = p["run_2d_s"]
    m["parallel.speedup_2d"] = p["run_1d_s"] / p["run_2d_s"]
    m["population.alloc_mw"] = p["alloc_mw"]
    return m


# --- entry point ---------------------------------------------------------------------------


def on_alarm(_signum, _frame):
    raise Failure("timed out")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--corrupt-expected", action="store_true")
    args = ap.parse_args()
    size = "toy" if args.toy else "full"
    try:
        build(args.trace == 1)
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        os.makedirs(RUN_DIR)
        # Past the build, a run must end well inside the 180 s limit.
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(175)
        tally = Tally()
        if args.trace:
            values = traced(args.seed, size, args.corrupt_expected, tally)
            units = PER_LAYER
        else:
            values, detail = RUNNERS[args.workload](
                args.seed, args.seconds, size, args.corrupt_expected, tally)
            units = END_TO_END
            print("# detail " + json.dumps(detail, sort_keys=True))
        signal.alarm(0)
    except (Failure, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for big in ("case.case", "stdout.txt"):
            try:
                os.remove(path(big))
            except OSError:
                pass
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
