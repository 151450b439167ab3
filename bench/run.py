"""Benchmark for decomap: end-to-end verdict metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {decompose,sk-sample,cli-requests} \\
        --seed N --seconds S --trace {0,1}

Load is one process, one thread, closed loop: each verdict call starts when
the previous one has returned, over whole passes of the workload's inputs
until S seconds have gone.  BLAS threads are pinned to 1 through this
process's own environment (inherited by the fresh interpreters it starts);
no machine setting is touched.

--trace 0 prints the end-to-end metrics, measured untraced.  A call's
latency is its median over the passes, each scaled by the yardstick
(yardstick.py) to cancel the speed drift of a shared machine; the same
scaling applies to the fresh-interpreter times (setup_s, cold_request_ms).
--trace 1 runs the same untraced passes, then one traced pass, and prints
the per-layer metrics (raw seconds); its spans are written to
.bench_out/spans-<workload>.npz.  Every verdict is checked against the
answer its generator fixed.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it, starting
with '#', are for people and include wrong_frac = failed / attempted.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from yardstick import EVERY_S, Yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("decompose", "sk-sample", "cli-requests")
SETUP_PROBES = 5            # fresh interpreters timed for setup_s
IMPORT_PROBES = 3           # fresh interpreters timed for cli.import_s
# inputs of the library workloads timed in fresh interpreters for
# cold_request_ms: calls of even cost, so the median over them is steady
# (decompose: the M_2 face maps; sk-sample: the k = 1 calls)
COLD_INPUTS = {"decompose": range(1, 18, 2), "sk-sample": range(0, 27, 3)}
COLD_REPEATS = 3            # runs of each cold request; the fastest counts
TAIL_BEYOND = 10            # samples a pass must leave beyond the tail percentile
PROBE_TIMEOUT_S = 120

perf = time.perf_counter


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_program():
    """Import decomap from this checkout's sources, never from elsewhere."""
    if not (SRC / "decomap" / "__init__.py").is_file():
        sys.exit(f"bench: no decomap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import decomap
    if Path(decomap.__file__).resolve().parent != SRC / "decomap":
        sys.exit(f"bench: imported decomap from {decomap.__file__}, not {SRC}")


# -- fresh-interpreter probes ------------------------------------------------------

def probe_main(args):
    """Body of a fresh interpreter started by the parent run."""
    if args.probe == "import":
        t0 = perf()
        load_program()
        import decomap.cli  # noqa: F401
        print(json.dumps({"import_s": perf() - t0}), flush=True)
        return
    load_program()
    import workloads
    if args.probe == "setup":
        tmp = Path(args.tmp)
        workloads.build(args.workload, args.seed, tmp)
        print("ready", flush=True)
        shutil.rmtree(tmp, ignore_errors=True)
        return
    call = workloads.cold_call(args.workload, args.seed, args.index)
    right, _ = call.check(call.run())
    print(json.dumps({"right": right}), flush=True)


def spawn(argv, ready_line=False):
    """Run a fresh interpreter; return (seconds, stdout, exit code).

    With ready_line the clock stops at the child's first output line.
    """
    t0 = perf()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True)
    try:
        first = proc.stdout.readline() if ready_line else ""
        t_ready = perf() - t0
        rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = t_ready if ready_line else perf() - t0
    return elapsed, first + rest, proc.returncode


def probe_argv(kind, workload, seed, **extra):
    argv = [sys.executable, str(HERE / "run.py"), "--probe", kind, "--workload", workload,
            "--seed", str(seed)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    return argv


def probe(kind, workload, seed, **extra):
    """A set-up or import probe; these must succeed for the run to mean anything."""
    elapsed, out, code = spawn(probe_argv(kind, workload, seed, **extra),
                               ready_line=kind == "setup")
    if code != 0:
        raise RuntimeError(f"{kind} probe exited with {code}")
    return elapsed, out


def setup_times(workload, seed, tmp, yardstick):
    """Fresh interpreter: import decomap and build the inputs, to the first call.

    One untimed probe first writes the bytecode caches a user would have.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        before = yardstick.measure()
        elapsed, out = probe("setup", workload, seed, tmp=tmp / f"setup{i}")
        times.append(yardstick.scale(elapsed, before, yardstick.measure()))
        if out.splitlines()[0] != "ready":
            raise RuntimeError(f"setup probe printed {out!r}")
    return times[1:]


def import_times(workload, seed):
    return [json.loads(probe("import", workload, seed)[1])["import_s"]
            for _ in range(IMPORT_PROBES)]


def cold_requests(workload, seed, cold, yardstick):
    """Fresh-interpreter wall time (s) and rightness of single requests.

    cli-requests: `python -m decomap.cli ...`, one request per subcommand
    but transfer-check, whose 1 s solve would only lengthen the run.  The
    library workloads have no CLI subcommand of their shape, so a fresh
    interpreter builds one input and makes one library call (COLD_INPUTS).
    Each request runs COLD_REPEATS times and keeps its fastest time.
    """
    import workloads
    if cold is None:
        commands = [(probe_argv("cold", workload, seed, index=i), None)
                    for i in COLD_INPUTS[workload]]
    else:
        commands = [([sys.executable, "-m", "decomap.cli", *req.argv], req)
                    for req in cold if req.command != "transfer-check"]
    out = []
    for argv, req in commands:
        times, right = [], True
        for _ in range(COLD_REPEATS):
            before = yardstick.measure()
            elapsed, text, code = spawn(argv)
            times.append(yardstick.scale(elapsed, before, yardstick.measure()))
            right = right and cold_right(text, code, req)
        out.append((min(times), right))
    return out


def cold_right(text, code, req):
    import workloads
    if req is None:
        return code == 0 and text.strip() == json.dumps({"right": True})
    try:
        verdict = json.loads(text)["verdict"]
    except (ValueError, KeyError):
        return False
    return verdict == req.expected and code == workloads.EXIT_CODES.get(verdict)


# -- the closed loop -----------------------------------------------------------

@dataclass
class Pass:
    latencies: list = field(default_factory=list)
    wrong: int = 0
    mismatched: int = 0
    wall_s: float = 0.0
    outcomes: list = field(default_factory=list)

    @property
    def iterations(self):
        return sum(r[1] for r in self.outcomes)


class Loop:
    """Runs passes over the calls and checks every answer.

    The first answer to each request key is the reference; any later answer
    with another fingerprint (another pass, a repeat, the traced pass) is a
    determinism failure, as is a pass whose solver outcomes differ.
    """

    def __init__(self, calls, counter):
        self.calls = calls
        self.counter = counter
        self.reference: dict[str, str] = {}
        self.ref_outcomes = None
        self.count_mismatches = 0
        self.notes: list[str] = []

    def run_pass(self, tracer=None, yardstick=None) -> Pass:
        """One pass over the calls.

        With a yardstick, a slice of it runs whenever EVERY_S of program
        time has passed, and each latency is scaled by the slices around it.
        """
        p = Pass()
        mark = self.counter.mark()
        slices, owner = [], []
        t_start = last_slice = perf()
        for i, call in enumerate(self.calls):
            if tracer is not None:
                tracer.current_request[0] = i
            if yardstick is not None:
                if not slices or perf() - last_slice >= EVERY_S:
                    slices.append(yardstick.measure())
                    last_slice = perf()
                owner.append(len(slices) - 1)
            t0 = perf()
            try:
                out = call.run()
            except Exception:
                p.latencies.append(perf() - t0)
                p.wrong += 1
                self.note(f"{call.key} raised:\n{traceback.format_exc()}")
                continue
            p.latencies.append(perf() - t0)
            right, fingerprint = call.check(out)
            if not right:
                p.wrong += 1
                self.note(f"wrong answer for {call.key}: {fingerprint[:300]}")
            ref = self.reference.setdefault(call.key, fingerprint)
            if ref != fingerprint:
                p.mismatched += 1
                self.note(f"answer for {call.key} changed between repeats")
        p.wall_s = perf() - t_start
        if yardstick is not None:
            slices.append(yardstick.measure())
            p.latencies = [yardstick.scale(t, slices[k], slices[k + 1])
                           for t, k in zip(p.latencies, owner)]
        p.outcomes = self.counter.since(mark)
        if self.ref_outcomes is None:
            self.ref_outcomes = p.outcomes
        elif p.outcomes != self.ref_outcomes:
            self.count_mismatches += 1
            self.note("solver iteration counts or stop reasons changed between passes")
        return p

    def note(self, text):
        if len(self.notes) < 20:
            self.notes.append(text)

    def warm_up(self):
        """One call of each kind, untimed and unchecked: lazy imports, caches."""
        seen = set()
        for call in self.calls:
            if call.kind not in seen:
                seen.add(call.kind)
                try:
                    call.run()
                except Exception:   # counted as wrong by the timed passes
                    pass

    def timed(self, seconds, yardstick) -> list[Pass]:
        passes = []
        deadline = perf() + seconds
        while not passes or perf() < deadline:
            passes.append(self.run_pass(yardstick=yardstick))
        return passes


def per_call_median(passes):
    """Each call's median latency over the run's passes (they repeat the calls)."""
    return [statistics.median(column) for column in zip(*(p.latencies for p in passes))]


def tail(latencies):
    """The highest percentile with ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], k / len(ordered)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": "pinned to 1 via OMP/OPENBLAS/MKL_NUM_THREADS in this process",
        "load": "1 process, 1 thread, closed loop",
    }


# -- main -------------------------------------------------------------------------

def measure(args):
    load_program()
    import workloads
    from tracing import SolverCounter, Tracer

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        yardstick = Yardstick()
        if args.trace:
            imports = import_times(args.workload, args.seed)
        else:
            setups = setup_times(args.workload, args.seed, tmp, yardstick)
        calls, cold = workloads.build(args.workload, args.seed, tmp / "run")
        counter = SolverCounter()
        counter.install()
        loop = Loop(calls, counter)
        loop.warm_up()
        passes = loop.timed(args.seconds, yardstick)
        attempted = sum(len(p.latencies) for p in passes)
        failed = sum(p.wrong + p.mismatched for p in passes)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = loop.run_pass(tracer, yardstick)
            finally:
                tracer.uninstall()
            attempted += len(traced.latencies)
            failed += traced.wrong + traced.mismatched
            metrics = tracer.layer_metrics(traced.wall_s, traced.outcomes)
            untraced = sum(per_call_median(passes))
            metrics["trace.overhead_frac"] = (sum(traced.latencies) / untraced - 1.0, "ratio")
            metrics["cli.import_s"] = (statistics.median(imports), "s")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"spans-{args.workload}.npz")
        else:
            colds = cold_requests(args.workload, args.seed, cold, yardstick)
            attempted += len(colds)
            failed += sum(not right for _, right in colds)
            lat = per_call_median(passes)
            tail_s, q = tail(lat)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "verdicts_per_s": (len(lat) / sum(lat), "1/s"),
                "verdict_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "verdict_tail_ms": (tail_s * 1e3, "ms"),
                "solver_iterations": (passes[0].iterations, "count"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "cold_request_ms": (statistics.median(t for t, _ in colds) * 1e3, "ms"),
            }
        failed += loop.count_mismatches
        counter.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    print(f"# env {json.dumps(environment())}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes of "
          f"{len(calls)} calls, {attempted} verdicts attempted, {failed} failed, "
          f"wrong_frac = {failed / attempted:.6f}")
    if args.trace:
        print("# no layer has a wait metric: one thread in a closed loop, nothing queues")
    else:
        print(f"# latencies: each call's median of {len(passes)} passes, scaled by the "
              f"yardstick; "
              f"verdict_tail_ms is p{100 * q:.1f} of {len(lat)} calls, "
              f"{TAIL_BEYOND} beyond it")
    for note in loop.notes:
        print(f"# FAIL {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import", "cold"), help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe_main(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
