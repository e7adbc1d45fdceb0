"""Benchmark harness for ilora-lab.

Usage, from the repository root:

    python3 perfbench/run.py --workload default-sweep --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another, each in a fresh
process, and ends with one JSON line holding all of their metrics.

It drives the package from `src/` in this process through `cli.main`, one
workload per process, single-threaded. Set-up is repeated and its median
reported; then whole rounds of the workload's commands run until `--seconds`
have passed, and last one untimed round on the default seed's inputs, whose
outputs must match golden.json. Every command's outputs are checked (see
`Session.check`). With `--trace 0` the last line of stdout is a JSON object
holding the end-to-end metrics named in BENCHMARK.json; with `--trace 1`
set-up runs once, an untraced reference round runs, then traced rounds, and
the line holds the per-layer metrics. A result file with the environment
goes to `.bench_out/`.

`--record-golden` (seed 0 only) rewrites this workload's entry in
golden.json with the digests of the outputs instead of checking them.
"""

import os

# Pin BLAS to one thread before numpy is imported: linear_cka multiplies
# with `@`, and the benchmark measures a single-threaded process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Command, input_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
DEFAULT_SEED = 0
# setup_s is set-up cost in calib units times this: set-up seconds at a
# machine speed at which the calibration kernel takes 1 ms.
CALIB_SECONDS = 0.001
# Report a tail percentile only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# A core's speed on a shared virtual machine can swing by up to 1.5x,
# switching state many times a second. While a command runs, a fixed kernel
# is timed every SAMPLE_INTERVAL seconds; the command's cost is its wall time
# times the mean of 1/(kernel time), in "calib" units (kernel executions).
# The swings move costs far less than they move wall times.
SAMPLE_INTERVAL = 0.1


class SpeedSampler:
    """Times a fixed kernel of about 1 ms from a SIGALRM handler while
    active: column-by-column outer-product accumulation, as the program's
    matmul does it, at 16x32x16 (four times) and 64x32x64. The handler runs
    between bytecodes of the main thread, so the process stays
    single-threaded."""

    def __init__(self):
        self.operands = ((np.ones((16, 32)), np.ones((32, 16)), 4),
                         (np.ones((64, 32)), np.ones((32, 64)), 1))
        self.samples: list[float] = []

    def kernel_seconds(self) -> float:
        t0 = time.perf_counter()
        for a, b, reps in self.operands:
            for _ in range(reps):
                out = np.zeros((a.shape[0], b.shape[1]))
                for k in range(a.shape[1]):
                    out += a[:, k:k + 1] * b[k:k + 1, :]
        return time.perf_counter() - t0

    def rate(self) -> float:
        """Mean kernel executions per second over the last activation."""
        return statistics.fmean(1.0 / c for c in self.samples)

    def _tick(self, signum, frame):
        self.samples.append(self.kernel_seconds())

    def __enter__(self):
        self.samples = [self.kernel_seconds()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(self.kernel_seconds())


@dataclass(frozen=True)
class Sample:
    """One command's wall time, its cost in calib units and whether it
    passed its checks."""

    cmd: Command
    seconds: float
    cost: float
    ok: bool


class Session:
    """Runs commands and keeps the correctness record.

    A command fails when it does not exit 0, when an output is missing or
    out of range, when its outputs differ from an earlier command with the
    same label on the same inputs (a re-run, or a traced run against the
    untraced one), or, on the default seed's inputs, when they differ from
    the digests in golden.json.
    """

    def __init__(self, speed: SpeedSampler, golden_key: int,
                 golden: dict | None):
        self.speed = speed
        self.golden_key = golden_key
        self.golden = golden
        self.recorded: dict[str, str] = {}
        self.seen: dict[tuple[int, str], str] = {}
        self.attempted = 0
        self.failed = 0

    def execute(self, cmd, main) -> Sample:
        cmd.reset()
        with self.speed as speed:
            t0 = time.perf_counter()
            try:
                rc = main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash fails the command, not the run
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        self.attempted += 1
        problems = self.check(cmd) if rc == 0 else [f"exit status {rc}"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {cmd.label} (inputs {cmd.input_key}): {p}",
                      file=sys.stderr)
        return Sample(cmd, elapsed, elapsed * speed.rate(), not problems)

    def check(self, cmd) -> list[str]:
        echo = cmd.run_dir / "config_echo.json"
        if not echo.is_file():
            return ["missing config_echo.json"]
        try:
            cfg = json.loads(echo.read_text())
            names = cmd.outputs(cfg)
            missing = [n for n in names if not (cmd.run_dir / n).is_file()]
            if missing:
                return [f"missing {', '.join(missing)}"]
            problems = cmd.validate(cfg)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]
        for name in names:
            key = f"{cmd.label}/{name}"
            digest = _sha256(cmd.run_dir / name)
            if self.seen.setdefault((cmd.input_key, key), digest) != digest:
                problems.append(f"{name} differs from an earlier run on the "
                                "same inputs")
            if cmd.input_key != self.golden_key:
                continue
            if self.golden is None:
                self.recorded[key] = digest
            elif self.golden.get(key) != digest:
                problems.append(f"{name} does not match its recorded "
                                "default-seed digest")
        return problems


def _percentile_report(samples: list[float]) -> str:
    n = len(samples)
    tail = [p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= TAIL_SAMPLES]
    if not tail:
        return (f"n={n}; no percentile above p50 has {TAIL_SAMPLES} samples "
                "beyond it")
    q = statistics.quantiles(samples, n=100)[tail[0] - 1]
    return f"n={n}; p{tail[0]}={q:.6f} s"


def _import_in_fresh_interpreter() -> None:
    """Import the package in a new interpreter, as each `ilora-lab`
    invocation does. No timeout: with one, `subprocess` polls the child with
    sleeps of up to 50 ms, which quantises the time."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", "import ilora_lab"], env=env,
                   cwd=ROOT, check=True)


def _setup(session, workload, work, seed, main, repeats):
    """Set the workload up `repeats` times; return each set-up's wall time
    and its cost in calib units. One set-up is a fresh interpreter importing
    the package plus the workload's set-up commands."""
    seconds, costs = [], []
    for _ in range(repeats):
        with session.speed as speed:
            t0 = time.perf_counter()
            setup_cmds = workload.prepare(work, seed)
            _import_in_fresh_interpreter()
            elapsed = time.perf_counter() - t0
        cost = elapsed * speed.rate()
        for sample in (session.execute(c, main) for c in setup_cmds):
            elapsed += sample.seconds
            cost += sample.cost
        seconds.append(elapsed)
        costs.append(cost)
    return seconds, costs


def _golden_round(session, workload, work, main) -> None:
    """Set up and run round 0 on the default seed's inputs, untimed, so that
    every run checks outputs against golden.json whatever its seed."""
    gwork = work / "golden"
    gwork.mkdir()
    for cmd in (workload.prepare(gwork, DEFAULT_SEED)
                + workload.round(gwork, DEFAULT_SEED, 0)):
        session.execute(cmd, main)


def _rounds(session, workload, work, seed, main, seconds):
    """Run whole rounds, from round 0, until `seconds` have passed."""
    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        cmds = workload.round(work, seed, len(rounds))
        rounds.append([session.execute(c, main) for c in cmds])
    return rounds


def _wall(rounds, unit: str) -> float:
    """Median over rounds of the round's summed command seconds or cost."""
    return statistics.median(sum(getattr(s, unit) for s in rnd)
                             for rnd in rounds)


def _end_to_end(setup_costs, rounds) -> dict[str, float]:
    """The JSON line's metrics. Times enter as costs in calibration units,
    set-up cost converted to seconds at the reference speed; memory as
    measured."""
    costs = [s.cost for rnd in rounds for s in rnd]
    return {
        "setup_s": statistics.median(setup_costs) * CALIB_SECONDS,
        "wall_calib": _wall(rounds, "cost"),
        "cmd_calib.p50": statistics.median(costs),
        "cmds_per_kcalib": 1000.0 * len(costs) / sum(costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _seconds(setup_times, rounds) -> dict[str, float]:
    """The timings in seconds, plus, for the training workloads, each
    kind's median run time (also in calib units) and adapter optimizer steps
    per second of run time over the runs that passed their checks."""
    samples = [s for rnd in rounds for s in rnd]
    times = [s.seconds for s in samples]
    values = {
        "setup_s.raw": statistics.median(setup_times),
        "wall_s": _wall(rounds, "seconds"),
        "cmds_per_s": len(times) / sum(times),
        "cmd_s.p50": statistics.median(times),
    }
    by_kind: dict[str, list[Sample]] = {}
    steps = 0
    run_time = 0.0
    for s in samples:
        if s.cmd.kind != "run" or not s.ok:
            continue
        cfg = json.loads((s.cmd.run_dir / "config_echo.json").read_text())
        by_kind.setdefault(cfg["strategy"]["kind"], []).append(s)
        steps += s.cmd.adapter_steps(cfg)
        run_time += s.seconds
    for kind, runs in by_kind.items():
        values[f"run_s.{kind}"] = statistics.median(r.seconds for r in runs)
        values[f"run_calib.{kind}"] = statistics.median(r.cost for r in runs)
    if run_time:
        values["steps_per_s"] = steps / run_time
    return values


def _per_layer(summary: dict, n_rounds: int) -> dict[str, float]:
    """Per-round values of every traced function's calls, self time and
    counters, plus two ratios for the functions that were called."""
    out = {f"{fn}.{key}": value / n_rounds
           for fn, stats in summary.items() for key, value in stats.items()}
    for fn, count, name in (("loss_and_grad", "rows", "rows_per_call"),
                            ("agem_project", "binds", "bind_ratio")):
        if summary[fn]["calls"]:
            out[f"{fn}.{name}"] = summary[fn][count] / summary[fn]["calls"]
    return out


def _environment(loadavg) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loadavg_start": list(loadavg),
        "platform": platform.platform(),
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    # Round seeds (seed*1000 + r) must fit the checkpoints' u64 seed field.
    if not 0 <= args.seed < 2**32 or args.seconds < 1:
        p.error("--seed must be in [0, 2**32) and --seconds >= 1")
    if args.record_golden and (args.seed != DEFAULT_SEED or args.trace):
        p.error(f"--record-golden needs --seed {DEFAULT_SEED} --trace 0")
    return args


def _run_all(args) -> int:
    """Run every workload in a fresh process of its own, so that each
    peak_rss_mb belongs to one workload; print their reports and one JSON
    line with every workload's metrics under `<workload>/<metric>`."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
            + ["--record-golden"] * args.record_golden,
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v
                                    in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    pkg = SRC / "ilora_lab"
    if not (pkg / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: {pkg} or {BENCHMARK} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ilora_lab
    from ilora_lab import cli
    if Path(ilora_lab.__file__).resolve().parent != pkg.resolve():
        print(f"error: imported ilora_lab from {ilora_lab.__file__}, not "
              f"{pkg}", file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK.read_text())
    workload = WORKLOADS[args.workload]
    golden = None
    if not args.record_golden:
        golden = json.loads(GOLDEN.read_text())[args.workload]
    session = Session(SpeedSampler(), input_seed(DEFAULT_SEED, 0), golden)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # A traced run does not report setup_s, so it sets up only once.
        setup_times, setup_costs = _setup(
            session, workload, work, args.seed, cli.main,
            1 if args.trace else SETUP_REPEATS)

        if args.trace:
            # The untraced reference round shares its inputs with the first
            # traced round, whose outputs must therefore be identical.
            reference = _rounds(session, workload, work, args.seed, cli.main,
                                0)
            tracer = Tracer()
            with tracer.patched():
                rounds = _rounds(session, workload, work, args.seed,
                                 tracer.wrap("main", cli.main), args.seconds)
            values = _per_layer(tracer.summary(), len(rounds))
            values["wall_s.traced"] = _wall(rounds, "seconds")
            values["wall_s.untraced"] = _wall(reference, "seconds")
            values["tracing.overhead_s"] = (values["wall_s.traced"]
                                            - values["wall_s.untraced"])
            values["tracing.overhead_share"] = (_wall(rounds, "cost")
                                                / _wall(reference, "cost")
                                                - 1.0)
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        else:
            rounds = _rounds(session, workload, work, args.seed, cli.main,
                             args.seconds)
            # Re-run the first command on the same inputs: byte-identical
            # output is required.
            session.execute(workload.round(work, args.seed, 0)[0], cli.main)
            values = {**_end_to_end(setup_costs, rounds),
                      **_seconds(setup_times, rounds)}
        _golden_round(session, workload, work, cli.main)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_golden:
        all_golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        all_golden[args.workload] = dict(sorted(session.recorded.items()))
        GOLDEN.write_text(json.dumps(all_golden, indent=1, sort_keys=True)
                          + "\n")

    section = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    samples = [s for rnd in rounds for s in rnd]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": len(rounds),
        "environment": _environment(loadavg),
        "failed_ratio": session.failed / session.attempted,
        "cmd_s": _percentile_report([s.seconds for s in samples]),
        "setup_samples_s": setup_times,
        "setup_samples_calib": setup_costs,
        "command_samples": [[s.cmd.label, s.seconds, s.cost]
                            for s in samples],
        "values": values, **result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds, {len(samples)} timed commands, "
          f"failed {session.failed}/{session.attempted} "
          f"(failed_ratio {record['failed_ratio']:.4f})")
    print(f"# cmd_s: {record['cmd_s']}")
    for name in sorted(values):
        print(f"#   {name:36s} {values[name]:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
