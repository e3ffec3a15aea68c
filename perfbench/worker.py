"""One benchmark job in a fresh interpreter.

    python3 perfbench/worker.py JOB SEED TRACE [SIZE]

run.py starts this with PYTHONPATH pointing at the checkout's src/. The
worker imports dyckmotz, loads the golden tables and prints "ready",
which ends the set-up the parent times (the few standard-library imports
above come first and are part of it). It then runs JOB once and prints
one JSON object as its last line. Every job starts cold: the package's
module caches (_phi, the inverse tables, _distribution_row and
count_constrained_by_height) persist within a process, and a command-line
user pays to fill them on every call.

While it works, a worker also times a fixed calibration kernel of its own
(HostSpeed) every 0.2 s or so, and reports its work time in seconds and in
multiples of the kernel's time around it. The host is shared, and its
speed drifts by a third and more over minutes; the kernel runs on the same
core at the same moments, so the ratio divides that drift out.
"""
import contextlib
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter

import inputs

CAMPAIGN_MAX_N = 12
SERIES_N = 32
POPULARITY_PATTERNS = ("UD", "UU", "DD", "DU")
SAMPLE_EVERY_S = 0.2  # seconds of work between two calibration samples
CALIBRATION_POLY = [7**45 + 1009 * k for k in range(48)]  # 48 coefficients of ~127 bits
CALIBRATION_ROUNDS = 16  # about 10 ms on a 2-core Xeon


def calibration_kernel() -> int:
    """Fixed work that does not touch dyckmotz: square a polynomial with
    big-integer coefficients, the interpreter loop plus integer arithmetic
    that the package's own work is made of."""
    a = CALIBRATION_POLY
    for _ in range(CALIBRATION_ROUNDS):
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
    return out[len(a)]


class HostSpeed:
    """Times the calibration kernel between stretches of a worker's work.

    A stretch of work is the wall time from the end of one sample to the
    start of the next. sample() is called between operations, and
    sampling() calls it from a SIGALRM timer inside one long operation.
    Each stretch is divided by the mean of the two samples around it, so
    a change in the host's speed is divided out where it happens.
    """

    def __init__(self):
        self.samples = []
        self.stretches = []
        self.last = None  # when the last sample ended

    def sample(self):
        start = time.perf_counter()
        if self.last is not None:
            self.stretches.append(start - self.last)
        calibration_kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def due(self) -> bool:
        return time.perf_counter() - self.last >= SAMPLE_EVERY_S

    def _on_alarm(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)  # one-shot, so samples never nest

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def result(self) -> dict:
        s = self.samples
        return {"wall_s": sum(self.stretches),
                "wall_rel": sum(w / ((a + b) / 2) for w, a, b in zip(self.stretches, s, s[1:])),
                "calib_s": statistics.median(s), "calib_samples": len(s)}


def campaign(seed: int) -> dict:
    """What `dyckmotz verify --max-n 12 --format json` does, offline."""
    from dyckmotz import cli
    out = io.StringIO()
    speed = HostSpeed()
    with contextlib.redirect_stdout(out):
        speed.sample()
        with speed.sampling():
            code = cli.main(["verify", "--max-n", str(CAMPAIGN_MAX_N), "--format", "json"])
        speed.sample()
    report = json.loads(out.getvalue())
    return {**speed.result(), "attempted": 1, "failed": 0, "exit": code,
            "ok": report["ok"],
            "checks": [[c["check"], c["status"]] for c in report["checks"]]}


def _series_text(series) -> str:
    return "|".join(",".join(str(c) for c in series.y_poly(n))
                    for n in range(series.trunc_x + 1))


def series_deep(seed: int) -> dict:
    """Every algebraic route at N=32; the seed only shuffles the order."""
    calls = [(f"closed:{p}", dm.distribution_gf_closed, p) for p in dm.PATTERNS]
    calls += [(f"fixed:{p}", dm.distribution_gf_fixed_point, p)
              for p in dm.FIXED_POINT_PATTERNS]
    calls += [(f"popularity:{p}", dm.popularity_gf, p) for p in POPULARITY_PATTERNS]
    calls.append(("du_from_ud", lambda _, N: dm.du_from_ud(N), None))
    random.Random(seed).shuffle(calls)
    results, errors = {}, Counter()
    speed = HostSpeed()
    speed.sample()
    for name, route, pattern in calls:
        try:
            results[name] = route(pattern, SERIES_N)
        except Exception as exc:  # a raising route is a failed operation
            errors[f"{name}: {type(exc).__name__}"] += 1
        speed.sample()

    series = {name: getattr(r, "series", r) for name, r in results.items()}
    wrong = []
    motzkin = inputs.motzkin_numbers(SERIES_N + 1)
    degrees = range(SERIES_N + 1)
    for name, s in series.items():
        kind, _, pattern = name.partition(":")
        if kind == "popularity":
            dist = series.get("closed:" + pattern)
            if dist is not None and [s.coefficient(n) for n in degrees] != [
                    sum(k * c for k, c in enumerate(dist.y_poly(n))) for n in degrees]:
                wrong.append(f"{name}: not the y-derivative of the closed form at y=1")
        elif any(sum(s.y_poly(n)) != motzkin[n] for n in degrees):
            wrong.append(f"{name}: a row does not sum to its Motzkin number")
    for p in dm.FIXED_POINT_PATTERNS:
        a, b = series.get(f"closed:{p}"), series.get(f"fixed:{p}")
        if a is not None and b is not None and _series_text(a) != _series_text(b):
            wrong.append(f"closed and fixed-point routes differ for {p}")
    digests = {name: hashlib.sha256(_series_text(s).encode()).hexdigest()
               for name, s in sorted(series.items())}
    return {**speed.result(), "attempted": len(calls), "failed": sum(errors.values()),
            "errors": dict(errors), "wrong": wrong, "digests": digests}


def paths(seed: int, count: int) -> dict:
    """map and unmap on a seeded stream of family members.

    map is phi(p) and every transport rule on (p, phi(p)) through
    PathProfile; unmap is phi_inverse(phi(p)). The loop is timed as a
    whole and each map and unmap call on its own; the answers are checked
    afterwards.
    """
    stream = inputs.path_stream(seed, count)
    rules = dm.transport_rules()
    images, sides, backs = [], [], []
    errors = Counter()
    busy = {"map": 0.0, "unmap": 0.0}
    steps = {"map": 0, "unmap": 0}
    speed = HostSpeed()
    speed.sample()
    for p in stream:
        if speed.due():
            speed.sample()
        start = time.perf_counter()
        try:
            m = str(dm.phi(p))
            dyck, motz = dm.PathProfile(p), dm.PathProfile(m)
            values = [(dm.evaluate_statistic(p, r.dyck_side, dyck),
                       dm.evaluate_statistic(m, r.motzkin_side, motz)) for r in rules]
        except Exception as exc:  # a raising call is a failed operation
            m = values = None
            errors[f"map: {type(exc).__name__}"] += 1
        busy["map"] += time.perf_counter() - start
        back = None
        if m is None:
            errors["unmap: no image, map failed"] += 1
        else:
            steps["map"] += len(p)
            start = time.perf_counter()
            try:
                back = str(dm.phi_inverse(m))
            except Exception as exc:  # a raising call is a failed operation
                errors[f"unmap: {type(exc).__name__}"] += 1
            busy["unmap"] += time.perf_counter() - start
            if back is not None:
                steps["unmap"] += len(p)
        images.append(m)
        sides.append(values)
        backs.append(back)
    speed.sample()

    wrong = []
    for p, m, values, back in zip(stream, images, sides, backs):
        n = len(p) // 2
        if m is not None:
            if not inputs.is_motzkin_word(m, n):
                wrong.append(f"map of a path of semilength {n} is not a Motzkin word of length {n}")
            elif m != inputs.reference_phi(p):
                wrong.append(f"map of a path of semilength {n} differs from the reference phi")
            bad = [r.name for r, (lhs, rhs) in zip(rules, values) if lhs != rhs]
            if bad:
                wrong.append(f"rules {bad} fail on a path of semilength {n}")
        if back is not None and back != p:
            wrong.append(f"unmap of a path of semilength {n} returned another path")
    digest = hashlib.sha256("\n".join(m or "-" for m in images).encode()).hexdigest()
    return {**speed.result(), "attempted": 2 * len(stream),
            "failed": sum(errors.values()), "errors": dict(errors), "wrong": wrong,
            "busy": busy, "steps": steps, "digest": digest,
            "sizes": sorted(len(p) // 2 for p in stream)}


def sweep_enumeration(n: int) -> dict:
    """enumerate_constrained(n) plus phi over the whole family."""
    start = time.perf_counter()
    count = sum(1 for p in dm.enumerate_constrained(n) if dm.phi(p) is not None)
    busy = time.perf_counter() - start
    wrong = [] if count == inputs.motzkin_numbers(n + 1)[n] else [f"family size {count} at n={n}"]
    return {"wall_s": busy, "attempted": 1, "failed": 0, "wrong": wrong}


def sweep_sqrt(N: int) -> dict:
    """sqrt_unit on the radical of the UD closed form."""
    x = dm.TruncatedSeries.x_var(N)
    y = dm.TruncatedSeries.y_var(N)
    rad = -4 * x**2 + (x**2 * (y - 1) + x * y - 1)**2
    start = time.perf_counter()
    root = rad.sqrt_unit()
    busy = time.perf_counter() - start
    wrong = [] if root * root == rad else [f"square root at N={N} does not square back"]
    return {"wall_s": busy, "attempted": 1, "failed": 0, "wrong": wrong}


def main(argv) -> dict:
    job, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    size = int(argv[3]) if len(argv) > 3 else 0
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    jobs = {
        "setup": lambda: {},
        "campaign": lambda: campaign(seed),
        "series-deep": lambda: series_deep(seed),
        "paths": lambda: paths(seed, size),
        "sweep-enumeration": lambda: sweep_enumeration(size),
        "sweep-sqrt": lambda: sweep_sqrt(size),
    }
    result = jobs[job]()
    result["job"] = job
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


if __name__ == "__main__":
    import dyckmotz as dm
    dm.load_golden_tables()
    print("ready", flush=True)
    print(json.dumps(main(sys.argv[1:])))
