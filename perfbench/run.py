"""Benchmark of convexmorph.convexify on four dispatcher workloads.

    python3 perfbench/run.py --workload convex_outer --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src. One
process makes closed-loop calls, one at a time, on one thread. A pass sets
up (imports the package and builds the workload's Drawings), calls convexify
on every drawing and certifies each returned sequence. Passes repeat until
--seconds have been spent (see _repeat); each time is the median over
passes; setup_s takes a pass's mean over the set-ups it makes before each
convexify call (see run_pass).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of layers.py. The last line of
standard output is one JSON object; the lines before it repeat every metric
with its unit. The exit code is 1 when a convexify call raises, hits a time
limit or returns a sequence that fails its checks, and 2 when set-up fails.

Workloads and the reasons for them are in perfbench/NOTES.md.
"""

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import typing
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layers

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("convex_outer", "three_connected", "buffered", "already_convex")
# check_step_bounds mode of each workload's dispatcher branch
BOUND_MODE = {"convex_outer": "convex_outer", "three_connected": "3conn",
              "buffered": "general", "already_convex": "convex_outer"}
SETUPS_PER_CALL = 8    # timed set-ups before each untraced convexify call
SHIFT = 16             # each drawing is translated by at most this much
INSTANCE_CAP_S = 60    # a convexify call that runs longer counts as failed
RUN_DEADLINE_S = 150   # after this, the remaining calls count as timed out


class InstanceTimeout(BaseException):
    """Raised by the alarm inside a convexify call that hit its cap.
    A BaseException, so that no handler inside the package swallows it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


# -- inputs ---------------------------------------------------------------------


def load_inputs(workload, seed):
    """Plain coordinate and edge data of the workload's drawings, in an order
    drawn from the seed, each translated by an integer vector drawn from the
    seed. A translation keeps every orientation and the embedding, so the
    drawings take the same dispatcher branch; the exact coordinates differ."""
    data = json.loads((HERE / "instances" / f"{workload}.json").read_text())
    rng = random.Random(f"{workload}:{seed}")
    order = list(range(len(data["instances"])))
    rng.shuffle(order)
    out = []
    for i in order:
        inst = data["instances"][i]
        dx, dy = rng.randint(-SHIFT, SHIFT), rng.randint(-SHIFT, SHIFT)
        coords = {int(v): (Fraction(x) + dx, Fraction(y) + dy)
                  for v, (x, y) in inst["coords"].items()}
        out.append((coords, [tuple(e) for e in inst["edges"]]))
    return out


def forget_package():
    """Drop any earlier import of convexmorph, so that the next one runs
    afresh. typing caches generic aliases of the package's classes, and
    through them every module of an earlier import; without clearing those
    caches each set-up would leave a copy of the package in memory."""
    for name in [m for m in sys.modules
                 if m == "convexmorph" or m.startswith("convexmorph.")]:
        del sys.modules[name]
    for clear in getattr(typing, "_cleanups", ()):
        clear()


def import_package():
    """Import convexmorph from ./src."""
    if not (SRC / "convexmorph" / "__init__.py").is_file():
        raise FileNotFoundError(f"no convexmorph package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import convexmorph.morph_engine
    import convexmorph.verify
    return convexmorph


def setup(plain):
    """One timed set-up: import the package afresh and build the Drawings
    from plain data. The earlier import is dropped and garbage is collected
    first, untimed, so that no set-up pays for another's. Returns the time,
    the package and the Drawings."""
    forget_package()
    gc.collect()
    t0 = perf_counter()
    pkg = import_package()
    build = pkg.plane_graph.build_plane_graph_from_points
    drawings = [pkg.Drawing(build(coords, edges), coords)
                for coords, edges in plain]
    return perf_counter() - t0, pkg, drawings


def timed_setups(plain, repeats):
    """Set up `repeats` times. Returns the times and the package and
    Drawings of the last set-up."""
    times = []
    for _ in range(repeats):
        pkg = drawings = None  # so that setup can collect them
        elapsed, pkg, drawings = setup(plain)
        times.append(elapsed)
    return times, pkg, drawings


# -- checks ---------------------------------------------------------------------
# They import from convexmorph when called, so that they use the package of
# the latest set-up.


def dispatcher_branch(d):
    """The workload whose convexify branch d takes, decided from outside
    with the same predicates, in the same order, as the dispatcher."""
    from convexmorph.connectivity import three_connected
    from convexmorph.plane_graph import is_convex_outer, is_strictly_convex

    if is_strictly_convex(d):
        return "already_convex"
    if is_convex_outer(d):
        return "convex_outer"
    if three_connected(d.graph.adjacency()):
        return "three_connected"
    return "buffered"


def _rotation_key(g):
    """Rotations up to their starting neighbour, and the outer face darts."""
    rot = {}
    for v, nbrs in g.rotation.items():
        i = nbrs.index(min(nbrs))
        rot[v] = nbrs[i:] + nbrs[:i]
    return rot, frozenset(g.faces[g.outer_face_index])


def same_plane_graph(a, b):
    """Same vertices, edges, rotations and outer face."""
    return _rotation_key(a) == _rotation_key(b)


def max_coord_bits(seq):
    """Largest numerator or denominator bit-length of any coordinate in any
    drawing of the sequence, its initial drawing included."""
    drawings = [seq.initial] + [ev.end for ev in seq.events]
    return max(layers.coord_bits(c)
               for d in drawings for p in d.coords.values() for c in p)


def certify(seq, d, workload):
    """Every check a returned sequence must pass; returns the failed ones."""
    from convexmorph import verify
    from convexmorph.plane_graph import is_strictly_convex

    problems = []
    if not all(verify.check_unidirectional_planar(s) for s in seq.steps):
        problems.append("a step is not planar")
    if not verify.check_convexity_increasing(seq, d.graph):
        problems.append("not convexity-increasing")
    if not verify.check_step_bounds(seq, BOUND_MODE[workload]):
        problems.append(f"{seq.step_count} steps exceed the "
                        f"{BOUND_MODE[workload]} budget")
    if not is_strictly_convex(seq.final):
        problems.append("final drawing is not strictly convex")
    if not same_plane_graph(seq.final.graph, d.graph):
        problems.append("final graph differs from the input graph")
    if workload == "already_convex" and seq.events:
        problems.append(f"{len(seq.events)} events on a convex input")
    return problems


# -- passes ---------------------------------------------------------------------


class Pass:
    """Totals of one pass over the workload's drawings."""

    def __init__(self):
        self.setup_times = []
        self.convexify_s = 0.0
        self.certify_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.steps = 0
        self.edits = 0
        self.max_coord_bits = 0


def run_pass(plain, workload, deadline, recorder=None, setups=0):
    """Set up, then convexify every drawing and certify each returned
    sequence. Every pass imports and builds afresh, as a caller does: a
    PlaneGraph caches its faces, so no pass may find that work done by an
    earlier one. A call that raises or hits a time limit is a failed check.

    With setups, that many set-ups are timed before each convexify call,
    which takes its drawing from the last of them. The machine's speed
    drifts within seconds, so set-up is sampled across the whole run, as
    convexify is. With a recorder, the package is traced for the pass, which
    then sets up once."""
    p = Pass()
    if not setups:
        _, pkg, drawings = setup(plain)
        gc.collect()
    with layers.traced(recorder) if recorder else nullcontext():
        for i in range(len(plain)):
            if setups:
                times, pkg, drawings = timed_setups(plain, setups)
                p.setup_times += times
                gc.collect()
            d = drawings[i]
            seq = _convexify(p, pkg, d, f"{workload}[{i}]", deadline,
                             recorder)
            if seq is None:
                p.failed += 1
                p.problems.append(f"{workload}[{i}]: convexify raised or "
                                  "hit a time limit")
                continue
            t0 = perf_counter()
            problems = certify(seq, d, workload)
            p.certify_s += perf_counter() - t0
            if problems:
                p.failed += 1
                p.problems.extend(f"{workload}[{i}]: {msg}"
                                  for msg in problems)
            p.steps += seq.step_count
            p.edits += len(seq.edits)
            p.max_coord_bits = max(p.max_coord_bits, max_coord_bits(seq))
    return p


def _convexify(p, pkg, d, label, deadline, recorder):
    """One timed, capped convexify call; None when it raised or timed out."""
    p.attempted += 1
    left = deadline - perf_counter()
    if left <= 0:
        print(f"{label}: not run, the run deadline has passed",
              file=sys.stderr)
        return None
    signal.setitimer(signal.ITIMER_REAL, min(INSTANCE_CAP_S, left))
    if recorder is not None:
        recorder.active = True
    t0 = perf_counter()
    try:
        return pkg.morph_engine.convexify(d)
    except InstanceTimeout:
        print(f"{label}: convexify hit its time cap", file=sys.stderr)
    except Exception as exc:  # any failure of the program under test
        print(f"{label}: convexify raised {exc!r}", file=sys.stderr)
    finally:
        p.convexify_s += perf_counter() - t0
        if recorder is not None:
            recorder.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return None


def _median(passes, attr):
    return statistics.median(getattr(p, attr) for p in passes)


def _repeat(seconds, step):
    """Call step until seconds are spent. A call starts only while half of
    the previous call's duration still fits, so a run overshoots by at most
    about half a call."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        step()
        now = perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return


def end_to_end(plain, workload, seconds, deadline):
    """Passes for --seconds. Peak memory is read after the first pass,
    which does all the work any later pass repeats."""
    passes, rss_mb = [], []

    def step():
        passes.append(run_pass(plain, workload, deadline,
                               setups=SETUPS_PER_CALL))
        if not rss_mb:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rss_mb.append(rss / 1024)

    _repeat(seconds, step)
    setup_s = statistics.median(statistics.fmean(p.setup_times)
                                for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "convexify_s": (_median(passes, "convexify_s"), "s"),
        "max_coord_bits": (max(p.max_coord_bits for p in passes), "bits"),
        "peak_rss_mb": (rss_mb[0], "MB"),
    }
    return passes, metrics


def per_layer(plain, workload, seconds, deadline):
    """Alternate untraced and traced passes; layer metrics are medians over
    the traced passes, the overhead ratio compares the two kinds."""
    untraced, traced, recorders = [], [], []

    def step():
        untraced.append(run_pass(plain, workload, deadline))
        rec = layers.Recorder()
        traced.append(run_pass(plain, workload, deadline, rec))
        recorders.append(rec.metrics())

    _repeat(seconds, step)
    metrics = {name: (statistics.median(r[name] for r in recorders), unit)
               for name, unit in layers.metric_names()}
    passes = untraced + traced
    metrics["steps"] = (_median(passes, "steps"), "count")
    metrics["steps.edits"] = (_median(passes, "edits"), "count")
    metrics["certify_s"] = (_median(untraced, "certify_s"), "s")
    metrics["trace.convexify_s"] = (_median(traced, "convexify_s"), "s")
    metrics["trace.overhead_ratio"] = (
        _median(traced, "convexify_s") / _median(untraced, "convexify_s"),
        "ratio")
    return passes, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run_start = perf_counter()
    plain = load_inputs(args.workload, args.seed)
    _, _, drawings = setup(plain)
    wrong = [(i, b) for i, b in enumerate(map(dispatcher_branch, drawings))
             if b != args.workload]
    if wrong:
        for i, b in wrong:
            print(f"{args.workload}[{i}] takes the {b} branch",
                  file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    measure = per_layer if args.trace else end_to_end
    passes, metrics = measure(plain, args.workload, args.seconds,
                              run_start + RUN_DEADLINE_S)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics["fail_rate"] = (failed / attempted, "ratio")
    problems = [msg for p in passes for msg in p.problems]
    for msg in dict.fromkeys(problems):
        print(msg, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
