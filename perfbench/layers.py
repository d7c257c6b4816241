"""Per-layer timing for the traced run of the benchmark.

Inside `traced(recorder)`, each listed public function of convexmorph is
rebound, in every convexmorph module that holds a reference to it, to a
wrapper that counts calls, self time and exceptions raised out of the call.
On exit the original functions are put back, so untraced passes run the
package's code unmodified.

A layer's self time is its wall time minus the wall time of wrapped calls
made inside it. Every wrapped call under `convexify` nests in the
`morph_engine.convexify` frame, so the self times of all timed layers sum to
the traced `convexify` wall time; what no layer claims stays in
`morph_engine.convexify.self_s`.
"""

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# kind: "self" records self time while convexify runs; "count" only counts
# calls while convexify runs, so its time stays with its caller; "verify"
# records the whole call (certification runs outside convexify, and nothing
# under it is recorded).
LAYERS = (
    ("connectivity", "is_internally_3connected", "self", ("calls", "self_s")),
    ("connectivity", "three_connected", "self", ("calls", "self_s")),
    ("tutte_solver", "solve_rows", "self",
     ("calls", "self_s", "rows", "out_bits_max")),
    ("tutte_solver", "weights_from_y", "self", ("calls", "self_s")),
    ("tutte_solver", "convex_polygon_for_y", "self",
     ("calls", "self_s", "failures")),
    ("tutte_solver", "convex_polygon_for_x", "self",
     ("calls", "self_s", "failures")),
    ("monotone_augment", "augment_y_monotone", "self", ("calls", "self_s")),
    ("plane_graph", "validate_drawing", "self",
     ("calls", "self_s", "failures")),
    ("plane_graph", "is_strictly_convex", "self", ("calls", "self_s")),
    ("plane_graph", "choose_safe_shear", "self", ("calls", "self_s")),
    ("plane_graph", "drawing_is_planar", "self", ("calls", "self_s")),
    ("plane_graph", "build_plane_graph_from_points", "self",
     ("calls", "self_s")),
    ("steps", "SequenceBuilder.move", "self", ("calls", "self_s")),
    ("morph_engine", "pop_pocket", "self", ("calls", "self_s")),
    ("morph_engine", "augment_buffers", "self", ("calls", "self_s")),
    ("morph_engine", "remove_buffer_vertex", "self", ("calls", "self_s")),
    ("morph_engine", "morph_B", "count", ("calls",)),
    ("morph_engine", "convexify", "self", ("self_s",)),
    ("verify", "check_unidirectional_planar", "verify", ("calls", "self_s")),
    ("verify", "check_convexity_increasing", "verify", ("calls", "self_s")),
)

UNITS = {"calls": "count", "self_s": "s", "failures": "count",
         "rows": "count", "out_bits_max": "bits"}


def metric_names():
    """(name, unit) of every per-layer metric the recorder produces."""
    return [(f"{mod}.{qual}.{field}", UNITS[field])
            for mod, qual, _, fields in LAYERS for field in fields]


def coord_bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Recorder:
    """Counters of one traced pass. `active` is set by the caller around
    each convexify call."""

    def __init__(self):
        self.active = False
        self.stats = {f"{mod}.{qual}": dict.fromkeys(fields, 0)
                      for mod, qual, _, fields in LAYERS}
        self._stack = []

    def metrics(self):
        return {f"{layer}.{field}": value
                for layer, fields in self.stats.items()
                for field, value in fields.items()}

    def _timed(self, layer, fn):
        stat = self.stats[layer]
        stack = self._stack
        on_return = _solve_rows_extra if layer.endswith(".solve_rows") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if "failures" in stat:
                    stat["failures"] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                inner = stack.pop()
                if "calls" in stat:
                    stat["calls"] += 1
                stat["self_s"] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(stat, args, out)
            return out

        return wrapper

    def _counted(self, layer, fn):
        stat = self.stats[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                stat["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _whole(self, layer, fn):
        stat = self.stats[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat["calls"] += 1
                stat["self_s"] += perf_counter() - t0

        return wrapper

    def wrap(self, layer, kind, fn):
        make = {"self": self._timed, "count": self._counted,
                "verify": self._whole}[kind]
        return make(layer, fn)


def _solve_rows_extra(stat, args, out):
    stat["rows"] += len(args[0])
    bits = max((coord_bits(x) for vals in out.values() for x in vals),
               default=0)
    stat["out_bits_max"] = max(stat["out_bits_max"], bits)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "convexmorph" or name.startswith("convexmorph."))]


@contextmanager
def traced(recorder):
    """Rebind every listed function to its recorder wrapper, in every
    convexmorph module that holds it; restore the originals on exit."""
    modules = _package_modules()
    undo = []
    try:
        for mod, qual, kind, _ in LAYERS:
            home = sys.modules[f"convexmorph.{mod}"]
            layer = f"{mod}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, recorder.wrap(layer, kind, original))
                undo.append((cls, attr, original))
                continue
            original = getattr(home, qual)
            wrapper = recorder.wrap(layer, kind, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        undo.append((m, name, original))
        yield recorder
    finally:
        for target, name, original in reversed(undo):
            setattr(target, name, original)
