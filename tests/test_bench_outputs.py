"""convexify on the benchmark's own drawings, pinned bit for bit.

Each workload file of perfbench/instances is read as it stands (no
translation, unlike the benchmark's seeded runs), and the event_digest of
convexify on each of its drawings is compared with the pinned one. A change
that claims to keep every exact decision of the pipeline shows here on the
inputs the benchmark times.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from convexmorph import (
    Drawing, build_plane_graph_from_points, convexify, morph_engine)

from _instances import event_digest

INSTANCES = Path(__file__).resolve().parents[1] / "perfbench" / "instances"

DIGESTS = {
    ('already_convex', 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ('already_convex', 1):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ('already_convex', 2):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ('already_convex', 3):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ('buffered', 0):
        "af2ff621075cfc33c8bb4e863fc5e304fa1723ededa04d98b6861cdc27492bf6",
    ('buffered', 1):
        "199f7fb9849c4e81d8063beaa873818361f6539477cd71dd6bb28f26bfd0c728",
    ('convex_outer', 0):
        "011c48a43c26623e386ccd3f4e3b5424213034586935428b12bf4849c18396f8",
    ('convex_outer', 1):
        "4876441ebe14f2f46fa5b3e439448f5ac0a826f5d2555dfe4f17697487f8737a",
    ('convex_outer', 2):
        "cf440eee01fb907a6df404cebf114ddd43d6f1e885ffd620f87b17837e964daa",
    ('three_connected', 0):
        "16d33cbe9248fa9923169155ab930a766bf970fdbd4727203f4869517f083f26",
    ('three_connected', 1):
        "a6da1aa06d17a535387f1e56518fdd07c7cdc576b0e7fd56b5f824ba9edf5900",
    ('three_connected', 2):
        "72126ae077aec0a136861ab7e70fe553ef32545d85eba395529b8f4a949d4c9b",
}


def bench_drawing(workload, i):
    """Drawing i of a workload file, built as perfbench/run.py builds it."""
    data = json.loads((INSTANCES / f"{workload}.json").read_text())
    inst = data["instances"][i]
    coords = {int(v): (Fraction(x), Fraction(y))
              for v, (x, y) in inst["coords"].items()}
    edges = [tuple(e) for e in inst["edges"]]
    return Drawing(build_plane_graph_from_points(coords, edges), coords)


@pytest.mark.parametrize("workload, i", sorted(DIGESTS))
def test_convexify_on_bench_drawings_unchanged(workload, i):
    seq = convexify(bench_drawing(workload, i))
    assert event_digest(seq) == DIGESTS[workload, i]


# morph_engine._redraw calls per workload over the drawings of DIGESTS. A
# pocket's closing vertical redraw is the next pocket's first move, so only
# the last pocket of a run makes its own (see morph_engine.pop_pocket).
REDRAWS = {"already_convex": 0, "convex_outer": 10, "three_connected": 10,
           "buffered": 50}


def test_redraws_on_bench_drawings(monkeypatch):
    calls = []
    redraw = morph_engine._redraw

    def spy(*args):
        calls.append(args)
        return redraw(*args)

    monkeypatch.setattr(morph_engine, "_redraw", spy)
    counts = dict.fromkeys(REDRAWS, 0)
    for workload, i in sorted(DIGESTS):
        before = len(calls)
        convexify(bench_drawing(workload, i))
        counts[workload] += len(calls) - before
    assert counts == REDRAWS
