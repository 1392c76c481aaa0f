"""Byte digests of a fixed grid of generator builds.

    PYTHONPATH=src python3 scripts/tiling_digests.py > digests.txt
    PYTHONPATH=src python3 scripts/tiling_digests.py --against digests.txt

Prints one line per build: the family, its parameters, then the point count,
the sha256 of the serialized document and, where the line has one, the
sha256 of that configuration's SVG, or the name of the exception the build
raised.

* Hyperbolic tilings with every point set selected, with ``patch_radius.hex()``
  and the SVG in the default render style: seven triangle groups and six
  rotation tilings (angles in degrees, then the order m), each at depths 0-6,
  apart from (3,3,5), which stops at depth 5: 90 builds.
* The point-set selection of every family that selects by flags:
  ``gen_lattice`` on one oblique basis and ``gen_hexagonal``, each under the
  seven subsets of vertices, edge midpoints and face centres, with the SVG of
  a fixed window; ``gen_sphere`` on the five Platonic kinds and ``ngon(5)``
  under the same seven subsets; and the depth-4 (30, 40, 50) rotation tiling
  under the 15 subsets of its four flags: 71 builds.

Two commits that print the same lines build the same bytes, so a builder
change that must keep its output (same arithmetic, same heap order, same
selection order) is checked by comparing this script's output before and
after it; the SVG digests do the same for a change to the renderer.  With
``--against FILE`` the script prints only the lines that differ from a
saved run, as a unified diff with no context (``-`` saved, ``+`` now), and
exits 1 on any difference, 0 when every line matches.
"""
from __future__ import annotations

import argparse
import difflib
import hashlib
import itertools
import math
import sys

from balanced_configs.docio import document_from, serialize
from balanced_configs.generators import (
    RotationTilingFlags,
    RotationTilingParams,
    SubsetFlags,
    TriangleGroupFlags,
    TriangleGroupParams,
    _build_rotation_tiling,
    _build_triangle_group,
    gen_hexagonal,
    gen_hyp_rotation_tiling,
    gen_hyp_triangle_group,
    gen_lattice,
    gen_sphere,
)
from balanced_configs.render import RenderStyle, render_svg

TRIANGLE_GROUPS = ((2, 3, 7), (2, 4, 5), (3, 3, 4), (2, 3, 8), (4, 4, 4), (2, 5, 5), (3, 3, 5))
ROTATION_TILINGS = (
    ((40, 40, 40), 3),
    ((30, 40, 50), 3),
    ((20, 30, 40), 4),
    ((60, 30, 30), 3),
    ((25, 25, 40), 4),
    ((10, 20, 42), 5),
)
MAX_DEPTH = {(3, 3, 5): 5}
SPHERE_KINDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron", "ngon(5)")
OBLIQUE_BASIS = ((1.0, 0.0), (0.3, 1.3))
PLANAR_WINDOW = RenderStyle(window=((-2.0, 2.0), (-2.0, 2.0)))


def _subsets(count):
    """Every nonempty tuple of count flags, in binary counting order."""
    for bits in range(1, 2**count):
        yield tuple(bool(bits >> (count - 1 - i) & 1) for i in range(count))


def _name(flags):
    return "+".join(f for f in flags.__dataclass_fields__ if getattr(flags, f))


def _builds():
    for pqr in TRIANGLE_GROUPS:
        for depth in range(MAX_DEPTH.get(pqr, 6) + 1):
            yield (
                "triangle-group %d,%d,%d depth=%d" % (pqr + (depth,)),
                lambda pqr=pqr, depth=depth: gen_hyp_triangle_group(
                    TriangleGroupParams(*pqr, depth), TriangleGroupFlags(True, True, True)
                ),
            )
    for angles, m in ROTATION_TILINGS:
        for depth in range(7):
            yield (
                "rotation-tiling %d,%d,%d m=%d depth=%d" % (angles + (m, depth)),
                lambda angles=angles, m=m, depth=depth: gen_hyp_rotation_tiling(
                    RotationTilingParams(*(math.radians(a) for a in angles), m, depth),
                    RotationTilingFlags(True, True, True, True),
                ),
            )


def _selections():
    """(name, build, render style or None) of each point-set selection."""
    for bits in _subsets(3):
        flags = SubsetFlags(*bits)
        yield "lattice %s" % _name(flags), lambda f=flags: gen_lattice(*OBLIQUE_BASIS, f), PLANAR_WINDOW
        yield "hexagonal %s" % _name(flags), lambda f=flags: gen_hexagonal(1.0, f), PLANAR_WINDOW
    for kind, bits in itertools.product(SPHERE_KINDS, _subsets(3)):
        flags = SubsetFlags(*bits)
        yield "sphere %s %s" % (kind, _name(flags)), lambda k=kind, f=flags: gen_sphere(k, f), None
    params = RotationTilingParams(*(math.radians(a) for a in (30, 40, 50)), 3, 4)
    for bits in _subsets(4):
        flags = RotationTilingFlags(*bits)
        name = "rotation-tiling 30,40,50 m=3 depth=4 %s" % _name(flags)
        yield name, lambda f=flags: gen_hyp_rotation_tiling(params, f), None


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _lines():
    """The output lines, one per build, in order."""
    for name, build in _builds():
        try:
            config = build()
        except Exception as exc:
            yield f"{name} {type(exc).__name__}"
        else:
            sha = _sha(serialize(document_from(config)))
            svg = _sha(render_svg(config))
            yield f"{name} {config.n} {config.patch_radius.hex()} {sha} {svg}"
        # each build is cached; drop it so memory stays at one build
        _build_triangle_group.cache_clear()
        _build_rotation_tiling.cache_clear()
    for name, build, style in _selections():
        try:
            config = build()
        except Exception as exc:
            yield f"{name} {type(exc).__name__}"
        else:
            line = [name, len(config.labels), _sha(serialize(document_from(config)))]
            if style is not None:
                line.append(_sha(render_svg(config, style)))
            yield " ".join(map(str, line))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Byte digests of a fixed grid of generator builds.")
    parser.add_argument("--against", metavar="FILE", help="print only the lines that differ from a saved run")
    args = parser.parse_args(argv)
    if args.against is None:
        for line in _lines():
            print(line, flush=True)
        return 0
    with open(args.against) as f:
        saved = f.read().splitlines()
    diff = list(difflib.unified_diff(saved, list(_lines()), args.against, "now", n=0, lineterm=""))
    for line in diff:
        print(line)
    print(f"{len(saved)} saved lines: {'they differ' if diff else 'all the same'}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
