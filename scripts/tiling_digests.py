"""Byte digests of a fixed grid of hyperbolic tiling builds.

    PYTHONPATH=src python3 scripts/tiling_digests.py > digests.txt

Prints one line per build: the family, its parameters and depth, then the
point count, ``patch_radius.hex()``, the sha256 of the serialized document
with every point set selected and the sha256 of that configuration's SVG in
the default render style, or the name of the exception the build raised.
The grid is seven triangle groups and six rotation tilings
(angles in degrees, then the order m), each at depths 0-6, apart from
(3,3,5), which stops at depth 5: 90 builds.  Two commits that print the same
lines build the same bytes, so a builder change that must keep its output
(same arithmetic, same heap order) is checked by diffing this script's
output before and after it; the SVG digests do the same for a change to
the renderer.
"""
from __future__ import annotations

import hashlib
import math

from balanced_configs.docio import document_from, serialize
from balanced_configs.generators import (
    RotationTilingFlags,
    RotationTilingParams,
    TriangleGroupFlags,
    TriangleGroupParams,
    _build_rotation_tiling,
    _build_triangle_group,
    gen_hyp_rotation_tiling,
    gen_hyp_triangle_group,
)
from balanced_configs.render import render_svg

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


def main():
    for name, build in _builds():
        try:
            config = build()
        except Exception as exc:
            print(name, type(exc).__name__, flush=True)
        else:
            sha = hashlib.sha256(serialize(document_from(config)).encode()).hexdigest()
            svg = hashlib.sha256(render_svg(config).encode()).hexdigest()
            print(name, config.n, config.patch_radius.hex(), sha, svg, flush=True)
        # each build is cached; drop it so memory stays at one build
        _build_triangle_group.cache_clear()
        _build_rotation_tiling.cache_clear()


if __name__ == "__main__":
    main()
