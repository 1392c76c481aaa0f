"""Fixed probe for the layers a traced workload never reaches.

Every traced run must report every per-layer metric, but no single workload
calls every module (planar-catalog never touches ``docio`` or the hyperbolic
generators, for example).  The probe makes one small call into each such
layer, with fixed inputs; the run lists which metrics came from it.
"""
from __future__ import annotations

import numpy as np

from balanced_configs.configs import FinitePointSet
from balanced_configs.generators import SubsetFlags, gen_sphere
from balanced_configs.verify import (
    check_min_distance_property,
    max_neighbor_count,
    verify_plane,
    verify_sphere,
)

from workloads import file_check, verdict_check


def run_probe(session, tracer):
    s = session
    s.begin_pass("probe")
    s.cli("probe.generate", [
        "generate", "--family", "hexagonal", "--sets", "vertices,midpoints,centers", "-o", "probe-hex.json",
    ], file_check(s, "probe-hex.json", head=b'"space": "euclidean2"'))
    s.cli("probe.verify", ["verify", "probe-hex.json"], verdict_check(0, "pass"))
    s.cli("probe.classify", ["classify", "probe-hex.json"], verdict_check(0, "HexWithMidpointsAndCenters"))
    s.cli("probe.symmetry", ["symmetry", "probe-hex.json"], verdict_check(0, "pass"))
    s.cli("probe.render", ["render", "probe-hex.json", "--window=-3,3,-3,3", "-o", "probe-hex.svg"],
          file_check(s, "probe-hex.svg"))
    s.cli("probe.generate", [
        "generate", "--family", "rotation-tiling", "--angles", "40,40,40", "--order", "3",
        "--depth", "4", "--sets", "vertices,mid_ab,mid_ac,mid_bc", "-o", "probe-rt.json",
    ], file_check(s, "probe-rt.json", head=b'"space": "hyperbolic2"'))
    s.cli("probe.verify", ["verify", "probe-rt.json", "--max-radius", "2.95", "--residual-tol", "1e-8"],
          verdict_check(0, "pass"))
    s.cli("probe.lemmas", ["lemmas"], verdict_check(0, "pass"))

    grid = np.stack(np.meshgrid(np.arange(24.0), np.arange(24.0), indexing="ij"), axis=-1).reshape(-1, 2)
    square = FinitePointSet("plane", grid)
    sphere = gen_sphere("icosahedron", SubsetFlags(True, True, True))
    with tracer.installed():
        s.call("probe.verify_plane", verify_plane, square, check=lambda r: r.passed)
        s.call("probe.max_neighbor_count", max_neighbor_count, square, check=lambda m: m == 4)
        s.call("probe.check_min_distance_property", check_min_distance_property, square,
               check=lambda r: r["attained"] and abs(r["min_d"] - 1.0) <= 1e-12)
        s.call("probe.verify_sphere", verify_sphere, sphere, check=lambda r: r.passed)
