"""The two seeded workloads, with their inputs, passes and correctness gates.

Each workload builds its inputs from the seed alone; the program only ever
sees the generated inputs.  A *pass* runs every op of the workload once over
a fixed set of inputs, so the work per pass does not depend on the seed or
on how many passes fit in a run.  Every pass holds one negative control: an
input with one point moved by 1e-3 that must be reported as a failure.
"""
from __future__ import annotations

import json
import math

import numpy as np

from balanced_configs.classify import (
    HEX_VERTICES,
    HEX_WITH_MIDPOINTS,
    HEX_WITH_MIDPOINTS_AND_CENTERS,
    LATTICE,
    LATTICE_WITH_MIDPOINTS,
    TRIANGULAR_LATTICE,
    classify,
    is_group_balanced,
    regenerate,
)
from balanced_configs.configs import PatchConfig, PeriodicConfig, contains_many
from balanced_configs.docio import document_from, serialize
from balanced_configs.generators import (
    SubsetFlags,
    TriangleGroupFlags,
    TriangleGroupParams,
    gen_hexagonal,
    gen_hyp_triangle_group,
    gen_lattice,
    gen_triangular,
)
from balanced_configs.geometry import Tolerance
from balanced_configs.verify import VerifyParams, verify_plane

from session import digest

DISPLACEMENT = 1e-3
# A 1e-3 displacement scatters shell distances at that scale, so unrelated
# shells can meet near the default 1e-6 class width and trip the ambiguity
# guard; negative controls use a much finer class width, as the displacement
# acceptance test does (1e-8 on the CLI, whose dedup_tol is fixed at 1e-9).
FINE_PARAMS = VerifyParams(
    max_radius=6.0, tol=Tolerance(class_tol=1e-9, residual_tol=1e-9, dedup_tol=1e-12)
)
ALL_SETS = SubsetFlags(vertices=True, edge_midpoints=True, face_centers=True)


def displace(points, index, rng):
    """Copy of points with points[index] moved by DISPLACEMENT in a seeded direction."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    moved = np.array(points, dtype=float)
    moved[index, :2] += DISPLACEMENT * np.array([math.cos(angle), math.sin(angle)])
    return moved


def verdict_check(rc_expected, verdict, **details):
    """Gate for a CLI JSON report: exit code, verdict and detail fields."""
    def check(rc, stdout):
        report = json.loads(stdout)
        got = {k: report["details"].get(k) for k in details}
        ok = rc == rc_expected and report["verdict"] == verdict and got == details
        return ok, f"verdict {report['verdict']!r} {got}", digest(stdout)
    return check


def random_oblique_basis(rng):
    # narrow ranges keep the enumeration work per lattice nearly seed-independent
    angle = rng.uniform(math.radians(70.0), math.radians(80.0))
    ratio = rng.uniform(1.2, 1.4)
    return (1.0, 0.0), (ratio * math.cos(angle), ratio * math.sin(angle))


def random_similarity(rng):
    return {
        "rotation": float(rng.uniform(0.0, 2.0 * math.pi)),
        "translation": tuple(float(x) for x in rng.uniform(-5.0, 5.0, 2)),
        "scale": float(rng.uniform(0.5, 2.0)),
    }


class Workload:
    name = ""
    uses_cli = False  # peak RSS is read per child on CLI workloads

    def __init__(self, session, seed):
        self.s = session
        self.seed = seed

    def prepare(self):
        """Seeded input generation (part of set-up)."""

    def warm(self):
        """Warm-up before the timed loop (part of set-up)."""

    def run_pass(self):
        raise NotImplementedError

    def stage_calls(self):
        """One generate, verify and render CLI call on this workload's input,
        made untimed after every pass.

        On the CLI workload these calls are part of every pass already.
        """

    def replay(self, tracer):
        """Extra traced work that splits a layer's time (traced runs only)."""

    def write_document(self, name, config):
        with open(self.s.path(name), "w", encoding="utf-8") as fh:
            fh.write(serialize(document_from(config)))


class HypTiling(Workload):
    """CLI pipeline on the (30,40,50) degree, m=3, depth-6 rotation tiling."""

    name = "hyp-tiling"
    uses_cli = True
    GENERATE = [
        "generate", "--family", "rotation-tiling", "--angles", "30,40,50", "--order", "3",
        "--depth", "6", "--sets", "vertices,mid_ab,mid_ac,mid_bc", "-o", "tiling.json",
    ]
    CUTOFF = 1.95
    VERIFY = ["verify", "tiling.json", "--max-radius", "1.95", "--residual-tol", "1e-8"]
    RENDER = ["render", "tiling.json", "-o", "tiling.svg"]
    NEGATIVE = [
        "verify", "negative.json", "--max-radius", "1.85", "--residual-tol", "1e-8",
        "--class-tol", "1e-8",
    ]
    # counts of the seed commit; they repeat exactly for every seed
    POINTS = 67882
    DOC_BYTES = 4906220
    VERIFIED = 3139
    CLASSES = 41301

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        tg = gen_hyp_triangle_group(
            TriangleGroupParams(2, 3, 7, 6), TriangleGroupFlags(True, True, True)
        )
        bases = np.nonzero(tg.patch_radius - tg.center_dists() >= 1.85 - 1e-12)[0]
        moved = displace(tg.points, int(rng.choice(bases)), rng)
        self.write_document("negative.json", PatchConfig(moved, tg.patch_radius, labels=tg.labels))

    def warm(self):
        self.s.cli("cli.help", ["--help"], help_check)

    def run_pass(self):
        s = self.s
        s.cli("cli.generate", self.GENERATE, self._check_document)
        s.cli("cli.verify", self.VERIFY, verdict_check(
            0, "pass", verified_points=self.VERIFIED, classes_checked=self.CLASSES))
        s.cli("cli.render", self.RENDER, file_check(s, "tiling.svg"))
        s.cli("cli.verify.negative", self.NEGATIVE, verdict_check(1, "fail"))

    def _check_document(self, rc, stdout):
        data = self.s.read("tiling.json")
        points = len(json.loads(data)["points"])
        ok = rc == 0 and points == self.POINTS and len(data) == self.DOC_BYTES
        return ok, f"{points} points, {len(data)} bytes", digest(data)

    def replay(self, tracer):
        """Re-enumerate every verified base through configs.distance_classes.

        verify_hyperbolic clusters its own distance matrix, so this replay
        is what splits its time into enumeration and residual work.
        """
        from balanced_configs import configs, docio

        config = docio.to_runtime(docio.parse_config(self.s.read("tiling.json").decode("utf-8")))
        tol = Tolerance(class_tol=1e-6, residual_tol=1e-8, dedup_tol=1e-9)
        bases = config.points[config.patch_radius - config.center_dists() >= self.CUTOFF - 1e-12]

        def enumerate_all():
            return sum(len(configs.distance_classes(config, b, self.CUTOFF, tol)) for b in bases)

        with tracer.installed():
            self.s.call("replay.distance_classes", enumerate_all,
                        check=lambda classes: classes == self.CLASSES)


def help_check(rc, stdout):
    return rc == 0 and b"usage:" in stdout, "help text", digest(stdout)


def file_check(session, name, rc_expected=0, head=b"<svg"):
    """Gate for a CLI call that writes a file: exit code and file content."""
    def check(rc, stdout):
        data = session.read(name)
        return rc == rc_expected and head in data[:256], f"{len(data)} bytes", digest(data)
    return check


def _planar_families(rng):
    """(expected tag, seeded maker) for the six periodic planar families."""
    return (
        (TRIANGULAR_LATTICE, lambda: gen_triangular(float(rng.uniform(0.5, 2.0)))),
        (LATTICE, lambda: PeriodicConfig(np.array(random_oblique_basis(rng)), [(0.0, 0.0)])),
        (LATTICE_WITH_MIDPOINTS,
         lambda: gen_lattice(*random_oblique_basis(rng), SubsetFlags(True, True, False))),
        (HEX_VERTICES,
         lambda: gen_hexagonal(float(rng.uniform(0.5, 2.0)), SubsetFlags(True, False, False))),
        (HEX_WITH_MIDPOINTS,
         lambda: gen_hexagonal(float(rng.uniform(0.5, 2.0)), SubsetFlags(True, True, False))),
        (HEX_WITH_MIDPOINTS_AND_CENTERS, lambda: gen_hexagonal(float(rng.uniform(0.5, 2.0)), ALL_SETS)),
    )


def _report_output(report):
    return (report.passed, report.verified_points, len(report.checks), report.worst_residual)


class PlanarCatalog(Workload):
    """Periodic configurations from the six planar families, in process."""

    name = "planar-catalog"
    # every family in every supercell shape, so the motif sizes (1 to 24) and
    # hence the work per pass are the same for every seed
    SUPERCELLS = ((1, 1), (2, 1), (1, 2), (2, 2))
    PROBES = 200

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.items = []
        for tag, make in _planar_families(rng):
            for na, nb in self.SUPERCELLS:
                config = make().supercell(na, nb).transformed(**random_similarity(rng))
                cart = config.cartesian_motif()
                cells = rng.integers(-8, 9, (self.PROBES, 2)).astype(float)
                probes = cart[rng.integers(0, config.k, self.PROBES)] + cells @ config.basis
                self.items.append((tag, config, probes))
        _, config, _ = self.items[int(rng.integers(len(self.items)))]
        if config.k == 1:
            config = config.supercell(2, 1)
        cart = displace(config.cartesian_motif(), 0, rng)
        self.negative = PeriodicConfig(config.basis, cart @ np.linalg.inv(config.basis))
        basis = random_oblique_basis(rng)
        self.stage_basis = ";".join(",".join(repr(float(x)) for x in row) for row in basis)

    def warm(self):
        self._configuration(*self.items[0])

    def _configuration(self, tag, config, probes):
        s = self.s
        s.call("verify_plane", verify_plane, config, check=lambda r: r.passed, output=_report_output)
        result = s.call("classify", classify, config, check=lambda r: r.tag == tag,
                        output=lambda r: repr(r))
        regen = s.call("regenerate", regenerate, result,
                       output=lambda c: (c.basis.tobytes(), c.motif.tobytes()))
        s.call("contains_many", contains_many, regen, probes, check=lambda m: bool(m.all()))
        s.call("is_group_balanced", is_group_balanced, config, check=lambda g: g.verdict,
               output=lambda g: repr(g))

    def run_pass(self):
        for item in self.items:
            self._configuration(*item)
        self.s.call("verify_plane.negative", verify_plane, self.negative, FINE_PARAMS,
                    check=lambda r: not r.passed and r.worst_residual >= 1e-4)

    def stage_calls(self):
        s = self.s
        s.cli("cli.generate", [
            "generate", "--family", "lattice", "--basis", self.stage_basis,
            "--sets", "vertices,midpoints", "-o", "stage.json",
        ], file_check(s, "stage.json", head=b'"space": "euclidean2"'))
        s.cli("cli.verify", ["verify", "stage.json"], verdict_check(0, "pass"))
        s.cli("cli.render", ["render", "stage.json", "--window=-4,4,-4,4", "-o", "stage.svg"],
              file_check(s, "stage.svg"))


WORKLOADS = {cls.name: cls for cls in (HypTiling, PlanarCatalog)}
