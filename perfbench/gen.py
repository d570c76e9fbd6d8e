"""Seeded input generator for the qcflow benchmark.

Writes, for one workload, two input sets into ``--out``:

* ``ref``: the builders' meshes exactly, with the nominal mu phase and
  affine coefficient. The warm-up pass runs on these, so its module and
  torus periods can be compared with the committed ``reference.json``.
* ``run``: the same meshes with a small seeded jitter of the interior
  vertices, a seeded mu phase and a seeded affine coefficient. The timed
  passes run on these.

Each set gets OBJ and mu JSON inputs for the CLI, plus oracle data the CLI
never reads. ``manifest.json`` lists every job: its argv, its input vertex
count and the output check to run on it.

Run by ``run.py``; by hand:
``python3 perfbench/gen.py --workload flatten-16k --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import meshes  # noqa: E402  (tests/meshes.py builders)
from qcflow.mesh import build_mesh  # noqa: E402
from qcflow.metric import Geometry  # noqa: E402
from qcflow.pipeline import PresetKind, TargetPreset, cmd_flatten  # noqa: E402

EPS = 1e-8
BUMP = 0.3
JITTER = 0.02  # interior vertex jitter, as a share of the shortest edge
PHASE = 0.05  # largest seeded offset of the mu phase, in radians
SWEEP_K = (0.5, 0.7, 0.85, 0.95)

# (full, smoke) sizes
GRID = {"flatten-16k": (129, 17), "analyze-16k": (129, 17),
        "qcmap-sweep": (33, 17)}
TORUS = ((96, 64), (24, 16))
GENUS2_SCALE = (7, 2)


def write_obj(path, pos, faces, uv=None):
    """ASCII OBJ with every float printed exactly (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, pos, fmt="v %.17g %.17g %.17g")
        if uv is None:
            np.savetxt(fh, faces + 1, fmt="f %d %d %d")
        else:
            np.savetxt(fh, np.column_stack([uv.real, uv.imag]),
                       fmt="vt %.17g %.17g")
            np.savetxt(fh, np.repeat(faces + 1, 2, axis=1),
                       fmt="f %d/%d %d/%d %d/%d")


def write_mu(path, mu):
    entries = [{"i": i, "re": float(v.real), "im": float(v.imag)}
               for i, v in enumerate(mu)]
    Path(path).write_text(json.dumps({"mu": entries}) + "\n", encoding="utf-8")


def shortest_edge(pos, faces):
    e = pos[faces] - pos[np.roll(faces, -1, axis=1)]
    return float(np.linalg.norm(e, axis=2).min())


def jitter(pos, faces, movable, rng):
    """Move the ``movable`` vertices by up to JITTER shortest edges along
    each axis; ``rng`` None leaves the mesh as built."""
    pos = pos.copy()
    if rng is not None:
        step = JITTER * shortest_edge(pos, faces)
        pos[movable] += step * rng.uniform(-1.0, 1.0, (int(movable.sum()), 3))
    return pos


@functools.cache
def grid(n):
    return meshes.grid_mesh(n, n, bump=BUMP)


def bumped_grid(n, rng):
    """``grid_mesh(n, n, bump=0.3)`` with interior vertices jittered in the
    plane and lifted back onto the bump surface."""
    mesh = grid(n)
    inner = ~mesh.boundary_vertex_mask()
    pos = jitter(mesh.positions, mesh.faces, inner, rng)
    pos[:, 2] = BUMP * np.sin(np.pi * pos[:, 0]) * np.sin(np.pi * pos[:, 1])
    return pos, mesh.faces


def genus2_block(s):
    """Genus-2 voxel surface: a 5s x 3s x s block with two s x s holes."""
    solid = {(i, j, k) for i in range(5 * s) for j in range(3 * s)
             for k in range(s)}
    for x0 in (s, 3 * s):
        solid -= {(i, j, k) for i in range(x0, x0 + s)
                  for j in range(s, 2 * s) for k in range(s)}
    return meshes.voxel_surface(solid)


def corner_arg(corners):
    return ",".join(str(c) for c in corners)


def flow_job(name, d, inp, preset, vertices, extra=(), **check):
    out, rep = str(d / f"{name}-out.obj"), str(d / f"{name}-report.json")
    argv = ["flatten", "--input", str(inp), "--preset", preset,
            "--eps", repr(EPS), *extra, "--out", out, "--report", rep]
    return {"name": name, "argv": argv, "vertices": vertices,
            "outputs": [out, rep],
            "check": {"kind": "flatten", "out": out, "report": rep,
                      "eps": EPS, **check}}


def gen_flatten(d, rng, smoke):
    n = GRID["flatten-16k"][smoke]
    pos, faces = bumped_grid(n, rng)
    write_obj(d / "grid.obj", pos, faces)
    corners = meshes.grid_corners(n, n)
    return [flow_job("flatten", d, d / "grid.obj", "rectangle", n * n,
                     extra=["--corners", corner_arg(corners)],
                     corners=list(corners))]


def gen_closed(d, rng, smoke):
    torus = meshes.embedded_torus(*TORUS[smoke])
    genus2 = genus2_block(GENUS2_SCALE[smoke])
    jobs = []
    for name, mesh, preset, extra in (
            ("torus", torus, "closed-flat", []),
            ("genus2", genus2, "closed-hyperbolic",
             ["--geometry", "hyperbolic"])):
        movable = np.ones(mesh.n_vertices, dtype=bool)
        write_obj(d / f"{name}.obj",
                  jitter(mesh.positions, mesh.faces, movable, rng), mesh.faces)
        jobs.append(flow_job(name, d, d / f"{name}.obj", preset,
                             mesh.n_vertices, extra=extra,
                             hyperbolic=preset == "closed-hyperbolic"))
    return jobs


def gen_analyze(d, rng, smoke):
    n = GRID["analyze-16k"][smoke]
    pos, faces = bumped_grid(n, rng)
    z = pos[:, 0] + 1j * pos[:, 1]
    if rng is None:
        k, psi = 0.4 * np.exp(0.25j * np.pi), 0.0
    else:
        k = rng.uniform(0.3, 0.5) * np.exp(2j * np.pi * rng.uniform())
        psi = rng.uniform(0.0, 2.0 * np.pi)
    w = z + k * np.conj(z)
    mu_g = (0.3 * np.sin(np.pi * pos[:, 0]) * np.sin(np.pi * pos[:, 1])
            * np.exp(1j * (2.0 * np.pi * pos[:, 1] + psi)))
    src, dst, plain = d / "src.obj", d / "dst.obj", d / "plain.obj"
    write_obj(src, pos, faces, uv=z)
    write_obj(dst, pos, faces, uv=w)
    write_obj(plain, pos, faces)
    write_mu(d / "g.json", mu_g)

    # Independent evaluation of the normalized L1 distance of the two charts.
    p = pos[faces]
    areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                                 axis=1)
    dev = np.abs(z - w)[faces].mean(axis=1)
    diag = float(np.linalg.norm(pos.max(axis=0) - pos.min(axis=0)))
    distance = float((areas * dev).sum() / (diag * areas.sum()))

    est, hist, comp = str(d / "est.json"), str(d / "hist.csv"), str(d / "comp.json")
    nv = n * n
    return [
        {"name": "estimate-mu", "vertices": nv, "outputs": [est, hist],
         "argv": ["estimate-mu", "--src", str(src), "--dst", str(dst),
                  "--out", est, "--hist", hist],
         "check": {"kind": "estimate", "out": est, "hist": hist,
                   "k": [k.real, k.imag]}},
        {"name": "compose-mu", "vertices": nv, "outputs": [comp],
         "argv": ["compose-mu", "--mu-f", est, "--mu-g", str(d / "g.json"),
                  "--f-src", str(src), "--f-dst", str(dst), "--out", comp],
         "check": {"kind": "compose", "out": comp, "mu_f": est,
                   "mu_g": str(d / "g.json")}},
        {"name": "compare", "vertices": nv, "outputs": [],
         "argv": ["compare", "--a", str(src), "--b", str(dst),
                  "--mesh", str(plain)],
         "check": {"kind": "compare", "distance": distance}},
    ]


def gen_sweep(d, rng, smoke):
    n = GRID["qcmap-sweep"][smoke]
    pos, faces = bumped_grid(n, rng)
    write_obj(d / "grid.obj", pos, faces)
    corners = meshes.grid_corners(n, n)
    # Conformal chart of the same mesh: the source of the round-trip check.
    flat = cmd_flatten(build_mesh(faces, pos), Geometry.EUCLIDEAN,
                       TargetPreset(PresetKind.RECTANGLE, corners))
    np.save(d / "flat.npy", flat.param.coords)
    phi = 0.0 if rng is None else rng.uniform(-PHASE, PHASE)
    x, y = pos[:, 0], pos[:, 1]
    fields = {
        "const": lambda k: np.full(n * n, k * np.exp(1j * (0.25 * np.pi + phi))),
        "smooth": lambda k: (k * np.sin(np.pi * x) * np.sin(np.pi * y)
                             * np.exp(1j * (2.0 * np.pi * x + phi))),
    }
    jobs = []
    for kind, field in fields.items():
        for k in SWEEP_K:
            name = f"qcmap-{kind}-{k:.2f}"
            mu = d / f"mu-{kind}-{k:.2f}.json"
            write_mu(mu, field(k))
            out, rep = str(d / f"{name}-out.obj"), str(d / f"{name}-report.json")
            jobs.append({
                "name": name, "vertices": n * n, "outputs": [out, rep],
                "argv": ["qcmap", "--input", str(d / "grid.obj"),
                         "--mu", str(mu), "--preset", "rectangle",
                         "--corners", corner_arg(corners), "--eps", repr(EPS),
                         "--out", out, "--report", rep],
                "check": {"kind": "qcmap", "out": out, "report": rep,
                          "eps": EPS, "corners": list(corners),
                          "flat": str(d / "flat.npy"), "mu": str(mu)}})
    return jobs


# name -> (generator, typed QcflowError exits are accepted outcomes)
WORKLOADS = {
    "flatten-16k": (gen_flatten, False),
    "analyze-16k": (gen_analyze, False),
    "qcmap-sweep": (gen_sweep, True),
    "closed-6k": (gen_closed, False),
}


def generate(workload, seed, out, smoke=False):
    gen, failures_allowed = WORKLOADS[workload]
    refs = json.loads((Path(__file__).parent / "reference.json")
                      .read_text(encoding="utf-8"))
    refs = refs["smoke" if smoke else "full"]
    sets = {}
    for name, rng in (("ref", None), ("run", np.random.default_rng(seed))):
        d = Path(out) / name
        d.mkdir(parents=True, exist_ok=True)
        jobs = gen(d, rng, int(smoke))
        if rng is None:
            for job in jobs:
                ref = refs.get(f"{workload}/{job['name']}")
                if ref:
                    job["check"]["reference"] = ref
        sets[name] = jobs
    manifest = {"workload": workload, "seed": seed, "smoke": smoke,
                "failures_allowed": failures_allowed, "sets": sets}
    (Path(out) / "manifest.json").write_text(json.dumps(manifest, indent=1),
                                             encoding="utf-8")
    return manifest


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
