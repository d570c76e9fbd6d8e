"""Output oracles of the qcflow benchmark.

Each check reads the files a CLI job wrote and returns a list of problems
(empty when the output is right). The checks parse the files themselves and
recompute what they compare against with plain NumPy, so they do not share
code with the program they judge.
"""

from __future__ import annotations

import json
import re

import numpy as np

REL_REF = 1e-6  # agreement with the committed seed-commit reference
ROUND_TRIP_MEDIAN = 0.02  # acceptance criterion 06 bounds
ROUND_TRIP_P90 = 0.05
# Prefix of a problem that is an accuracy bound missed by a valid output,
# as opposed to a wrong output.
ACCURACY = "accuracy bound missed: "


def read_obj(path):
    """(positions (V, 3), zero-based faces (F, 3), per-vertex uv or None)."""
    v, vt, f = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                v.append(line[2:])
            elif line.startswith("vt "):
                vt.append(line[3:])
            elif line.startswith("f "):
                f.append(line[2:])
    pos = np.array(" ".join(v).split(), dtype=float).reshape(-1, 3)
    refs = np.array(" ".join(f).replace("/", " ").split(), dtype=np.int64) - 1
    if not vt:
        return pos, refs.reshape(-1, 3), None
    refs = refs.reshape(-1, 3, 2)
    t = np.array(" ".join(vt).split(), dtype=float).reshape(-1, 2)
    uv = np.full(len(pos), np.nan + 0j)
    uv[refs[:, :, 0]] = t[refs[:, :, 1], 0] + 1j * t[refs[:, :, 1], 1]
    return pos, refs[:, :, 0], uv


def read_mu(path):
    entries = read_json(path)["mu"]
    mu = np.full(len(entries), np.nan + 0j)
    for e in entries:
        mu[e["i"]] = complex(e["re"], e["im"])
    return mu


def orientation(uv, faces):
    z = uv[faces]
    cross = np.imag(np.conj(z[:, 1] - z[:, 0]) * (z[:, 2] - z[:, 0]))
    bad = np.nonzero(~(cross > 0.0))[0]
    if bad.size:
        return [f"{bad.size} uv faces are not positively oriented "
                f"(first {bad[:8].tolist()})"]
    return []


def converged(report, eps):
    flow = report["flow"]
    if flow["converged"] and flow["residuals"][-1] < eps:
        return []
    return [f"flow not converged below {eps:g} "
            f"(final residual {flow['residuals'][-1]:.3e})"]


def rectangle_corners(uv, corners, h):
    want = np.array([0.0, 1.0, 1.0 + 1j * h, 1j * h])
    got = uv[corners]
    err = float(np.abs(got - want).max())
    if err > 1e-6:
        return [f"rectangle corners off by {err:.3e} (want 0, 1, 1+ih, ih "
                f"with h = {h:.9g})"]
    return []


def relative(got, want):
    return abs(got - want) / abs(want)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_flatten(c, stdout):
    report = read_json(c["report"])
    _, faces, uv = read_obj(c["out"])
    problems = converged(report, c["eps"]) + orientation(uv, faces)
    if "corners" in c:
        problems += rectangle_corners(uv, c["corners"], report["module"])
    if c.get("hyperbolic"):
        top = float(np.abs(uv).max())
        if not top < 1.0:
            problems.append(f"max |tau| = {top:.9g} is not below 1")
    ref = c.get("reference", {})
    if "module" in ref and relative(report["module"], ref["module"]) > REL_REF:
        problems.append(f"module {report['module']!r} differs from the "
                        f"reference {ref['module']!r}")
    if "periods" in ref:
        for key in ("za", "zb"):
            got, want = complex(*report["periods"][key]), complex(*ref["periods"][key])
            if relative(got, want) > REL_REF:
                problems.append(f"period {key} {got!r} differs from the "
                                f"reference {want!r}")
    return problems


def vertex_beltrami(z, w, faces):
    """Source-area-weighted vertex average of the per-face coefficient
    ``b / a`` of the affine maps ``w = a z + b conj(z)``."""
    dz1, dz2 = z[faces[:, 1]] - z[faces[:, 0]], z[faces[:, 2]] - z[faces[:, 0]]
    dw1, dw2 = w[faces[:, 1]] - w[faces[:, 0]], w[faces[:, 2]] - w[faces[:, 0]]
    det = dz1 * np.conj(dz2) - dz2 * np.conj(dz1)
    a = (dw1 * np.conj(dz2) - dw2 * np.conj(dz1)) / det
    b = (dz1 * dw2 - dz2 * dw1) / det
    area = np.abs(det.imag)
    idx, fmu = faces.ravel(), np.repeat(area * (b / a), 3)
    num = (np.bincount(idx, fmu.real, len(z))
           + 1j * np.bincount(idx, fmu.imag, len(z)))
    return num / np.bincount(idx, np.repeat(area, 3), len(z))


def check_qcmap(c, stdout):
    report = read_json(c["report"])
    _, faces, uv = read_obj(c["out"])
    problems = (converged(report, c["eps"]) + orientation(uv, faces)
                + rectangle_corners(uv, c["corners"], report["module"]))
    mu = read_mu(c["mu"])
    est = vertex_beltrami(np.load(c["flat"]), uv, faces)
    err = np.stack([np.abs(est.real - mu.real), np.abs(est.imag - mu.imag)])
    med = float(np.median(err, axis=1).max())
    p90 = float(np.percentile(err, 90, axis=1).max())
    if not (med < ROUND_TRIP_MEDIAN and p90 < ROUND_TRIP_P90):
        problems.append(f"{ACCURACY}round trip median error {med:.3e} "
                        f"(bound {ROUND_TRIP_MEDIAN}), p90 {p90:.3e} "
                        f"(bound {ROUND_TRIP_P90})")
    return problems


def check_estimate(c, stdout):
    est = read_mu(c["out"])
    k = complex(*c["k"])
    err = float(np.abs(est - k).max())
    problems = []
    if not err < 1e-9:
        problems.append(f"estimated mu differs from the affine k = {k:.6g} "
                        f"by up to {err:.3e}")
    rows = np.loadtxt(c["hist"], delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (len(est), 5) or not np.allclose(rows[:, 3], abs(k),
                                                      rtol=0, atol=1e-8):
        problems.append(f"histogram has shape {rows.shape} or wrong moduli")
    return problems


def check_compose(c, stdout):
    f, g = read_mu(c["mu_f"]), read_mu(c["mu_g"])
    want = (f + g) / (1.0 + np.conj(f) * g)
    err = float(np.abs(read_mu(c["out"]) - want).max())
    if not err < 1e-9:
        return [f"composed mu differs from (mu_f + mu_g) / "
                f"(1 + conj(mu_f) mu_g) by up to {err:.3e}"]
    return []


def check_compare(c, stdout):
    m = re.search(r"^distance (\S+)$", stdout, re.MULTILINE)
    if m is None:
        return ["no distance line on stdout"]
    got = float(m.group(1))
    if relative(got, c["distance"]) > 1e-7:
        return [f"distance {got!r} differs from the NumPy evaluation "
                f"{c['distance']!r}"]
    return []


CHECKS = {"flatten": check_flatten, "qcmap": check_qcmap,
          "estimate": check_estimate, "compose": check_compose,
          "compare": check_compare}


def check_job(job, rc, stdout, stderr, failures_allowed):
    """(ok, accepted, problems) of one finished job.

    ``ok``: the job exited 0 and its outputs passed every check.
    ``accepted``: the outcome is a correct behaviour of the program. Where the
    workload allows failures, that includes a typed ``QcflowError`` exit
    (code 1) and a valid output that misses an accuracy bound.
    """
    if rc != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        typed = rc == 1 and last.startswith("error: ")
        return False, typed and failures_allowed, [f"exit {rc}: {last}"]
    try:
        problems = CHECKS[job["check"]["kind"]](job["check"], stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    wrong = [p for p in problems if not p.startswith(ACCURACY)]
    return not problems, not wrong and (failures_allowed or not problems), problems
