"""Seeded item generators and independent reference checks.

Each workload is a fixed cycle of item kinds.  The seed only draws the
numbers inside each kind, so every seed runs the same mix.  Item ``i`` of a
workload is generated from its own generator keyed by ``(seed, i)``, so the
same seed always gives byte-identical configs and any prefix of the stream
can be built without the rest.

The reference checks read an artifact and recompute what it claims with a
few lines of numpy.  None of them calls into ``ovfree``.
"""

import csv
import io
import json
import math

import numpy as np

WORKLOADS = ("convolve-cauchy", "certify-ov", "moments-short")

# Items kept in a run's pool; the closed loop wraps around it, and repeats of
# one config are compared byte for byte.  The moments-short pool is one that
# a run passes through about twice, so the moments caches reach the pool's
# working set in every run and peak memory does not depend on speed.
POOL_SIZE = {"convolve-cauchy": 60, "certify-ov": 96, "moments-short": 578}

# Configs re-run once after the timed loop to compare bytes.
RERUNS = {"convolve-cauchy": 1, "certify-ov": 2, "moments-short": 40}

_CAUCHY_LAM = 0.8
_DIRAC_LAM = 0.8
_SEMI_LAM = 0.4
# Certified image radii measured at these scales sit near lam / 30 for every
# law used here; r-eval targets stay within a quarter of that.
_R_EVAL_REACH = 0.25 / 30.0


# ---------------------------------------------------------------------------
# small numerics shared by generators and references


def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from(obj) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _r(x, digits=6) -> float:
    return round(float(x), digits)


def _hermitian(gen, norm: float, n: int) -> np.ndarray:
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    a = (a + a.conj().T) / 2.0
    if n == 1:
        a = a.real.astype(complex)
    a = norm * a / np.linalg.norm(a, 2)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        out[i, i] = _r(a[i, i].real)
        for j in range(i + 1, n):
            out[i, j] = complex(_r(a[i, j].real), _r(a[i, j].imag))
            out[j, i] = out[i, j].conjugate()
    return out


def base_point(lam: float, n_pairs: int, base_dim: int) -> np.ndarray:
    signs = np.repeat([1.0 if j % 2 == 0 else -1.0 for j in range(2 * n_pairs)],
                      base_dim)
    return np.diag(1j * lam * signs)


def _amplify(a: np.ndarray, dim: int) -> np.ndarray:
    return np.kron(np.eye(dim // a.shape[0]), a)


def _eta(coeffs, w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    for a in coeffs:
        big = _amplify(a, w.shape[0])
        out += big @ w @ big.conj().T
    return out


def _im_sign(w: np.ndarray) -> np.ndarray:
    """Matrix sign of the imaginary parts of the eigenvalues of w."""
    vals, vecs = np.linalg.eig(w)
    return vecs @ np.diag(np.sign(vals.imag)) @ np.linalg.inv(vecs)


def cauchy_G(loc: float, scale: float, b: np.ndarray) -> np.ndarray:
    """Cauchy transform by eigendecomposition, each pole from its own half-plane."""
    vals, vecs = np.linalg.eig(b)
    return vecs @ np.diag(1.0 / (vals - loc + 1j * scale * np.sign(vals.imag))) \
        @ np.linalg.inv(vecs)


def dirac_G(op: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.inv(b - _amplify(op, b.shape[0]))


def semicircular_G(coeffs, b: np.ndarray) -> np.ndarray:
    """The fixed point G = (b - eta(G))^-1, iterated from b^-1."""
    g = np.linalg.inv(b)
    for _ in range(10000):
        nxt = np.linalg.inv(b - _eta(coeffs, g))
        if np.abs(nxt - g).max() <= 1e-15 * max(1.0, np.abs(g).max()):
            return nxt
        g = nxt
    raise ArithmeticError("reference fixed point did not settle")


def _close(a, b, rtol: float) -> bool:
    return bool(np.linalg.norm(a - b) <= rtol * max(1.0, np.linalg.norm(b)))


def _omega_ok(b: np.ndarray, n_pairs: int, base_dim: int) -> bool:
    """Alternating block pattern with margin above the off-block norm."""
    if b.shape[0] != 2 * n_pairs * base_dim:
        return False
    block_diag = np.zeros_like(b)
    margins = []
    for j in range(2 * n_pairs):
        sl = slice(j * base_dim, (j + 1) * base_dim)
        block = (1.0 if j % 2 == 0 else -1.0) * b[sl, sl]
        margins.append(np.linalg.eigvalsh((block - block.conj().T) / 2j)[0])
        block_diag[sl, sl] = b[sl, sl]
    return min(margins) > np.linalg.norm(b - block_diag, 2)


# ---------------------------------------------------------------------------
# distributions: config object, G, and R = G^<-1>(w) - w^-1


def _dist_parts(obj):
    kind = obj["kind"]
    if kind == "scalar":
        return kind, (obj["law"]["location"], obj["law"]["scale"]), 1
    if kind == "dirac":
        op = matrix_from(obj["operator"])
        return kind, op, op.shape[0]
    coeffs = [matrix_from(a) for a in obj["coefficients"]]
    return kind, coeffs, coeffs[0].shape[0]


def _dist_G(kind, data, b):
    if kind == "scalar":
        return cauchy_G(data[0], data[1], b)
    if kind == "dirac":
        return dirac_G(data, b)
    return semicircular_G(data, b)


def _dist_R(kind, data, w):
    if kind == "scalar":
        return data[0] * np.eye(w.shape[0]) + 1j * data[1] * _im_sign(w)
    if kind == "dirac":
        return _amplify(data, w.shape[0])
    return _eta(data, w)


def _sum_parts(x, y):
    """The law of X + Y, known independently: scales, operators, covariances add."""
    kx, dx, base = _dist_parts(x)
    _, dy, _ = _dist_parts(y)
    if kx == "scalar":
        return kx, (dx[0] + dy[0], dx[1] + dy[1]), base
    if kx == "dirac":
        return kx, dx + dy, base
    return kx, list(dx) + list(dy), base


# ---------------------------------------------------------------------------
# generators


def _cauchy_law(gen) -> dict:
    return {"variant": "cauchy", "location": _r(gen.uniform(-0.002, 0.002)),
            "scale": _r(gen.uniform(0.010, 0.014))}


def _cauchy_law_unit(gen) -> dict:
    return {"variant": "cauchy", "location": _r(gen.uniform(-0.3, 0.3)),
            "scale": _r(gen.uniform(0.5, 1.5))}


def _config(command: str, params: dict) -> dict:
    # The program's own seed (certification directions, convolve targets)
    # stays 0: it moves a convolve item's cost by up to a factor of two, so
    # only the laws and matrices vary with the workload seed.
    return {"command": command, "seed": 0, "params": params, "output": "-"}


def _gen_convolve_cauchy(gen, kind):
    n_pairs, points = kind
    return _config("convolve", {
        "x": {"kind": "scalar", "law": _cauchy_law(gen)},
        "y": {"kind": "scalar", "law": _cauchy_law(gen)},
        "lam": _CAUCHY_LAM, "n_pairs": n_pairs, "points": points})


def _ov_dist(gen, family: str, base_dim: int, count: int, partner=None) -> dict:
    """A DiracB or OVSemicircular object with ``count`` covariance
    coefficients; a Dirac partner stays close to the first operator so that
    the two certified image balls overlap."""
    if family == "dirac":
        if partner is None:
            op = _hermitian(gen, gen.uniform(0.01, 0.03), base_dim)
        else:
            op = matrix_from(partner["operator"]) + _hermitian(gen, 0.005, base_dim)
        return {"kind": "dirac", "operator": matrix_json(op)}
    coeffs = [_hermitian(gen, gen.uniform(0.012, 0.025), base_dim)
              for _ in range(count)]
    return {"kind": "semicircular",
            "coefficients": [matrix_json(a) for a in coeffs]}


def _gen_certify_ov(gen, kind):
    command, family, base_dim, n_pairs, count, points, mc = kind
    lam = _DIRAC_LAM if family == "dirac" else _SEMI_LAM
    dist = _ov_dist(gen, family, base_dim, count)
    if command == "certify":
        return _config(command, {"dist": dist, "lam": lam, "n_pairs": n_pairs})
    if command == "r-eval":
        kind_, data, base = _dist_parts(dist)
        d = base_point(lam, n_pairs, base)
        center = _dist_G(kind_, data, d)
        dim = d.shape[0]
        y = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        w = center + gen.uniform(0.2, 1.0) * _R_EVAL_REACH * lam * y / np.linalg.norm(y)
        w = np.vectorize(lambda z: complex(_r(z.real, 9), _r(z.imag, 9)))(w)
        return _config(command, {"dist": dist, "lam": lam,
                                      "n_pairs": n_pairs, "w": matrix_json(w)})
    params = {"x": dist, "y": _ov_dist(gen, family, base_dim, 1, partner=dist),
              "lam": lam, "n_pairs": n_pairs, "points": points}
    if mc:
        params["mc"] = {"big_dim": 120, "trials": 4}
    return _config(command, params)


_ALPHABET = ((0.1, 1.0), (-0.3, 2.0), (0.5, 1.5), (0.0, 3.0), (0.2, 0.8))
_BUDGETS = (256, 1024, 4096)


def _gen_moments_short(gen, kind):
    name = kind[0]
    if name == "word":
        length = kind[1]
        n_vars = 3
        laws = [{"variant": "cauchy", "location": loc, "scale": scale}
                for loc, scale in ((0.0, 1.0), (0.2, 0.5), (-0.1, 0.8))]
        word = [[list(_ALPHABET[int(gen.integers(0, len(_ALPHABET)))]),
                 int(gen.integers(1, n_vars + 1))] for _ in range(length)]
        return _config("moments", {"word": word, "laws": laws, "mode": "free"})
    if name == "fbcs":
        count = int(gen.integers(3, 6))
        z_values = [list(_ALPHABET[int(gen.integers(0, len(_ALPHABET)))])
                    for _ in range(count)]
        indices = [int(gen.integers(1, 4)) for _ in range(count)]
        law = {"variant": "cauchy", "location": _r(gen.uniform(-0.5, 0.5)),
               "scale": _r(gen.uniform(0.5, 1.5))}
        return _config("fbcs", {"z_values": z_values, "indices": indices,
                                     "law": law})
    if name == "neumann":
        mode, budget = kind[1], kind[2]
        b = np.diag([complex(_r(gen.uniform(-0.2, 0.2)), _r(gen.uniform(1.2, 2.0)))
                     for _ in range(4)])
        for u in range(4):
            for v in range(4):
                if u != v:
                    b[u, v] = _r(gen.uniform(0.1, 0.2))
        law = _cauchy_law_unit(gen)
        laws = [law, law] if mode == "equal" else [law, _cauchy_law_unit(gen)]
        return _config("neumann", {"B": matrix_json(b), "laws": laws,
                                        "mode": mode, "p_max": 12,
                                        "path_budget": budget})
    if name == "truncate":
        variant = kind[1]
        if variant == "cauchy":
            law = _cauchy_law_unit(gen)
        elif variant == "semicircle":
            law = {"variant": "semicircle", "variance": _r(gen.uniform(2.0, 6.0))}
        else:
            law = {"variant": "bernoulli", "radius": _r(gen.uniform(1.5, 3.5)),
                   "center": 0.0}
        sign = 1.0 if gen.random() < 0.5 else -1.0
        b = np.array([[complex(_r(gen.uniform(-0.5, 0.5)), sign * _r(gen.uniform(1.5, 2.5))),
                       _r(gen.uniform(0.1, 0.4))],
                      [_r(gen.uniform(0.1, 0.4)),
                       complex(_r(gen.uniform(-0.5, 0.5)), sign * _r(gen.uniform(1.5, 2.5)))]])
        return _config("truncate-sweep", {"law": law, "b": matrix_json(b),
                                               "cutoffs": [1, 2, 4, 8, 16, 32]})
    count = int(gen.integers(2, 6))
    targets = [[_r(gen.uniform(-1.0, 1.0)), _r(gen.uniform(0.5, 3.0))]
               for _ in range(count)]
    return _config("killer", {"targets": targets})


# The cycles fix each workload's mix; see BENCHMARK.json for why.
_CYCLES = {
    # (n_pairs, points).  Eight in ten items are dim 2 with one point, so the
    # median and the tail order statistic fall among them rather than
    # between kinds; one two-point item runs the thread pool and one dim-4
    # item comes per cycle.
    "convolve-cauchy": ((1, 2), (1, 1), (1, 1), (1, 1), (1, 1),
                        (2, 1), (1, 1), (1, 1), (1, 1), (1, 1)),
    # (command, family, base_dim, n_pairs, coefficients, points, mc): light
    # Dirac items, one middle OV-semicircular kind and heavy OV-semicircular
    # items, a third each, so the median falls inside the middle kind and
    # the tail among the heavy items.
    "certify-ov": tuple(
        kind for light, heavy in zip(
            (("certify", "dirac", 1, 1, 0, 0, False),
             ("r-eval", "dirac", 2, 1, 0, 0, False),
             ("certify", "dirac", 2, 2, 0, 0, False),
             ("convolve", "dirac", 2, 1, 0, 2, False)),
            (("certify", "semicircular", 2, 2, 2, 0, False),
             ("convolve", "semicircular", 1, 1, 2, 2, True),
             ("r-eval", "semicircular", 2, 2, 1, 0, False),
             ("convolve", "semicircular", 2, 1, 1, 1, True)))
        for kind in (light, ("r-eval", "semicircular", 1, 2, 2, 0, False), heavy)),
    "moments-short": tuple(
        [("word", 6 + (j % 7)) for j in range(14)]
        + [("fbcs",)] * 3
        + [("truncate", v) for v in ("cauchy", "semicircle", "bernoulli")]
        + [("killer",)] * 2
        + [("neumann", mode, budget) for mode in ("equal", "classical", "boolean")
           for budget in _BUDGETS]
        + [("neumann", "free", budget) for budget in _BUDGETS]
    ),
}

_GENERATORS = {"convolve-cauchy": _gen_convolve_cauchy,
               "certify-ov": _gen_certify_ov,
               "moments-short": _gen_moments_short}


def cycle_length(workload: str) -> int:
    return len(_CYCLES[workload])


def item_kind(workload: str, index: int):
    cycle = _CYCLES[workload]
    return cycle[index % len(cycle)]


def make_item(workload: str, seed: int, index: int) -> dict:
    """Config number ``index`` of the workload's stream for ``seed``."""
    gen = np.random.default_rng([WORKLOADS.index(workload), seed, index])
    return _GENERATORS[workload](gen, item_kind(workload, index))


# ---------------------------------------------------------------------------
# reference checks: each returns None on success or a one-line reason


def _parse_csv(text: str):
    lines = text.split("\r\n")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return rows[0], [r for r in rows[1:] if r]


def _check_ball(ball: dict, kind, data, base_dim: int):
    d = base_point(ball["lam"], ball["n_pairs"], base_dim)
    if not _close(matrix_from(ball["center"]), np.linalg.inv(d), 1e-12):
        return "ball center is not d(lam)^-1"
    if not _close(matrix_from(ball["image_center"]), _dist_G(kind, data, d), 1e-9):
        return "image center differs from G(d(lam))"
    r, a, m = ball["chart_radius"], ball["jacobian_floor"], ball["variation"]
    if not (r > 0 and a > 0 and m > 0):
        return "non-positive certificate constant"
    if not math.isclose(ball["domain_radius"], r * r * a / (4 * m), rel_tol=1e-12):
        return "domain radius is not R^2 a / 4M"
    if not math.isclose(ball["image_radius"], r * r * a * a / (8 * m), rel_tol=1e-12):
        return "image radius is not R^2 a^2 / 8M"
    return None


def _check_certify(params, text):
    kind, data, base = _dist_parts(params["dist"])
    return _check_ball(json.loads(text)["result"], kind, data, base)


def _check_r_eval(params, text):
    result = json.loads(text)["result"]
    kind, data, base = _dist_parts(params["dist"])
    bad = _check_ball(result["ball"], kind, data, base)
    if bad:
        return bad
    w = matrix_from(params["w"])
    if not _close(matrix_from(result["value"]), _dist_R(kind, data, w), 1e-8):
        return "R(w) differs from the law's R-transform"
    return None


def _check_convolve(params, text):
    """The artifact carries w = G_{X+Y}(b) but not b; rebuild b from w with
    the sum law's own R-transform and require an alternating-pattern point
    whose transform, evaluated independently, gives w back."""
    header, rows = _parse_csv(text)
    if len(rows) != params["points"]:
        return f"{len(rows)} rows for {params['points']} points"
    kind, data, base = _sum_parts(params["x"], params["y"])
    dim = 2 * params["n_pairs"] * base
    if len(header) != 2 * dim * dim + 3:
        return "header does not match the dimension"
    for row in rows:
        vals = [float(v) for v in row[1:]]
        w = (np.array(vals[0:2 * dim * dim:2])
             + 1j * np.array(vals[1:2 * dim * dim:2])).reshape(dim, dim)
        discrepancy, budget = vals[-2], vals[-1]
        if not discrepancy <= 1e-7:
            return f"discrepancy {discrepancy:.3e} above 1e-7"
        if not (math.isfinite(budget) and budget >= 0.0
                and ("mc" in params or budget == 0.0)):
            return f"stderr budget {budget!r} does not match the mc setting"
        b = np.linalg.inv(w) + _dist_R(kind, data, w)
        if not _omega_ok(b, params["n_pairs"], base):
            return "rebuilt argument is not an alternating-pattern point"
        if not _close(_dist_G(kind, data, b), w, 1e-9):
            return "sum law's transform does not return w"
    return None


def _word_product(letters, laws) -> complex:
    """Letterwise product of Cauchy resolvents; every mode agrees with it."""
    out = 1.0 + 0.0j
    for z, law in zip(letters, laws):
        pole = law["location"] - 1j * law["scale"] * (1.0 if z.imag > 0 else -1.0)
        out /= z - pole
    return out


def _rel_ok(value: complex, ref: complex, rtol: float = 1e-9) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), 1e-300)


def _check_moments(params, text):
    result = json.loads(text)["result"]
    letters = [complex(*z) for z, _ in params["word"]]
    laws = [params["laws"][var - 1] for _, var in params["word"]]
    if not _rel_ok(complex(*result["value"]), _word_product(letters, laws)):
        return "word value differs from the letterwise product"
    return None


def _check_fbcs(params, text):
    _, rows = _parse_csv(text)
    letters = [complex(*z) for z in params["z_values"]]
    ref = _word_product(letters, [params["law"]] * len(letters))
    if sorted(r[0] for r in rows) != sorted(("equal", "classical", "free", "boolean")):
        return "fbcs rows do not cover the four modes"
    for row in rows:
        if not _rel_ok(complex(float(row[1]), float(row[2])), ref):
            return f"{row[0]} value differs from the letterwise product"
    return None


def _check_neumann(params, text):
    result = json.loads(text)["result"]
    b = matrix_from(params["B"])
    laws = params["laws"]
    diag = np.diagonal(b)
    poles = [laws[p % len(laws)]["location"]
             - 1j * laws[p % len(laws)]["scale"] * np.sign(diag[p].imag)
             for p in range(b.shape[0])]
    ref = np.linalg.inv(b - np.diag(poles))
    gap = np.linalg.norm(matrix_from(result["estimate"]) - ref, 2)
    if not gap <= result["tail_bound"] + 1e-12:
        return f"estimate is {gap:.3e} from (B - diag(poles))^-1, beyond the tail bound"
    return None


def _check_truncate(params, text):
    _, rows = _parse_csv(text)
    if len(rows) != len(params["cutoffs"]):
        return "one row per cutoff expected"
    errors = []
    for row in rows:
        error, bound = float(row[2]), float(row[3])
        if row[4] != "true" or not error <= bound:
            return f"cutoff {row[0]}: error {error:.3e} above bound {bound:.3e}"
        errors.append(error)
    if any(later > earlier + 1e-12 for earlier, later in zip(errors, errors[1:])):
        return "truncation errors are not monotone in the cutoff"
    return None


_KILLER_PROBES = (0.5j, 2j, 1.0 + 0.3j, -2.0 + 1.5j, 0.1 + 4j)


def _check_killer(params, text):
    result = json.loads(text)["result"]
    stages = [(s["shift"], s["radius"]) for s in result["stages"]]

    def jet(z):
        value, slope = z, 1.0 + 0.0j
        for shift, radius in stages:
            u = value - shift
            slope *= 1.0 + radius ** 2 / (u * u)
            value = u - radius ** 2 / u
        return value, slope

    for t in params["targets"]:
        if not abs(jet(complex(*t))[1]) <= 1e-8:
            return f"derivative at target {t} above 1e-8"
    if not (result["halfplane_check"]
            and all(jet(z)[0].imag > 0 for z in _KILLER_PROBES)):
        return "composition leaves the upper half-plane"
    return None


_CHECKS = {"certify": _check_certify, "r-eval": _check_r_eval,
           "convolve": _check_convolve, "moments": _check_moments,
           "fbcs": _check_fbcs, "neumann": _check_neumann,
           "truncate-sweep": _check_truncate, "killer": _check_killer}


def check(config: dict, text: str):
    """None when the artifact matches the reference, else the reason."""
    try:
        return _CHECKS[config["command"]](config["params"], text)
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        return f"artifact unreadable by the reference: {type(exc).__name__}: {exc}"
