"""Batch driver: JSON experiment configs in, CSV/JSON artifacts out.

Every experiment keys off a config object ``{command, seed, params,
output}``; the config is schema-validated, dispatched, and the artifact is
written with an embedded meta header carrying the sha256 of the canonical
config and the tool version, so any artifact can later be matched against
the config that produced it (``ovfree verify``).  Each schema is checked
against its metaschema once per process, on first use, not at import.
``moments`` and ``killer`` also have direct flag forms for one-off
evaluation.

Exit codes: 0 success, 2 config/schema error, 3 numerical failure (the
originating error is printed as JSON on stderr).  ``OVFREE_THREADS`` caps
worker threads; results are collected in submission order, so concurrency
never changes the artifact.
"""

import argparse
import ast
import hashlib
import io
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import numpy as np
from jsonschema.validators import validator_for

from . import __version__, convolution, linalg, measures, moments, ovdist, transforms
from . import killer as killermod
from .errors import OvfreeError

_COMPLEX = {"type": "array", "minItems": 2, "maxItems": 2,
            "items": {"type": "number"}}
_MATRIX = {"type": "object", "required": ["dim", "re", "im"],
           "additionalProperties": False,
           "properties": {"dim": {"type": "integer", "minimum": 1},
                          "re": {"type": "array"}, "im": {"type": "array"}}}
_LAW = {"type": "object", "required": ["variant"],
        "properties": {"variant": {"type": "string"}}}
_DIST = {"type": "object", "required": ["kind"], "additionalProperties": False,
         "properties": {
             "kind": {"enum": ["scalar", "dirac", "semicircular"]},
             "law": _LAW, "base_dim": {"type": "integer", "minimum": 1},
             "operator": _MATRIX,
             "coefficients": {"type": "array", "items": _MATRIX, "minItems": 1}}}
_SCALED_INVERSE = {"type": "object", "required": ["kind", "factor"],
                   "additionalProperties": False,
                   "properties": {"kind": {"const": "scaled-inverse"},
                                  "factor": {"type": "number"}}}

PARAM_SCHEMAS = {
    "g-eval": {
        "type": "object", "required": ["dist", "b"],
        "additionalProperties": False,
        "properties": {"dist": _DIST, "b": _MATRIX}},
    "r-eval": {
        "type": "object", "required": ["dist", "lam", "n_pairs", "w"],
        "additionalProperties": False,
        "properties": {"dist": _DIST,
                       "lam": {"type": "number", "exclusiveMinimum": 0},
                       "n_pairs": {"type": "integer", "minimum": 1},
                       "w": _MATRIX}},
    "certify": {
        "type": "object", "required": ["dist", "lam", "n_pairs"],
        "additionalProperties": False,
        "properties": {"dist": _DIST,
                       "lam": {"type": "number", "exclusiveMinimum": 0},
                       "n_pairs": {"type": "integer", "minimum": 1}}},
    "convolve": {
        "type": "object", "required": ["x", "y", "lam", "n_pairs", "points"],
        "additionalProperties": False,
        "properties": {"x": _DIST, "y": _DIST,
                       "lam": {"type": "number", "exclusiveMinimum": 0},
                       "n_pairs": {"type": "integer", "minimum": 1},
                       "points": {"type": "integer", "minimum": 1},
                       "mc": {"type": "object", "additionalProperties": False,
                              "properties": {
                                  "big_dim": {"type": "integer", "minimum": 2},
                                  "trials": {"type": "integer", "minimum": 2}}}}},
    "truncate-sweep": {
        "type": "object", "required": ["law", "b"],
        "additionalProperties": False,
        "properties": {"law": _LAW, "b": _MATRIX,
                       "cutoffs": {"type": "array", "minItems": 1,
                                   "items": {"type": "number",
                                             "exclusiveMinimum": 0}}}},
    "moments": {
        "type": "object", "required": ["word", "laws", "mode"],
        "additionalProperties": False,
        "properties": {
            "word": {"type": "array", "minItems": 1,
                     "items": {"type": "array", "minItems": 2, "maxItems": 2,
                               "prefixItems": [
                                   _COMPLEX, {"type": "integer", "minimum": 1}]}},
            "laws": {"type": "array", "items": _LAW, "minItems": 1},
            "mode": {"enum": list(moments.MODES)}}},
    "fbcs": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "z_values": {"type": "array", "items": _COMPLEX, "minItems": 1},
            "indices": {"type": "array", "minItems": 1,
                        "items": {"type": "integer", "minimum": 1}},
            "law": _LAW}},
    "neumann": {
        "type": "object", "required": ["B", "laws", "mode", "p_max"],
        "additionalProperties": False,
        "properties": {"B": _MATRIX,
                       "laws": {"type": "array", "items": _LAW, "minItems": 1},
                       "mode": {"enum": list(moments.MODES)},
                       "p_max": {"type": "integer", "minimum": 0},
                       "path_budget": {"type": "integer", "minimum": 1}}},
    "killer": {
        "type": "object", "required": ["targets"],
        "additionalProperties": False,
        "properties": {"targets": {"type": "array", "items": _COMPLEX,
                                   "minItems": 1}}},
    "block-identity": {
        "type": "object", "required": ["law", "B"],
        "additionalProperties": False,
        "properties": {"law": _LAW, "B": _MATRIX}},
    "convergence": {
        "type": "object", "required": ["dists", "probes", "limit"],
        "additionalProperties": False,
        "properties": {"dists": {"type": "array", "items": _DIST, "minItems": 1},
                       "probes": {"type": "array", "items": _MATRIX,
                                  "minItems": 1},
                       "limit": {"oneOf": [_DIST, _SCALED_INVERSE]},
                       "mass_tol": {"type": "number", "exclusiveMinimum": 0}}},
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["command", "seed", "params", "output"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": list(PARAM_SCHEMAS)},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2 ** 64 - 1},
        "params": {"type": "object"},
        "output": {"type": "string", "minLength": 1},
    },
}


# Validators of the schemas above, keyed by ``id(schema)``; filled on first use.
# Each validator holds its schema, so no cached id can be reused by another
# object.  Holds at most CONFIG_SCHEMA and the PARAM_SCHEMAS values.
_VALIDATORS = {}


class _CheckedOnce:
    """Validator class for ``jsonschema.validate`` that checks each schema
    against its metaschema, and builds its validator, once per process.

    ``validate`` calls ``check_schema`` and then the class, which hands back
    the cached validator; error selection stays ``validate``'s own."""

    @staticmethod
    def check_schema(schema):
        if id(schema) not in _VALIDATORS:
            cls = validator_for(schema)
            cls.check_schema(schema)  # a SchemaError leaves nothing cached
            # setdefault: a thread that lost a race keeps the first validator
            _VALIDATORS.setdefault(id(schema), cls(schema))

    def __new__(cls, schema):
        return _VALIDATORS[id(schema)]


# ---------------------------------------------------------------------------
# parsing helpers


class _SchemaViolation(Exception):
    """Malformed params caught after jsonschema's structural pass."""


def _require_finite(obj, path: str):
    """Reject Infinity and NaN, which JSON parsing and the schema's "number" accept."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"{path} must be a finite number, got {obj!r}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            _require_finite(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _require_finite(value, f"{path}[{i}]")


def _law(obj: dict) -> measures.ScalarMeasure:
    try:
        return measures.measure_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise _SchemaViolation(f"bad law object: {exc}") from exc


def _mtx(obj: dict) -> np.ndarray:
    try:
        return linalg.matrix_from_json(obj)
    except (OvfreeError, ValueError, TypeError) as exc:
        raise _SchemaViolation(f"bad matrix object: {exc}") from exc


def _dist_from_json(obj: dict) -> ovdist.OVDistribution:
    kind = obj["kind"]
    if kind == "scalar":
        if "law" not in obj:
            raise _SchemaViolation("scalar distribution needs a 'law'")
        return ovdist.ScalarEmbedded(_law(obj["law"]),
                                     base_dim=obj.get("base_dim", 1))
    if kind == "dirac":
        if "operator" not in obj:
            raise _SchemaViolation("dirac distribution needs an 'operator'")
        try:
            return ovdist.DiracB(_mtx(obj["operator"]))
        except ValueError as exc:
            raise _SchemaViolation(str(exc)) from exc
    if "coefficients" not in obj:
        raise _SchemaViolation("semicircular distribution needs 'coefficients'")
    try:
        return ovdist.OVSemicircular(
            tuple(_mtx(a) for a in obj["coefficients"]))
    except (OvfreeError, ValueError) as exc:
        raise _SchemaViolation(str(exc)) from exc


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _max_workers(n_items: int) -> int:
    raw = os.environ.get("OVFREE_THREADS")
    if raw is None:
        cap = 4
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"OVFREE_THREADS must be an integer, got {raw!r}")
        if cap < 1:
            raise ValueError("OVFREE_THREADS must be at least 1")
    return max(1, min(n_items, cap))


def _python_complex_syntax(text: str) -> str:
    """Rewrite '2i', '1+i', '-0.3-2i' style numbers as Python literals ('1+1j')."""
    return re.sub(r"(?<![\d.])j", "1j", text.replace(" ", "").replace("i", "j"))


# ---------------------------------------------------------------------------
# command implementations; each returns ("json", obj) or ("csv", header, rows)


def _cmd_g_eval(params, seed):
    dist = _dist_from_json(params["dist"])
    value = dist.eval_G(_mtx(params["b"]))
    return "json", {"value": linalg.matrix_to_json(value)}


def _cmd_r_eval(params, seed):
    dist = _dist_from_json(params["dist"])
    ball = transforms.bloch_certify(dist, params["lam"], params["n_pairs"],
                                    seed=seed)
    value = transforms.r_transform(dist, ball, _mtx(params["w"]))
    return "json", {"value": linalg.matrix_to_json(value),
                    "ball": ball.to_json()}


def _cmd_certify(params, seed):
    dist = _dist_from_json(params["dist"])
    ball = transforms.bloch_certify(dist, params["lam"], params["n_pairs"],
                                    seed=seed)
    return "json", ball.to_json()


def _cmd_convolve(params, seed):
    x = _dist_from_json(params["x"])
    y = _dist_from_json(params["y"])
    task = convolution.ConvolutionTask.certify(x, y, params["lam"],
                                               params["n_pairs"], seed=seed)
    targets = task.sample_targets(params["points"], seed=seed)
    mc = params.get("mc")
    model = ovdist.FreeSum(x, y) if mc is not None else None

    def solve(item):
        pid, w_star = item
        b = task.r_sum(w_star) + linalg.inverse(w_star)
        w = convolution.eval_G_of_sum(task, b)
        budget = 0.0
        if mc is not None:
            est = convolution.sampled_G_of_sum(task, model, b,
                                               big_dim=mc.get("big_dim", 300),
                                               trials=mc.get("trials", 12),
                                               seed=seed + pid + 1)
            budget = 3.0 * est.stderr
        row = [pid]
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                row.extend([w[i, j].real, w[i, j].imag])
        row.extend([float(np.linalg.norm(w - w_star)), budget])
        return row

    items = list(enumerate(targets))
    with ThreadPoolExecutor(max_workers=_max_workers(len(items))) as pool:
        rows = list(pool.map(solve, items))
    dim = task.overlap_center.shape[0]
    header = ["point_id"]
    for i in range(dim):
        for j in range(dim):
            header.extend([f"g_re_{i}_{j}", f"g_im_{i}_{j}"])
    header.extend(["discrepancy", "stderr_budget"])
    return "csv", header, rows


def _cmd_truncate_sweep(params, seed):
    law = _law(params["law"])
    b = _mtx(params["b"])
    cutoffs = tuple(params.get("cutoffs", (1, 2, 4, 8, 16, 32)))
    rows = [[r.cutoff, r.retained_mass, r.error, r.bound, r.within]
            for r in convolution.truncation_sweep(law, b, cutoffs)]
    return "csv", ["cutoff", "retained_mass", "error", "bound", "within"], rows


def _cmd_moments(params, seed):
    letters = []
    for entry in params["word"]:
        (re_part, im_part), var = entry
        letters.append((complex(re_part, im_part), int(var) - 1))
    laws = tuple(_law(law) for law in params["laws"])
    word = moments.ResolventWord(tuple(letters), laws, mode=params["mode"])
    value = moments.mixed_moment(word)
    reference = moments.letterwise_cauchy_product(letters, laws)
    return "json", {"value": _pair(value), "mode": params["mode"],
                    "reference": None if reference is None else _pair(reference)}


def _cmd_fbcs(params, seed):
    zs = [complex(r, i) for r, i in params.get("z_values",
                                               [[0, 2], [0, 3], [0, 2]])]
    indices = [int(i) - 1 for i in params.get("indices", [1, 2, 1])]
    law = _law(params["law"]) if "law" in params else measures.Cauchy(0.0, 1.0)
    report = moments.fbcs_check(zs, indices, law=law)
    rows = []
    for mode in moments.MODES:
        v = report.values[mode]
        rows.append([mode, v.real, v.imag, report.reference.real,
                     report.reference.imag, abs(v - report.reference)])
    header = ["mode", "value_re", "value_im", "reference_re", "reference_im",
              "abs_deviation"]
    return "csv", header, rows


def _cmd_neumann(params, seed):
    laws = tuple(_law(law) for law in params["laws"])
    kwargs = {}
    if "path_budget" in params:
        kwargs["path_budget"] = params["path_budget"]
    result = moments.matrix_G_via_neumann(
        _mtx(params["B"]), laws, params["mode"], params["p_max"], **kwargs)
    return "json", {"estimate": linalg.matrix_to_json(result.estimate),
                    "tail_bound": result.tail_bound,
                    "dominance": result.dominance,
                    "enumerated_orders": result.enumerated_orders}


def _cmd_killer(params, seed):
    targets = [complex(r, i) for r, i in params["targets"]]
    stages = killermod.build_killer(targets)
    worst = max(abs(killermod.killer_derivative(stages, t)) for t in targets)
    probes = [0.5j, 2j, 1.0 + 0.3j, -2.0 + 1.5j, 0.1 + 4j]
    halfplane = all(killermod.eval_killer(stages, z).imag > 0 for z in probes)
    return "json", {
        "stages": [{"shift": s.shift, "radius": s.radius} for s in stages],
        "max_abs_derivative_at_targets": worst,
        "halfplane_check": halfplane,
    }


def _cmd_block_identity(params, seed):
    report = transforms.block_resolvent_identity_check(
        _law(params["law"]), _mtx(params["B"]))
    return "json", {"lhs": linalg.matrix_to_json(report.lhs),
                    "rhs": linalg.matrix_to_json(report.rhs),
                    "deviation": report.deviation}


def _cmd_convergence(params, seed):
    dists = [_dist_from_json(d) for d in params["dists"]]
    probes = [_mtx(p) for p in params["probes"]]
    limit_spec = params["limit"]
    if limit_spec.get("kind") == "scaled-inverse":
        factor = float(limit_spec["factor"])
        limit = lambda mat: factor * np.linalg.inv(mat)
    else:
        limit = _dist_from_json(limit_spec)
    report = convolution.convergence_check(dists, probes, limit,
                                           mass_tol=params.get("mass_tol", 0.05))
    return "json", {"sup_errors": list(report.sup_errors),
                    "limit_mass": report.limit_mass,
                    "mass_deficit": report.mass_deficit}


_RUNNERS = {
    "g-eval": _cmd_g_eval, "r-eval": _cmd_r_eval, "certify": _cmd_certify,
    "convolve": _cmd_convolve, "truncate-sweep": _cmd_truncate_sweep,
    "moments": _cmd_moments, "fbcs": _cmd_fbcs, "neumann": _cmd_neumann,
    "killer": _cmd_killer, "block-identity": _cmd_block_identity,
    "convergence": _cmd_convergence,
}


# ---------------------------------------------------------------------------
# artifact emission


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def emit_plotdata(header, rows, meta: dict) -> str:
    """RFC-4180 CSV with a leading meta comment line; floats keep 17 digits."""
    buf = io.StringIO()
    buf.write("# ovfree-meta config_sha256=%s version=%s command=%s\r\n"
              % (meta["config_sha256"], meta["version"], meta["command"]))
    buf.write(",".join(header) + "\r\n")
    for row in rows:
        buf.write(",".join(_format_cell(cell) for cell in row) + "\r\n")
    return buf.getvalue()


def _emit_json(result, meta: dict) -> str:
    return json.dumps({"meta": meta, "result": result},
                      indent=2, sort_keys=True) + "\n"


def _write_artifact(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _error_json(exit_code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps(
        {"error": {"exit": exit_code, "type": kind, "message": message}},
        sort_keys=True) + "\n")
    return exit_code


# ---------------------------------------------------------------------------
# driver


def run_config(config: dict) -> int:
    """Validate, execute, and write the artifact; returns the exit code."""
    try:
        jsonschema.validate(config, CONFIG_SCHEMA, cls=_CheckedOnce)
        jsonschema.validate(config["params"], PARAM_SCHEMAS[config["command"]],
                            cls=_CheckedOnce)
        _require_finite(config["params"], "params")
        _max_workers(1)  # surfaces a malformed OVFREE_THREADS before running
    except jsonschema.ValidationError as exc:
        return _error_json(2, "SchemaError", exc.message)
    except ValueError as exc:
        return _error_json(2, "SchemaError", str(exc))


    meta = {"config_sha256": _config_hash(config), "version": __version__,
            "command": config["command"]}
    try:
        result = _RUNNERS[config["command"]](config["params"], config["seed"])
    except _SchemaViolation as exc:
        return _error_json(2, "SchemaError", str(exc))
    except OvfreeError as exc:
        return _error_json(3, type(exc).__name__, str(exc))
    except (ValueError, np.linalg.LinAlgError) as exc:
        return _error_json(3, type(exc).__name__, str(exc))

    if result[0] == "json":
        text = _emit_json(result[1], meta)
    else:
        _, header, rows = result
        text = emit_plotdata(header, rows, meta)
    _write_artifact(config["output"], text)
    return 0


def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _handle_run(args) -> int:
    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        return _error_json(2, "ConfigError", str(exc))
    return run_config(config)


def _handle_moments(args) -> int:
    try:
        raw = ast.literal_eval(_python_complex_syntax(args.word))
        word = [[_pair(complex(z)), var] for z, var in raw]
        # at least one law, so the schema reports an empty word or a bad variable
        n_vars = max([1, *(int(var) for _, var in word)])
        if args.law.lstrip().startswith("{"):
            law = json.loads(args.law)
        else:
            law = {"cauchy": {"variant": "cauchy", "location": 0.0,
                              "scale": 1.0},
                   "semicircle": {"variant": "semicircle", "variance": 1.0},
                   "arcsine": {"variant": "arcsine", "radius": 2.0},
                   "pointmass": {"variant": "pointmass",
                                 "position": 0.0}}[args.law]
    except (ValueError, SyntaxError, KeyError, TypeError) as exc:
        return _error_json(2, "ArgumentError", f"bad word or law: {exc}")
    config = {"command": "moments", "seed": args.seed,
              "params": {"word": word, "laws": [law] * n_vars,
                         "mode": args.mode},
              "output": args.output}
    return run_config(config)


def _handle_killer(args) -> int:
    try:
        targets = [_pair(complex(_python_complex_syntax(tok)))
                   for tok in args.targets.split(",") if tok.strip()]
        if not targets:
            raise ValueError("no targets given")
    except ValueError as exc:
        return _error_json(2, "ArgumentError", f"bad target list: {exc}")
    config = {"command": "killer", "seed": args.seed,
              "params": {"targets": targets}, "output": args.output}
    return run_config(config)


def _read_artifact_meta(path: str) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        head = fh.read(4096)
    if head.startswith("# ovfree-meta "):
        fields = {}
        for token in head.splitlines()[0][len("# ovfree-meta "):].split():
            key, _, value = token.partition("=")
            fields[key] = value
        return fields
    meta = json.loads(open(path, encoding="utf-8").read()).get("meta")
    if not isinstance(meta, dict):
        raise ValueError("artifact carries no meta object")
    return meta


def _handle_verify(args) -> int:
    try:
        config = _load_config(args.config)
        meta = _read_artifact_meta(args.artifact)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _error_json(2, "VerifyError", str(exc))
    expected = _config_hash(config)
    actual = meta.get("config_sha256")
    if actual != expected:
        return _error_json(3, "HashMismatch",
                           f"artifact hash {actual} != config hash {expected}")
    sys.stdout.write(json.dumps(
        {"verified": True, "config_sha256": expected,
         "artifact_version": meta.get("version"),
         "command": meta.get("command")}, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ovfree",
        description="matrix-valued free probability experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_run.set_defaults(handler=_handle_run)

    p_mom = sub.add_parser("moments", help="evaluate one resolvent word")
    p_mom.add_argument("--word", required=True,
                       help="letters like '[(2i,1),(3i,2)]'; variables from 1")
    p_mom.add_argument("--mode", default="free",
                       choices=list(moments.MODES))
    p_mom.add_argument("--law", default="cauchy",
                       help="law name with default parameters, or a JSON object")
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.add_argument("--output", default="-")
    p_mom.set_defaults(handler=_handle_moments)

    p_kill = sub.add_parser("killer", help="build a critical-point composition")
    p_kill.add_argument("--targets", required=True,
                        help="comma list of upper half-plane points, e.g. 'i,1+i'")
    p_kill.add_argument("--seed", type=int, default=0)
    p_kill.add_argument("--output", default="-")
    p_kill.set_defaults(handler=_handle_killer)

    p_ver = sub.add_parser("verify",
                           help="match an artifact against its config")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--artifact", required=True)
    p_ver.set_defaults(handler=_handle_verify)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
