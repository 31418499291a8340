"""CLI driver: schemas, exit codes, artifacts, goldens, determinism."""

import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import types
import warnings

import jsonschema
import numpy as np
import pytest
import scipy.integrate
from jsonschema.validators import validator_for

import ovfree
from conftest import TOL, assert_matches_golden, blas_config
from ovfree import cli, linalg, measures, ovdist

DATA = pathlib.Path(__file__).parent / "data"


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def _run(tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    return cli.main(["run", _write_config(tmp_path, config)])


def _run_golden_config(tmp_path, monkeypatch, name, label):
    workdir = tmp_path / label
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert cli.main(["run", str(DATA / f"config_{name}.json")]) == 0
    return (workdir / "out.csv").read_bytes()


def _fresh_interpreter_env(**extra):
    """Environment in which a new interpreter imports this checkout's package."""
    package_root = pathlib.Path(ovfree.__file__).resolve().parents[1]
    inherited = [os.path.abspath(entry) for entry
                 in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join([str(package_root)] + inherited))


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the package never imports it
    probe = ("import sys, ovfree.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=_fresh_interpreter_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_cli_import_checks_no_schema():
    # schemas are checked on first use, so importing the CLI builds no validator
    probe = "import ovfree.cli; print(len(ovfree.cli._VALIDATORS))"
    done = subprocess.run([sys.executable, "-c", probe], env=_fresh_interpreter_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "0"


class TestGoldenArtifacts:
    """Bytes are exact within one environment; goldens agree within TOL."""

    @pytest.mark.parametrize("name", ["fbcs", "truncate", "convolve"])
    def test_rerun_is_byte_identical(self, name, tmp_path, monkeypatch):
        first = _run_golden_config(tmp_path, monkeypatch, name, "first")
        second = _run_golden_config(tmp_path, monkeypatch, name, "second")
        assert first == second
        assert_matches_golden(first, DATA / f"golden_{name}.csv")

    def test_verify_accepts_the_frozen_pair(self, capsys):
        rc = cli.main(["verify", "--config", str(DATA / "config_fbcs.json"),
                       "--artifact", str(DATA / "golden_fbcs.csv")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is True
        assert out["command"] == "fbcs"

    def test_verify_rejects_a_mismatched_pair(self, capsys):
        rc = cli.main(["verify", "--config", str(DATA / "config_fbcs.json"),
                       "--artifact", str(DATA / "golden_truncate.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "HashMismatch"

    def test_verify_closes_a_json_artifact(self, tmp_path, monkeypatch, capsys):
        config = {"command": "g-eval", "seed": 0,
                  "params": {"dist": {"kind": "scalar", "law": _CAUCHY},
                             "b": {"dim": 1, "re": [[0.0]], "im": [[2.0]]}},
                  "output": "g.json"}
        assert _run(tmp_path, monkeypatch, config) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            rc = cli.main(["verify", "--config", _write_config(tmp_path, config),
                           "--artifact", str(tmp_path / "g.json")])
            gc.collect()
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["command"] == "g-eval"
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_verify_rejects_a_json_artifact_that_is_not_an_object(
            self, tmp_path, capsys):
        artifact = tmp_path / "list.json"
        artifact.write_text("[]")
        rc = cli.main(["verify", "--config", str(DATA / "config_fbcs.json"),
                       "--artifact", str(artifact)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "VerifyError"

    def test_json_artifacts_are_reproducible(self, tmp_path, monkeypatch):
        config = {"command": "certify", "seed": 0,
                  "params": {"dist": {"kind": "scalar",
                                      "law": {"variant": "cauchy",
                                              "location": 0.0, "scale": 1.0}},
                             "lam": 0.5, "n_pairs": 1},
                  "output": "cert.json"}
        assert _run(tmp_path, monkeypatch, config) == 0
        first = (tmp_path / "cert.json").read_bytes()
        assert cli.main(["run", _write_config(tmp_path, config)]) == 0
        assert (tmp_path / "cert.json").read_bytes() == first
        doc = json.loads(first)
        assert doc["result"]["domain_radius"] > 0
        assert doc["result"]["image_radius"] > 0

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # convolve always maps its 3 points through one thread pool; this
        # compares that pool with 1 worker against the same pool with 3.
        monkeypatch.setenv("OVFREE_THREADS", "1")
        one = _run_golden_config(tmp_path, monkeypatch, "convolve", "one")
        monkeypatch.setenv("OVFREE_THREADS", "3")
        three = _run_golden_config(tmp_path, monkeypatch, "convolve", "three")
        assert one == three
        assert_matches_golden(three, DATA / "golden_convolve.csv")

    @pytest.mark.skipif(
        "DYNAMIC_ARCH" not in blas_config().get("openblas configuration", ""),
        reason="OPENBLAS_CORETYPE selects a kernel only in a DYNAMIC_ARCH OpenBLAS")
    def test_goldens_hold_under_another_blas_kernel(self, tmp_path):
        # Prescott is the oldest x86-64 kernel; its last bits differ from the
        # kernels a modern CPU selects, which is the cross-environment case.
        env = _fresh_interpreter_env(OPENBLAS_CORETYPE="Prescott")
        for name in ("convolve", "truncate"):
            workdir = tmp_path / name
            workdir.mkdir()
            subprocess.run([sys.executable, "-m", "ovfree.cli", "run",
                            str(DATA / f"config_{name}.json")],
                           cwd=workdir, env=env, check=True, timeout=300)
            assert_matches_golden((workdir / "out.csv").read_bytes(),
                                  DATA / f"golden_{name}.csv")


def _move_float(text, row, column, ulps):
    """Shift one CSV float by ulps * eps * max(1, |g|), rendered as %.17g."""
    lines = text.split("\r\n")
    fields = lines[2 + row].split(",")
    g = float(fields[column])
    fields[column] = "%.17g" % (g + ulps * sys.float_info.epsilon * max(1.0, abs(g)))
    lines[2 + row] = ",".join(fields)
    return "\r\n".join(lines)


class TestGoldenComparison:
    """assert_matches_golden accepts rounding noise and rejects anything more."""

    golden = DATA / "golden_truncate.csv"

    def test_accepts_the_golden_and_rounding_noise(self):
        text = self.golden.read_bytes().decode()
        assert assert_matches_golden(text.encode(), self.golden) == 0.0
        worst = assert_matches_golden(_move_float(text, 2, 2, 4).encode(), self.golden)
        assert 3.5 <= worst <= TOL / sys.float_info.epsilon

    @pytest.mark.parametrize("perturb, message", [
        (lambda t: _move_float(t, 2, 2, 64), "row 2 column error"),
        (lambda t: _move_float(t, 5, 0, 64), "row 5 column cutoff"),
        (lambda t: t.replace("config_sha256=e", "config_sha256=f", 1), "meta line"),
        (lambda t: t[:t.rindex("32,")], "5 data rows"),
        (lambda t: t.replace(",true\r\n", ",false\r\n", 1), "row 0 column within"),
        (lambda t: t.replace("\r\n", "\n"), "CRLF"),
        (lambda t: t.replace(",0.5,", ",0.50,", 1), r"%\.17g"),
    ], ids=["float-below-1", "float-above-1", "config-hash", "dropped-row",
            "flipped-boolean", "lf-endings", "not-17g"])
    def test_rejects(self, perturb, message):
        text = self.golden.read_bytes().decode()
        perturbed = perturb(text)
        assert perturbed != text
        with pytest.raises(AssertionError, match=message) as info:
            assert_matches_golden(perturbed.encode(), self.golden)
        assert "BLAS name=" in str(info.value)


class TestSchemaGate:
    base = {"command": "fbcs", "seed": 7, "params": {}, "output": "out.csv"}

    def test_unknown_top_level_key(self, tmp_path, monkeypatch, capsys):
        config = dict(self.base, extra=1)
        assert _run(tmp_path, monkeypatch, config) == 2
        assert json.loads(capsys.readouterr().err)["error"]["exit"] == 2

    def test_unknown_command(self, tmp_path, monkeypatch):
        assert _run(tmp_path, monkeypatch, dict(self.base, command="nope")) == 2

    def test_missing_required_param(self, tmp_path, monkeypatch):
        config = {"command": "certify", "seed": 0,
                  "params": {"dist": {"kind": "scalar",
                                      "law": {"variant": "cauchy",
                                              "location": 0.0, "scale": 1.0}}},
                  "output": "o.json"}
        assert _run(tmp_path, monkeypatch, config) == 2

    def test_malformed_law_object(self, tmp_path, monkeypatch, capsys):
        config = {"command": "truncate-sweep", "seed": 0,
                  "params": {"law": {"variant": "cauchy"},
                             "b": {"dim": 1, "re": [[0.0]], "im": [[2.0]]}},
                  "output": "o.csv"}
        assert _run(tmp_path, monkeypatch, config) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "SchemaError"

    def test_matrix_shape_disagreement(self, tmp_path, monkeypatch):
        config = {"command": "g-eval", "seed": 0,
                  "params": {"dist": {"kind": "scalar",
                                      "law": {"variant": "cauchy",
                                              "location": 0.0, "scale": 1.0}},
                             "b": {"dim": 2, "re": [[0.0]], "im": [[2.0]]}},
                  "output": "o.json"}
        assert _run(tmp_path, monkeypatch, config) == 2

    def test_unreadable_config_path(self):
        assert cli.main(["run", "/nonexistent/config.json"]) == 2

    def test_invalid_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OVFREE_THREADS", "zap")
        assert _run(tmp_path, monkeypatch, self.base) == 2

    @pytest.mark.parametrize("var", [1.7, True], ids=["float", "bool"])
    def test_moments_variable_must_be_an_integer(self, var, tmp_path, monkeypatch,
                                                 capsys):
        config = {"command": "moments", "seed": 0,
                  "params": {"word": [[[0.0, 2.0], var]], "laws": [_CAUCHY],
                             "mode": "free"},
                  "output": "o.json"}
        assert _run(tmp_path, monkeypatch, config) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "exit": 2, "type": "SchemaError",
            "message": f"{var} is not of type 'integer'"}

    def test_moments_variable_may_be_an_integral_float(self, tmp_path, monkeypatch):
        config = {"command": "moments", "seed": 0,
                  "params": {"word": [[[0.0, 2.0], 1.0]], "laws": [_CAUCHY],
                             "mode": "free"},
                  "output": "o.json"}
        assert _run(tmp_path, monkeypatch, config) == 0

    @pytest.mark.parametrize("law", [
        {"variant": "quadrature", "nodes": [1.0, 0.0], "weights": [0.5, 0.5]},
        {"variant": "quadrature", "nodes": [0.0, 1.0], "weights": [1.0]},
        {"variant": "bernoulli", "radius": 0.0},
    ], ids=["unsorted-quadrature-nodes", "quadrature-length-mismatch", "bernoulli-radius-0"])
    def test_malformed_atomic_law(self, law, tmp_path, monkeypatch, capsys):
        config = {"command": "truncate-sweep", "seed": 0,
                  "params": {"law": law, "b": {"dim": 1, "re": [[0.0]], "im": [[2.0]]}},
                  "output": "o.csv"}
        assert _run(tmp_path, monkeypatch, config) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("config, path", [
        ({"command": "moments",
          "params": {"word": [[[0.0, 2.0], 1]], "mode": "equal",
                     "laws": [{"variant": "cauchy", "location": math.inf, "scale": 1.0}]}},
         "params.laws[0].location"),
        ({"command": "moments",
          "params": {"word": [[[0.0, 2.0], 1]], "mode": "equal",
                     "laws": [{"variant": "cauchy", "location": 0.0, "scale": math.inf}]}},
         "params.laws[0].scale"),
        ({"command": "truncate-sweep",
          "params": {"law": {"variant": "atomic", "atoms": [[math.inf, 0.5], [0.0, 0.5]]},
                     "b": {"dim": 1, "re": [[0.0]], "im": [[2.0]]}}},
         "params.law.atoms[0][0]"),
        ({"command": "moments",
          "params": {"word": [[[math.inf, 2.0], 1]], "mode": "equal",
                     "laws": [{"variant": "cauchy", "location": 0.0, "scale": 1.0}]}},
         "params.word[0][0][0]"),
        ({"command": "killer", "params": {"targets": [[0.0, 1.0], [math.nan, 2.0]]}},
         "params.targets[1][0]"),
    ], ids=["cauchy-location", "cauchy-scale", "truncate-atom", "word-letter",
            "killer-target"])
    def test_non_finite_numbers_are_rejected(self, config, path, tmp_path, monkeypatch,
                                             capsys):
        config = dict(config, seed=0, output="-")
        assert _run(tmp_path, monkeypatch, config) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "SchemaError"
        assert err["message"].startswith(path + " must be a finite number")


_CAUCHY = {"variant": "cauchy", "location": 0.0, "scale": 1.0}
_B = {"dim": 1, "re": [[0.0]], "im": [[2.0]]}


def _dirac(value):
    return {"kind": "dirac", "operator": {"dim": 1, "re": [[value]], "im": [[0.0]]}}


# One cheap config per command, each of which exits 0.
VALID_PARAMS = {
    "g-eval": {"dist": _dirac(0.3), "b": _B},
    "r-eval": {"dist": _dirac(0.02), "lam": 0.4, "n_pairs": 1,
               "w": linalg.matrix_to_json(
                   np.linalg.inv(np.diag([0.4j, -0.4j]) - 0.02 * np.eye(2)))},
    "certify": {"dist": _dirac(0.3), "lam": 0.8, "n_pairs": 1},
    "convolve": {"x": _dirac(0.42), "y": _dirac(0.43), "lam": 0.8,
                 "n_pairs": 1, "points": 1},
    "truncate-sweep": {"law": _CAUCHY, "b": _B, "cutoffs": [1.0]},
    "moments": {"word": [[[0.0, 2.0], 1]], "laws": [_CAUCHY], "mode": "free"},
    "fbcs": {"z_values": [[0.0, 2.0], [0.0, 3.0]], "indices": [1, 2], "law": _CAUCHY},
    "neumann": {"B": _B, "laws": [_CAUCHY], "mode": "free", "p_max": 2},
    "killer": {"targets": [[0.0, 1.0]]},
    "block-identity": {"law": _CAUCHY,
                       "B": {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]],
                             "im": [[3.0, 0.0], [0.0, 3.0]]}},
    "convergence": {"dists": [_dirac(0.3)], "probes": [_B], "limit": _dirac(0.3)},
}


def _valid_config(command):
    return {"command": command, "seed": 0, "params": VALID_PARAMS[command],
            "output": "-"}


def _mutants():
    """(level, config) pairs that may break the top-level schema ("top") or one
    command's params schema ("params"); some params mutants stay valid."""
    for command in VALID_PARAMS:
        base = _valid_config(command)
        yield "top", dict(base, extra=1)
        for key in base:
            yield "top", {k: v for k, v in base.items() if k != key}
        yield "top", dict(base, seed=1.5)
        yield "top", dict(base, command="nope")
        for key in base["params"]:
            params = {k: v for k, v in base["params"].items() if k != key}
            yield "params", dict(base, params=params)
            for bad in (None, "x", -1, [], {}):
                yield "params", dict(base, params=dict(base["params"], **{key: bad}))


def _library_message(config):
    """The message jsonschema's own validate gives, or None if both schemas pass."""
    try:
        jsonschema.validate(config, cli.CONFIG_SCHEMA)
        jsonschema.validate(config["params"], cli.PARAM_SCHEMAS[config["command"]])
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


class TestSchemaCheckedOnce:
    """Validators are built once per schema and report what jsonschema reports."""

    def test_messages_match_the_library(self, capsys):
        corpus = [(level, config, message) for level, config in _mutants()
                  if (message := _library_message(config)) is not None]
        assert ({c["command"] for level, c, _ in corpus if level == "params"}
                == set(VALID_PARAMS))
        for _, config, message in corpus:
            assert cli.run_config(config) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == {
                "exit": 2, "type": "SchemaError", "message": message}

    def test_each_schema_checked_once(self, monkeypatch, capsys):
        real = validator_for(cli.CONFIG_SCHEMA)
        assert all(validator_for(s) is real for s in cli.PARAM_SCHEMAS.values())
        checked = []
        check_schema = real.check_schema

        def counting(schema, *args, **kwargs):
            checked.append(id(schema))
            return check_schema(schema, *args, **kwargs)

        monkeypatch.setattr(real, "check_schema", counting)
        monkeypatch.setattr(cli, "_VALIDATORS", {})
        for _ in range(2):
            for command in VALID_PARAMS:
                assert cli.run_config(_valid_config(command)) == 0, command
        capsys.readouterr()
        assert checked == [id(cli.CONFIG_SCHEMA)] + [id(cli.PARAM_SCHEMAS[c])
                                                     for c in VALID_PARAMS]

    def test_broken_schema_still_fails(self, monkeypatch):
        broken = {"type": "object", "properties": {"targets": {"type": "no-such-type"}}}
        monkeypatch.setitem(cli.PARAM_SCHEMAS, "killer", broken)
        for _ in range(2):
            with pytest.raises(jsonschema.SchemaError):
                cli.run_config(_valid_config("killer"))

    def test_tracer_namespace(self, monkeypatch, capsys):
        # benchmark/tracing.py swaps cli.jsonschema for a namespace holding
        # only these two names, with validate wrapped in a span
        invalid = dict(_valid_config("moments"), seed=-1)
        assert cli.run_config(invalid) == 2
        expected = capsys.readouterr().err
        calls = []

        def validate(*args, **kwargs):
            calls.append(args[1])
            return jsonschema.validate(*args, **kwargs)

        monkeypatch.setattr(cli, "jsonschema", types.SimpleNamespace(
            validate=validate, ValidationError=jsonschema.ValidationError))
        assert cli.run_config(_valid_config("moments")) == 0
        assert calls == [cli.CONFIG_SCHEMA, cli.PARAM_SCHEMAS["moments"]]
        capsys.readouterr()
        assert cli.run_config(invalid) == 2
        assert capsys.readouterr().err == expected


class TestNumericalFailures:
    def test_neumann_without_dominance(self, tmp_path, monkeypatch, capsys):
        config = {"command": "neumann", "seed": 0,
                  "params": {"B": {"dim": 2, "re": [[0, 9], [9, 0]],
                                   "im": [[1, 0], [0, 1]]},
                             "laws": [{"variant": "cauchy", "location": 0.0,
                                       "scale": 1.0}],
                             "mode": "free", "p_max": 3},
                  "output": "o.json"}
        assert _run(tmp_path, monkeypatch, config) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "NotDominant"

    def test_neumann_equal_mode_with_unequal_laws(self, tmp_path, monkeypatch, capsys):
        # a path that mixes variables of different laws is no single operator
        config = {"command": "neumann", "seed": 0,
                  "params": {"B": {"dim": 2, "re": [[0, 0.1], [0.1, 0]],
                                   "im": [[2, 0], [0, 3]]},
                             "laws": [{"variant": "semicircle", "variance": 1.0},
                                      {"variant": "arcsine", "radius": 2.0}],
                             "mode": "equal", "p_max": 2},
                  "output": "o.json"}
        assert _run(tmp_path, monkeypatch, config) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert "laws must coincide" in err["message"]

    def test_convolve_mc_gate_names_bound_and_margin(self, tmp_path, monkeypatch,
                                                     capsys):
        def dirac(value):
            return {"kind": "dirac",
                    "operator": {"dim": 1, "re": [[value]], "im": [[0.0]]}}

        config = {"command": "convolve", "seed": 0,
                  "params": {"x": dirac(0.42), "y": dirac(0.43), "lam": 0.8,
                             "n_pairs": 1, "points": 1, "mc": {}},
                  "output": "o.csv"}
        assert _run(tmp_path, monkeypatch, config) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "MarginViolation"
        assert "model norm bound 8.500e-01" in err["message"]
        assert re.search(r"argument margin \d\.\d{3}e[-+]\d\d", err["message"])

    def test_convolve_mc_samples_any_bounded_pair(self, tmp_path, monkeypatch):
        def semicircle(variance):
            return {"kind": "scalar",
                    "law": {"variant": "semicircle", "variance": variance}}

        config = {"command": "convolve", "seed": 0,
                  "params": {"x": semicircle(0.0004), "y": semicircle(0.0009),
                             "lam": 0.4, "n_pairs": 1, "points": 2,
                             "mc": {"big_dim": 40, "trials": 3}},
                  "output": "o.csv"}
        assert _run(tmp_path, monkeypatch, config) == 0
        lines = (tmp_path / "o.csv").read_text().splitlines()
        assert lines[1].endswith(",discrepancy,stderr_budget")
        budgets = [float(row.split(",")[-1]) for row in lines[2:]]
        assert len(budgets) == 2
        assert all(0 < b < math.inf for b in budgets)

    def test_convolve_argument_outside_omega_exits_3(self, tmp_path, monkeypatch,
                                                     capsys):
        # both targets give b = R_X(w) + R_Y(w) + w^{-1} with a lower block
        # 0, where G_{X+Y}(b) = w fails although the round trip holds
        law = {"variant": "cauchy", "location": 1.0, "scale": 0.5}
        x = {"kind": "scalar", "law": law}
        config = {"command": "convolve", "seed": 1,
                  "params": {"x": x, "y": x, "lam": 0.3, "n_pairs": 1, "points": 2},
                  "output": "o.csv"}
        assert _run(tmp_path, monkeypatch, config) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "WrongPattern"
        assert "block 0" in err["message"]
        assert not (tmp_path / "o.csv").exists()

    def test_killer_target_off_the_half_plane(self, tmp_path, monkeypatch, capsys):
        config = {"command": "killer", "seed": 0,
                  "params": {"targets": [[1.0, -1.0]]}, "output": "o.json"}
        assert _run(tmp_path, monkeypatch, config) == 3
        assert (json.loads(capsys.readouterr().err)["error"]["type"]
                == "UnsupportedPoint")


class TestFlagForms:
    def test_moments_word_evaluates_against_reference(self, capsys):
        rc = cli.main(["moments", "--word", "[(2i,1),(3i,2),(2i,1)]",
                       "--mode", "free"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)["result"]
        value = complex(*result["value"])
        reference = complex(*result["reference"])
        assert abs(value - reference) <= 1e-12
        assert value == pytest.approx(1j / 36)
        assert result["mode"] == "free"

    def test_moments_word_across_half_planes_has_no_reference(self, capsys):
        # the letterwise product 1/12 is the moment only within one half-plane
        rc = cli.main(["moments", "--word", "[(2i,1),(-3i,1)]", "--mode", "equal"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert complex(*result["value"]) == pytest.approx(7 / 60, abs=1e-14)
        assert result["reference"] is None

    def test_moments_free_word_past_the_run_cap_exits_3(self, capsys):
        word = "[" + ",".join(f"({1 + j}i,{1 + j % 2})" for j in range(17)) + "]"
        rc = cli.main(["moments", "--word", word, "--mode", "free"])
        assert rc == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "UnsupportedPoint"
        assert "17 alternating runs" in error["message"]
        assert "cap of 16" in error["message"]

    def test_moments_free_mode_takes_any_law(self, capsys):
        rc = cli.main(["moments", "--word", "[(2i,1),(3i,2),(2i,1)]",
                       "--mode", "free", "--law", "semicircle"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["reference"] is None
        law = measures.Semicircle(1.0)
        expected = (measures.g_derivative(law, 2j, 1) * -1.0
                    * measures.g_scalar(law, 3j))
        assert complex(*result["value"]) == pytest.approx(expected, rel=1e-12)

    def test_moments_accepts_json_law(self, capsys):
        rc = cli.main(["moments", "--word", "[(2i,1)]", "--mode", "classical",
                       "--law", '{"variant": "semicircle", "variance": 1.0}'])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["reference"] is None
        expected = measures.g_scalar(measures.Semicircle(1.0), 2j)
        assert complex(*result["value"]) == pytest.approx(expected)

    def test_moments_bad_word_string(self, capsys):
        assert cli.main(["moments", "--word", "[(2i,"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["exit"] == 2

    @pytest.mark.parametrize("word, message", [
        ("[]", "[] should be non-empty"),
        ("[(2i,0)]", "0 is less than the minimum of 1"),
        ("[(2i,1.7)]", "1.7 is not of type 'integer'"),
        ("[(2i,True)]", "True is not of type 'integer'"),
    ], ids=["empty-word", "variable-0", "variable-1.7", "variable-true"])
    def test_moments_bad_variable_list(self, word, message, capsys):
        assert cli.main(["moments", "--word", word]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "exit": 2, "type": "SchemaError", "message": message}

    @pytest.mark.parametrize("word", ["[(2i,1000000)]", "[(2i,1e999)]"],
                             ids=["variable-1e6", "variable-inf"])
    def test_moments_variable_above_letter_count(self, word, capsys):
        # a word of k letters has at most k variables, so no list of a
        # million laws is built before the refusal
        start = time.perf_counter()
        assert cli.main(["moments", "--word", word]) == 2
        assert time.perf_counter() - start < 0.1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ArgumentError"
        assert error["exit"] == 2

    def test_killer_parses_mixed_notation(self, capsys):
        rc = cli.main(["killer", "--targets", "i, 1+i, 0.3+2i"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert len(result["stages"]) == 3
        assert result["max_abs_derivative_at_targets"] <= 1e-12
        assert result["halfplane_check"] is True
        assert result["stages"][0] == {"shift": 0.0, "radius": 1.0}

    def test_killer_empty_targets(self, capsys):
        assert cli.main(["killer", "--targets", " , "]) == 2


class TestArtifactContents:
    def test_g_eval_matches_direct_evaluation(self, tmp_path, monkeypatch):
        law = {"variant": "semicircle", "variance": 1.0}
        config = {"command": "g-eval", "seed": 0,
                  "params": {"dist": {"kind": "scalar", "law": law},
                             "b": {"dim": 2, "re": [[0.0, 0.3], [0.3, 0.0]],
                                   "im": [[2.0, 0.0], [0.0, 2.5]]}},
                  "output": "g.json"}
        assert _run(tmp_path, monkeypatch, config) == 0
        doc = json.loads((tmp_path / "g.json").read_text())
        value = linalg.matrix_from_json(doc["result"]["value"])
        b = np.array([[2j, 0.3], [0.3, 2.5j]])
        direct = ovdist.ScalarEmbedded(measures.Semicircle(1.0)).eval_G(b)
        assert np.allclose(value, direct, atol=1e-12)
        assert doc["meta"]["config_sha256"] == cli._config_hash(config)
        assert doc["meta"]["command"] == "g-eval"

    @pytest.mark.parametrize("base,density", [
        ({"variant": "cauchy", "location": 100.0, "scale": 1.0},
         lambda t: 1.0 / (math.pi * (1.0 + (t - 100.0) ** 2))),
        ({"variant": "cauchy", "location": 5.0, "scale": 0.01},
         lambda t: 1.0 / (0.01 * math.pi * (1.0 + ((t - 5.0) / 0.01) ** 2))),
        ({"variant": "cauchy", "location": 0.0, "scale": 1.0},
         lambda t: 1.0 / (math.pi * (1.0 + t * t))),
        ({"variant": "semicircle", "variance": 1.0},
         lambda t: math.sqrt(4.0 - t * t) / (2.0 * math.pi)),
        ({"variant": "arcsine", "radius": 2.0},
         lambda t: 1.0 / (math.pi * math.sqrt(4.0 - t * t))),
    ], ids=["cauchy-100-1", "cauchy-5-0.01", "cauchy-0-1", "semicircle", "arcsine"])
    def test_g_eval_of_a_truncation_sees_its_window(self, base, density,
                                                    tmp_path, monkeypatch):
        z, cutoff = 0.5 + 1.0j, 1.0
        law = {"variant": "truncated", "base": base, "cutoff": cutoff}
        config = {"command": "g-eval", "seed": 0,
                  "params": {"dist": {"kind": "scalar", "law": law},
                             "b": {"dim": 1, "re": [[z.real]], "im": [[z.imag]]}},
                  "output": "g.json"}
        assert _run(tmp_path, monkeypatch, config) == 0
        doc = json.loads((tmp_path / "g.json").read_text())
        value = linalg.matrix_from_json(doc["result"]["value"])[0, 0]
        defect = 1.0 - measures.measure_from_json(base).interval_mass(-cutoff, cutoff)
        re, _ = scipy.integrate.quad(lambda t: (density(t) / (z - t)).real,
                                     -cutoff, cutoff, epsabs=1e-15, limit=200)
        im, _ = scipy.integrate.quad(lambda t: (density(t) / (z - t)).imag,
                                     -cutoff, cutoff, epsabs=1e-15, limit=200)
        assert value == pytest.approx(defect / z + re + 1j * im, abs=1e-12)

    def test_convergence_flags_escaping_mass(self, tmp_path, monkeypatch):
        def atomic(n):
            return {"kind": "scalar",
                    "law": {"variant": "atomic",
                            "atoms": [[0.0, 0.5], [float(n), 0.5]]}}
        config = {"command": "convergence", "seed": 0,
                  "params": {"dists": [atomic(n) for n in (4, 16, 64)],
                             "probes": [{"dim": 1, "re": [[0.0]],
                                         "im": [[2.0]]}],
                             "limit": {"kind": "scaled-inverse",
                                       "factor": 0.5}},
                  "output": "c.json"}
        assert _run(tmp_path, monkeypatch, config) == 0
        result = json.loads((tmp_path / "c.json").read_text())["result"]
        assert result["mass_deficit"] is True
        assert result["limit_mass"] == pytest.approx(0.5, abs=1e-9)
        errs = result["sup_errors"]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_block_identity_artifact(self, tmp_path, monkeypatch):
        config = {"command": "block-identity", "seed": 0,
                  "params": {"law": {"variant": "pointmass", "position": 0.0},
                             "B": {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]],
                                   "im": [[3.0, 0.0], [0.0, 3.0]]}},
                  "output": "b.json"}
        assert _run(tmp_path, monkeypatch, config) == 0
        result = json.loads((tmp_path / "b.json").read_text())["result"]
        assert result["deviation"] <= 1e-10
        lhs = linalg.matrix_from_json(result["lhs"])
        assert np.allclose(lhs, np.diag([-0.5j, -0.25j]), atol=1e-10)

    def test_r_eval_returns_ball_and_value(self, tmp_path, monkeypatch):
        # For a deterministic operator c*I the R-transform is constantly c*I,
        # and the certified patch is centered at (d - c*I)^{-1}.
        w = np.linalg.inv(np.diag([0.4j, -0.4j]) - 0.02 * np.eye(2))
        config = {"command": "r-eval", "seed": 0,
                  "params": {"dist": {"kind": "dirac",
                                      "operator": {"dim": 1, "re": [[0.02]],
                                                   "im": [[0.0]]}},
                             "lam": 0.4, "n_pairs": 1,
                             "w": linalg.matrix_to_json(w)},
                  "output": "r.json"}
        assert _run(tmp_path, monkeypatch, config) == 0
        result = json.loads((tmp_path / "r.json").read_text())["result"]
        value = linalg.matrix_from_json(result["value"])
        assert np.allclose(value, 0.02 * np.eye(2), atol=1e-9)
        assert result["ball"]["image_radius"] > 0


class TestEmitPlotdata:
    def test_format_contract(self):
        meta = {"config_sha256": "ab12", "version": "9.9.9", "command": "demo"}
        text = cli.emit_plotdata(["name", "x", "ok"],
                                 [["row", 1.0 / 3.0, True],
                                  ["second", 2.0, False]], meta)
        lines = text.split("\r\n")
        assert lines[0] == "# ovfree-meta config_sha256=ab12 version=9.9.9 command=demo"
        assert lines[1] == "name,x,ok"
        assert lines[2] == "row,0.33333333333333331,true"
        assert lines[3] == "second,2,false"
        assert text.endswith("\r\n")
