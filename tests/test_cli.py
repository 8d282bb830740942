import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delayedbp import DuplicateDelayError, LifetimeLaw, SchemaError, errors
from delayedbp import malthusian as mal_mod
from delayedbp import simulate as sim_mod
from delayedbp import spectral as spec_mod
from delayedbp.cli import dispatch, emit_json, model_to_config, parse_config
from conftest import (PHI, make_shared_family, poisson_model_from_family,
                      random_positive_family)

FIB_CONFIG = {
    "types": ["a"],
    "delays": [1, 2],
    "offspring": {"kind": "poisson", "means": {"1": [[1.0]], "2": [[1.0]]}},
    "lifetime": {"pmf": [0.0, 0.0, 0.0, 1.0], "death_prob": 0.0},
    "initial": 0,
}


@pytest.fixture
def fib_config(tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIB_CONFIG))
    return str(path)


class TestParseConfig:
    def test_minimal_fibonacci(self):
        model = parse_config(json.dumps(FIB_CONFIG))
        assert model.type_names == ("a",)
        assert model.delay_family.delays == (1, 2)
        assert model.lifetime.prob(3) == 1.0

    def test_duplicate_delay(self):
        doc = dict(FIB_CONFIG, delays=[2, 2])
        doc["offspring"] = {"kind": "poisson", "means": {"2": [[1.0]]}}
        with pytest.raises(DuplicateDelayError):
            parse_config(json.dumps(doc))

    def test_unnormalized_lifetime_rejected(self):
        doc = dict(FIB_CONFIG, lifetime={"pmf": [0.3, 0.5]})
        with pytest.raises(SchemaError, match="lifetime.pmf"):
            parse_config(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = dict(FIB_CONFIG, extra=1)
        with pytest.raises(SchemaError, match="extra"):
            parse_config(json.dumps(doc))

    def test_unknown_nested_field_rejected(self):
        doc = dict(FIB_CONFIG, lifetime={"pmf": [0.0, 1.0], "bogus": 2})
        with pytest.raises(SchemaError, match="bogus"):
            parse_config(json.dumps(doc))

    def test_negative_mean_rejected(self):
        doc = dict(FIB_CONFIG)
        doc["offspring"] = {"kind": "poisson", "means": {"1": [[-1.0]], "2": [[1.0]]}}
        with pytest.raises(SchemaError):
            parse_config(json.dumps(doc))

    def test_bad_json(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_config("{nope")

    def test_missing_offspring_delay(self):
        doc = dict(FIB_CONFIG)
        doc["offspring"] = {"kind": "poisson", "means": {"1": [[1.0]]}}
        with pytest.raises(SchemaError, match="no offspring law"):
            parse_config(json.dumps(doc))


class TestEmitJson:
    def test_seventeen_digit_floats(self):
        text = emit_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trips_doubles(self):
        vals = [math.pi, 1e-300, 2.0 / 3.0, 1.2345678901234567e17]
        text = emit_json({"v": vals})
        back = json.loads(text)
        assert back["v"] == vals

    def test_arrays_and_none(self):
        text = emit_json({"a": np.array([1.0, 0.5]), "b": None, "c": True})
        back = json.loads(text)
        assert back == {"a": [1.0, 0.5], "b": None, "c": True}


class TestDispatch:
    def test_validate(self, fib_config, capsys):
        assert dispatch(["validate", "--config", fib_config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_malthusian_golden_ratio(self, fib_config, capsys):
        assert dispatch(["malthusian", "--config", fib_config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta"] == pytest.approx(0.4812118250596034, abs=1e-12)
        assert doc["rho_hat"] == pytest.approx(PHI, abs=1e-12)
        assert doc["regime"] == "supercritical"

    def test_evolve_fibonacci_csv(self, fib_config, capsys):
        assert dispatch(["evolve", "--config", fib_config, "--horizon", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "s,type,ex,ez,ey,wx,wz,wy"
        ex = [float(line.split(",")[2]) for line in lines[1:]]
        assert ex == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_limits(self, fib_config, capsys):
        assert dispatch(["limits", "--config", fib_config, "--horizon", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["limit_x"][0] == pytest.approx(PHI / math.sqrt(5), abs=1e-9)
        assert doc["type_limit"] == [1.0]

    @pytest.mark.parametrize("delays, mat", [((2, 4), [[0.5]]),
                                             ((1, 3), [[0.0, 0.5], [0.5, 0.0]])])
    def test_limits_periodic_family(self, delays, mat, tmp_path, capsys):
        doc = {"types": [f"t{i}" for i in range(len(mat))], "delays": list(delays),
               "offspring": {"kind": "poisson", "means": {str(d): mat for d in delays}},
               "lifetime": {"pmf": [0.0, 1.0]}, "initial": 0}
        path = tmp_path / "periodic.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["validate", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        gcd = report["checks"][0]
        assert (gcd["name"], gcd["status"]) == ("delay gcd", "warn")
        assert gcd["detail"].endswith("; period 2" if delays == (1, 3) else "= 2")
        assert report["ok"] is True
        assert dispatch(["limits", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:PeriodicFamilyError:")

    @staticmethod
    def _one_type(tmp_path, pmf):
        doc = {"types": ["a"], "delays": [1, 2],
               "offspring": {"kind": "poisson", "means": {"1": [[0.3]], "2": [[0.3]]}},
               "lifetime": {"pmf": pmf}}
        path = tmp_path / f"lifetime-{pmf[-1]!r}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_limits_near_normalized_lifetime(self, tmp_path, capsys):
        # a no-tail pmf within 1e-12 of 1 has no mass past it, so the
        # subcritical lifetime series is finite
        docs = []
        for pmf in ([0.5, 0.4999999999999], [0.5, 0.5]):
            assert dispatch(["limits", "--config", self._one_type(tmp_path, pmf)]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        near, exact = docs
        assert exact["limit_x"][0] == pytest.approx(0.632, abs=1e-3)
        for key in ("limit_x", "limit_z", "limit_y", "type_limit", "age_limit"):
            assert near[key] == pytest.approx(exact[key], rel=1e-12, abs=1e-12)

    def test_evolve_near_normalized_lifetime(self, tmp_path, capsys):
        # P(L > c) is 0 for c >= 1, so each individual counts in Z only at
        # age 0 and E[Z(s)] = P(L > 0) E[X(s)], exactly
        outs = []
        for pmf in ([0.5, 0.4999999999999], [0.5, 0.5]):
            config = self._one_type(tmp_path, pmf)
            assert dispatch(["evolve", "--config", config, "--horizon", "20"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        rows = [line.split(",") for line in outs[0].splitlines()[1:]]
        assert all(float(row[3]) == 0.5 * float(row[2]) for row in rows)

    def test_limits_non_shared_family(self, tmp_path, capsys):
        fam = random_positive_family(np.random.default_rng(151), 5, (1, 2, 3))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.2, 0.3, 0.5)))
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(model_to_config(model)))
        assert dispatch(["spectral", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["shared"]["shared"] is False
        assert dispatch(["limits", "--config", str(path), "--horizon", "600"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert max(doc["empirical_gap"].values()) <= 1e-10

    def test_paths_run_fraction(self, fib_config, capsys):
        assert dispatch(["paths", "--config", fib_config, "--s", "4",
                         "--kappa", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        frac = doc["run_fraction"]["by_class"]["[2, 1]"]
        assert (frac["numerator"], frac["denominator"]) == (2, 3)
        assert doc["run_fraction"]["min"]["value"] == pytest.approx(2 / 3)

    @pytest.mark.parametrize("r, by_class, low", [
        ("3", {"[2, 1]": (2, 3)}, 2 / 3),
        ("2", {"[0, 2]": (1, 1)}, 1.0),  # min over all of Lambda(4) is 2/3
        ("5", {}, None),  # Lambda(4, 5) is empty
    ])
    def test_paths_r_scopes_run_fraction(self, fib_config, capsys, r, by_class, low):
        assert dispatch(["paths", "--config", fib_config, "--s", "4", "--r", r,
                         "--kappa", "2"]) == 0
        rf = json.loads(capsys.readouterr().out)["run_fraction"]
        assert {c: (f["numerator"], f["denominator"])
                for c, f in rf["by_class"].items()} == by_class
        if low is None:
            assert rf["min"] is None
        else:
            assert rf["min"]["value"] == pytest.approx(low)

    def test_paths_run_fraction_with_no_class(self, tmp_path, capsys):
        # delays {2, 5} cannot span s = 3, so Lambda(3) is empty
        doc = dict(FIB_CONFIG, delays=[2, 5],
                   offspring={"kind": "poisson", "means": {"2": [[1.0]], "5": [[1.0]]}})
        path = tmp_path / "d25.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["paths", "--config", str(path), "--s", "3", "--kappa", "2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert '"by_class": {},\n    "min": null' in out
        doc = json.loads(out)
        assert doc["classes"] == []
        assert doc["run_fraction"] == {"kappa": 2, "by_class": {}, "min": None}

    def test_paths_sampling_requires_seed(self, fib_config, capsys):
        code = dispatch(["paths", "--config", fib_config, "--s", "4",
                         "--samples", "100"])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_spectral(self, fib_config, capsys):
        assert dispatch(["spectral", "--config", fib_config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_delay"]["1"]["rho"] == 1.0
        assert doc["shared"]["shared"] is True
        assert doc["commute"] is True

    def test_simulate_csv(self, fib_config, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert dispatch(["simulate", "--config", fib_config, "--horizon", "5",
                         "--replicas", "200", "--seed", "7",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,type,mean_x,se_x,mean_z,se_z,mean_y,se_y"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[2]) == 1.0  # X(0) is the single ancestor

    def test_simulate_idempotent(self, fib_config, capsys):
        dispatch(["simulate", "--config", fib_config, "--horizon", "4",
                  "--replicas", "50", "--seed", "3"])
        first = capsys.readouterr().out
        dispatch(["simulate", "--config", fib_config, "--horizon", "4",
                  "--replicas", "50", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_simulate_requires_seed(self, fib_config):
        assert dispatch(["simulate", "--config", fib_config, "--horizon", "4",
                         "--replicas", "10"]) == 2

    def test_generate_round_trip(self, tmp_path, capsys):
        gen = {"P": [[0.5, 0.5], [0.5, 0.5]], "h": [2.0, 1.0],
               "rhos": {"1": 0.4, "2": 0.5}}
        gen_path = tmp_path / "gen.json"
        gen_path.write_text(json.dumps(gen))
        model_path = tmp_path / "model.json"
        assert dispatch(["generate", "--input", str(gen_path),
                         "--out", str(model_path)]) == 0
        assert dispatch(["spectral", "--config", str(model_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shared"]["shared"] is True
        assert doc["per_delay"]["1"]["rho"] == pytest.approx(0.4, abs=1e-11)
        assert doc["per_delay"]["2"]["rho"] == pytest.approx(0.5, abs=1e-11)

    def test_domain_error_exit_code(self, tmp_path, capsys):
        doc = dict(FIB_CONFIG)
        doc["offspring"] = {"kind": "poisson", "means": {"1": [[1.0]], "2": [[0.0]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["malthusian", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:NonIrreducibleError:")
        assert "\n" not in err.strip()

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"types\": []}")
        assert dispatch(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:SchemaError:")

    @pytest.mark.parametrize("field", ["means", "pmfs"])
    def test_offspring_list_rejected(self, field, tmp_path, capsys):
        doc = dict(FIB_CONFIG)
        doc["offspring"] = {"kind": "poisson" if field == "means" else "pmf",
                            field: [[[1.0]], [[1.0]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error:SchemaError: offspring.{field}:")

    def test_generate_rhos_list_rejected(self, tmp_path, capsys):
        gen = {"P": [[0.5, 0.5], [0.5, 0.5]], "h": [2.0, 1.0], "rhos": [0.4, 0.5]}
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(gen))
        assert dispatch(["generate", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:SchemaError: rhos:")

    def test_no_convergence_exit_code(self, tmp_path, capsys):
        doc = dict(FIB_CONFIG, types=["a", "b"], initial=0)
        doc["offspring"] = {"kind": "poisson",
                            "means": {"1": [[1.0, 2.0], [3.0, 4.0]],
                                      "2": [[0.5, 0.1], [0.2, 0.3]]}}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["spectral", "--config", str(path), "--tol", "1e-300"]) == 1
        assert capsys.readouterr().err.startswith("error:NoConvergenceError:")

    @pytest.mark.parametrize("initial,time", [([1e-10], None), (0, 315)])
    def test_weighted_source_overflow_exit_code(self, initial, time, tmp_path, capsys):
        doc = {"types": ["a"], "delays": [1],
               "offspring": {"kind": "poisson", "means": {"1": [[0.1]]}},
               "lifetime": {"pmf": [0.0, 0.5], "tail_ratio": 0.9},
               "initial": initial}
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["evolve", "--config", str(path), "--horizon", "400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:HorizonTooLargeError:")
        if time is not None:
            assert err.strip().endswith(f"at time {time}")

    def test_simulate_dump_rows_are_block_rows(self, fib_config, tmp_path, monkeypatch):
        calls = []
        real = sim_mod.simulate_block

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "simulate_block", counted)
        monkeypatch.setattr(sim_mod, "block_rows", lambda horizon, n_types, split_cells=0: 2)
        plain, summary, dump = (tmp_path / n for n in ("plain.csv", "sum.csv", "dump.csv"))
        argv = ["simulate", "--config", fib_config, "--horizon", "6",
                "--replicas", "5", "--seed", "11"]
        assert dispatch(argv + ["--out", str(plain)]) == 0
        calls.clear()
        assert dispatch(argv + ["--out", str(summary), "--dump", str(dump)]) == 0
        assert len(calls) == math.ceil(5 / 2)
        assert summary.read_bytes() == plain.read_bytes()
        lines = dump.read_text().splitlines()
        assert lines[0] == "replica,s,type,x,z,y"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 5 * 7
        model = parse_config(json.dumps(FIB_CONFIG))
        for b, size in enumerate((2, 2, 1)):
            block = real(model, 6, (11, b), size)
            for r in range(size):
                k = 2 * b + r
                for s_ in range(7):
                    row = rows[k * 7 + s_]
                    assert row[:3] == [str(k), str(s_), "a"]
                    assert [int(v) for v in row[3:]] == [block.x[r, s_, 0], block.z[r, s_, 0],
                                                         block.y[r, s_, 0]]

    def test_simulate_reports_truncation(self, fib_config, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--config", fib_config, "--horizon", "20",
                "--replicas", "50", "--seed", "3", "--out", str(out)]
        assert dispatch(argv) == 0
        assert capsys.readouterr().err == ""
        assert dispatch(argv + ["--pop-cap", "300"]) == 0
        err = capsys.readouterr().err
        model = parse_config(json.dumps(FIB_CONFIG))
        stats = sim_mod.ensemble(model, 20, 50, 3, pop_cap=300)
        assert 0 < stats.truncated < 50
        assert err == (f"warning: {stats.truncated} of 50 replicas truncated at pop_cap 300; "
                       "excluded from the statistics\n")
        assert out.read_text().splitlines()[0] == "s,type,mean_x,se_x,mean_z,se_z,mean_y,se_y"

    def test_simulate_huge_delay(self, tmp_path):
        doc = {"types": ["a"], "delays": [1, 10 ** 6],
               "offspring": {"kind": "poisson", "means": {"1": [[0.9]], str(10 ** 6): [[0.5]]}},
               "lifetime": {"pmf": [0.2, 0.3], "tail_ratio": 0.5, "death_prob": 0.1},
               "initial": [3]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sim.csv"
        assert dispatch(["simulate", "--config", str(path), "--horizon", "10",
                         "--replicas", "10000", "--seed", "5", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 12

    @pytest.mark.parametrize("change,field", [
        ({"lifetime": [0.0, 1.0]}, "lifetime"),
        ({"types": 3}, "types"),
        ({"types": ["a"]}, "types"),
        ({"lifetime": {"pmf": [0.3, 0.5]}}, "lifetime.pmf"),
        ({"rhos": {}}, "rhos"),
        ({"h": [2.0, 1.0, 1.0]}, "h"),
        ({"P": "x"}, "P"),
    ])
    def test_generate_schema_errors(self, change, field, tmp_path, capsys):
        gen = dict({"P": [[0.5, 0.5], [0.5, 0.5]], "h": [2.0, 1.0],
                    "rhos": {"1": 0.4, "2": 0.5}}, **change)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(gen))
        out = tmp_path / "model.json"
        assert dispatch(["generate", "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error:SchemaError: {field}:")
        assert not out.exists()

    def test_generate_top_level_list(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        path.write_text("[1, 2]")
        assert dispatch(["generate", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:SchemaError: <document>:")

    def test_generate_output_always_parses(self, tmp_path):
        gen = {"P": [[0.2, 0.8], [0.6, 0.4]], "nu": [1.0, 3.0],
               "rhos": {"1": 0.4, "3": 0.7}, "types": ["u", "v"],
               "lifetime": {"pmf": [0.1, 0.4], "tail_ratio": 0.5,
                            "death_prob": [0.1, 0.2]},
               "initial": [2, 1]}
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(gen))
        out = tmp_path / "model.json"
        assert dispatch(["generate", "--input", str(path), "--out", str(out)]) == 0
        model = parse_config(out.read_text())
        assert model.type_names == ("u", "v")
        assert model.initial == (2.0, 1.0)

    def test_usage_error_exit_code(self):
        assert dispatch(["no-such-command"]) == 2
        assert dispatch(["evolve"]) == 2

    def test_usage_error_after_a_success(self, fib_config, capsys):
        # the parser is built once per process; a parse leaves nothing behind
        assert dispatch(["paths", "--config", fib_config, "--s", "4", "--r", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["classes"][0]["r"] == 3
        assert dispatch(["paths", "--config", fib_config, "--s", "4", "--r", "-1"]) == 2
        assert "error: argument --r: must be >= 0" in capsys.readouterr().err
        assert dispatch(["paths", "--config", fib_config, "--s", "4"]) == 0
        assert "run_fraction" not in json.loads(capsys.readouterr().out)


class TestModelToConfig:
    def test_serialization_is_strict_schema(self, fib_model):
        text = json.dumps(model_to_config(fib_model))
        model = parse_config(text)
        assert model.delay_family.delays == fib_model.delay_family.delays


# ---------------------------------------------------------------------------
# fuzzing the two commands that read hand-written documents

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 5)
            | st.sampled_from([10 ** 400, -(10 ** 400)])
            | st.floats() | st.text(max_size=3))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)

_GENERATE_DOC = {"P": [[0.5, 0.5], [0.5, 0.5]], "h": [2.0, 1.0],
                 "rhos": {"1": 0.4, "2": 0.5}, "types": ["a", "b"],
                 "lifetime": {"pmf": [0.1, 0.9], "death_prob": 0.1},
                 "initial": [1, 0]}


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, base):
    """``base`` with one entry replaced by arbitrary JSON or deleted."""
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(_JSON)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON)
    return doc


@pytest.mark.parametrize("command,flag,base", [
    ("validate", "--config", FIB_CONFIG),
    ("generate", "--input", _GENERATE_DOC),
])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_documents(command, flag, base, data, tmp_path, capsys):
    doc = data.draw(_mutated(base) | _JSON)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = dispatch([command, flag, str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert any(line.startswith("error:") for line in err.splitlines())


# ---------------------------------------------------------------------------
# the CSV format, delay-key duplicates, typed path options, ``python -m``

THREE_TYPE_CONFIG = {
    "types": ["u", "v", "w"],
    "delays": [1, 3],
    "offspring": {"kind": "poisson",
                  "means": {"1": [[0.2, 0.1, 0.3], [0.1, 0.25, 0.1], [0.3, 0.1, 0.2]],
                            "3": [[0.1, 0.2, 0.1], [0.2, 0.1, 0.3], [0.1, 0.1, 0.15]]}},
    "lifetime": {"pmf": [0.2, 0.3, 0.1], "tail_ratio": 0.7, "death_prob": 0.2},
    "initial": [2.0, 0.0, 1.5],
}


class TestCsvFormat:
    @pytest.mark.parametrize("to_file", [False, True])
    def test_evolve_matches_per_cell_reference(self, to_file, tmp_path, capsys):
        from delayedbp import cli as cli_mod
        from delayedbp.model import censored_mean_matrices
        from delayedbp.recursion import evolve_means

        horizon = 1500
        assert 3 * (horizon + 1) > cli_mod._CSV_CHUNK  # the rows span several chunks
        path = tmp_path / "three.json"
        path.write_text(json.dumps(THREE_TYPE_CONFIG))
        argv = ["evolve", "--config", str(path), "--horizon", str(horizon)]
        out = tmp_path / "evolve.csv"
        assert dispatch(argv + (["--out", str(out)] if to_file else [])) == 0
        text = out.read_text() if to_file else capsys.readouterr().out

        model = parse_config(json.dumps(THREE_TYPE_CONFIG))
        traj = evolve_means(model, censored_mean_matrices(model), horizon)
        series = (traj.ex, traj.ez, traj.ey, traj.wx, traj.wz, traj.wy)
        lines = ["s,type,ex,ez,ey,wx,wz,wy"]
        for s in range(horizon + 1):
            for j, name in enumerate(model.type_names):
                lines.append(",".join([str(s), name] + [f"{a[s, j]:.17g}" for a in series]))
        # compared line by line: a diff of the whole text would take minutes
        assert text.endswith("\n")
        got = text[:-1].split("\n")
        assert len(got) == len(lines)
        bad = next((k for k, (a, b) in enumerate(zip(got, lines)) if a != b), None)
        assert bad is None, (bad, got[bad], lines[bad])

    def test_single_replica_leaves_se_empty_and_keeps_names(self, tmp_path, capsys):
        doc = dict(THREE_TYPE_CONFIG, types=["nan", "inf", "w"], initial=[2, 0, 1])
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["simulate", "--config", str(path), "--horizon", "4",
                         "--replicas", "1", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s,type,mean_x,se_x,mean_z,se_z,mean_y,se_y"
        assert len(lines) == 1 + 5 * 3
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[:2] == [str(k // 3), ("nan", "inf", "w")[k % 3]]
            assert cells[3] == cells[5] == cells[7] == ""
            assert all(float(c) >= 0 for c in (cells[2], cells[4], cells[6]))
        assert lines[1].split(",")[2] == "2"  # X(0) of type "nan"


    @staticmethod
    def _reference(header, row, keys, values):
        """The CSV as the per-row %-format wrote it: ``row`` filled with each
        key followed by the matching row of ``values`` (its last axis)."""
        cells = values.reshape(-1, values.shape[-1]).tolist()
        return "".join([header + "\n"] + [row % (*key, *vals) + "\n"
                                          for key, vals in zip(keys, cells)])

    def test_simulate_summary_and_dump_match_the_row_format(self, tmp_path, monkeypatch):
        horizon, replicas, seed = 400, 3, 4
        # blocks of two replicas: the dump's later parts start at replica 2
        monkeypatch.setattr(sim_mod, "block_rows", lambda horizon, n_types, split_cells=0: 2)
        doc = dict(THREE_TYPE_CONFIG, initial=[2, 0, 1])
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc))
        out, dump = tmp_path / "sim.csv", tmp_path / "dump.csv"
        assert dispatch(["simulate", "--config", str(path), "--horizon", str(horizon),
                         "--replicas", str(replicas), "--seed", str(seed),
                         "--out", str(out), "--dump", str(dump)]) == 0

        from delayedbp import cli as cli_mod
        model = parse_config(json.dumps(doc))
        blocks = list(sim_mod.replica_blocks(model, horizon, replicas, seed))
        assert [len(b.counts) for b in blocks] == [2, 1]
        stats = sim_mod.summarize(blocks)
        steps = range(horizon + 1)
        assert 3 * len(steps) > cli_mod._CSV_CHUNK  # the summary spans chunks
        want = self._reference(
            "s,type,mean_x,se_x,mean_z,se_z,mean_y,se_y", "%s,%s" + ",%.17g" * 6,
            itertools.product(steps, model.type_names),
            np.stack((stats.mean_x, stats.se_x, stats.mean_z, stats.se_z,
                      stats.mean_y, stats.se_y), axis=-1))
        assert out.read_text() == want
        counts = np.concatenate([b.counts for b in blocks]).transpose(0, 2, 3, 1)
        want = self._reference("replica,s,type,x,z,y", "%s,%s,%s,%d,%d,%d",
                               itertools.product(range(replicas), steps, model.type_names),
                               counts)
        assert want.count("\n") > 3 * cli_mod._CSV_CHUNK
        assert dump.read_text() == want

    @pytest.mark.parametrize("names", [["nan", "inf", "w"], ["β", "ñu", "井"]])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_single_replica_matches_the_empty_se_row(self, names, to_file, tmp_path, capsys):
        doc = dict(THREE_TYPE_CONFIG, types=names, initial=[2, 0, 1])
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "one.csv"
        argv = ["simulate", "--config", str(path), "--horizon", "30", "--replicas", "1",
                "--seed", "2"]
        assert dispatch(argv + (["--out", str(out)] if to_file else [])) == 0
        text = out.read_text() if to_file else capsys.readouterr().out

        model = parse_config(json.dumps(doc))
        stats = sim_mod.ensemble(model, 30, 1, 2)
        assert stats.se_x is None
        want = self._reference("s,type,mean_x,se_x,mean_z,se_z,mean_y,se_y",
                               "%s,%s,%.17g,,%.17g,,%.17g,",
                               itertools.product(range(31), names),
                               np.stack((stats.mean_x, stats.mean_z, stats.mean_y), axis=-1))
        assert text == want


class TestDuplicateDelayKeys:
    def test_config_table(self, tmp_path, capsys):
        doc = dict(FIB_CONFIG)
        doc["offspring"] = {"kind": "poisson",
                            "means": {"1": [[1.0]], "01": [[5.0]], "2": [[1.0]]}}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["malthusian", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:SchemaError: offspring.means.01:")

    def test_generate_rhos(self, tmp_path, capsys):
        gen = {"P": [[0.5, 0.5], [0.5, 0.5]], "h": [2.0, 1.0],
               "rhos": {"1": 0.4, "2": 0.5, "+1": 0.3}}
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(gen))
        assert dispatch(["generate", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:SchemaError: rhos.+1:")


class TestBlockRunOptions:
    @pytest.mark.parametrize("s", ["6", "1"])  # "1": no class is long enough
    @pytest.mark.parametrize("alpha,delta,option", [("0.9", "0.1", "--alpha"),
                                                    ("0.0", "0.1", "--alpha"),
                                                    ("0.1", "0.5", "--delta"),
                                                    ("0.1", "nan", "--delta")])
    def test_out_of_range_is_typed(self, s, alpha, delta, option, fib_config, capsys):
        assert dispatch(["paths", "--config", fib_config, "--s", s, "--upsilon", "1",
                         "--alpha", alpha, "--delta", delta]) == 1
        assert capsys.readouterr().err.startswith(f"error:SchemaError: {option}: must lie in")

    def test_huge_upsilon_builds_no_power(self, fib_config, capsys):
        # no word of span 6 is longer than 2^upsilon, so every class is skipped
        code = dispatch(["paths", "--config", fib_config, "--s", "6", "--upsilon",
                         "100000000000", "--alpha", "0.3", "--delta", "0.25"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert _typed_or_ok(code, err)
        if code == 0:
            assert json.loads(out)["block_run"]["by_class"] == {}

    def test_upsilon_keeps_long_classes(self, fib_config, capsys):
        assert dispatch(["paths", "--config", fib_config, "--s", "6", "--upsilon", "2",
                         "--alpha", "0.3", "--delta", "0.25"]) == 0
        by_class = json.loads(capsys.readouterr().out)["block_run"]["by_class"]
        assert set(by_class) == {"[6, 0]", "[4, 1]"}  # r = 6 and 5 exceed 2^2


def _typed_or_ok(code, err):
    """Exit 0, or exit 1 with one line naming a DelayedBPError subclass."""
    if code == 0:
        return True
    name = err.split(":")[1] if err.startswith("error:") else ""
    return (code == 1 and err.count("\n") == 1
            and issubclass(getattr(errors, name, type(None)), errors.DelayedBPError))


class TestLargeDelays:
    def _config(self, tmp_path, delays, mats):
        n = len(mats[0])
        doc = {"types": [f"t{i}" for i in range(n)], "delays": list(delays),
               "offspring": {"kind": "poisson",
                             "means": {str(d): m for d, m in zip(delays, mats)}},
               "lifetime": {"pmf": [0.0, 1.0]}, "initial": 0}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("argv", [["malthusian"], ["evolve", "--horizon", "50"], ["limits"]])
    def test_no_traceback_at_delay_3000(self, argv, tmp_path, capsys):
        # rho ** -3000 passes the double range at the bracket's low end
        path = self._config(tmp_path, (1, 3000), ([[0.3, 0.2], [0.1, 0.4]],
                                                  [[0.2, 0.1], [0.3, 0.2]]))
        code = dispatch([*argv, "--config", path, "--out", str(tmp_path / "out")])
        assert _typed_or_ok(code, capsys.readouterr().err)

    def test_delay_ten_thousand(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        mats = [rng.uniform(0.2, 1.0, size=(10, 10)) * w / 10 for w in (0.6, 0.5)]
        path = self._config(tmp_path, (1, 10 ** 4), [m.tolist() for m in mats])
        assert dispatch(["malthusian", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0 < doc["companion_residual"] <= 1e-9 * doc["rho_hat"]
        out = tmp_path / "evolve.csv"
        assert dispatch(["evolve", "--config", path, "--horizon", "20000",
                         "--out", str(out)]) == 0
        with out.open() as fh:
            assert sum(1 for _ in fh) == 1 + 20001 * 10
        code = dispatch(["limits", "--config", path])
        assert _typed_or_ok(code, capsys.readouterr().err)


class TestSpectralSolvesOnce:
    def _shared_config(self, tmp_path):
        fam, _, _, _ = make_shared_family(np.random.default_rng(41), 4, (1, 2, 5), mix=0.3)
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(model_to_config(model)))
        return str(path)

    def test_one_pf_solve_per_delay(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = spec_mod.pf_decompose
        monkeypatch.setattr(spec_mod, "pf_decompose",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        assert dispatch(["spectral", "--config", self._shared_config(tmp_path)]) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("argv", [["limits", "--horizon", "50"],
                                      ["paths", "--s", "6", "--samples", "2000", "--seed", "3"]])
    def test_no_delay_solved_twice_after_the_root(self, argv, tmp_path, capsys, monkeypatch):
        # limits and paths --samples read the per-delay P-F data of the root's
        # solve, so they make no P-F solve beyond solve_malthusian's own
        fam, _, _, _ = make_shared_family(np.random.default_rng(43), 3, (1, 2, 3, 5))
        model = poisson_model_from_family(fam, LifetimeLaw(pmf=(0.0, 1.0)))
        path = tmp_path / "shared4.json"
        path.write_text(json.dumps(model_to_config(model)))
        calls = []
        real = spec_mod.pf_decompose
        counting = lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)
        monkeypatch.setattr(spec_mod, "pf_decompose", counting)
        monkeypatch.setattr(mal_mod, "pf_decompose", counting)
        assert dispatch(["malthusian", "--config", str(path)]) == 0
        solve = len(calls)
        assert solve > 4
        assert dispatch([argv[0], "--config", str(path), *argv[1:]]) == 0
        assert len(calls) - solve == solve

    @pytest.mark.parametrize("tol", ["1e-12", "1e-6"])
    def test_tol_governs_the_sharing_block(self, tol, tmp_path, capsys):
        # the sharing block is read off the per-delay P-F data solved at --tol
        assert dispatch(["spectral", "--config", self._shared_config(tmp_path),
                         "--tol", tol]) == 0
        doc = json.loads(capsys.readouterr().out)
        per_delay, shared = doc["per_delay"], doc["shared"]
        assert shared["shared"] is True
        assert shared["h"] == per_delay["1"]["h"]
        assert shared["nu"] == per_delay["1"]["nu"]
        dev = max(max(abs(a - b) for a, b in zip(per_delay[d][v], per_delay["1"][v]))
                  for d in per_delay for v in ("h", "nu"))
        assert shared["max_deviation"] == dev


def test_python_m_runs_the_cli(fib_config):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "delayedbp", "validate", "--config", fib_config],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("argv", [["evolve", "--horizon", "1000000000"],
                                  ["simulate", "--horizon", "1000000000", "--replicas", "2",
                                   "--seed", "1"]])
def test_out_of_memory_is_typed(argv, fib_config):
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    def limit():  # runs in the child only: caps its address space at 2 GB
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "delayedbp", argv[0], "--config", fib_config,
                           *argv[1:]], capture_output=True, text=True, env=env,
                          preexec_fn=limit, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:OutOfMemoryError: ")
