"""The config schema: every error a document or an option can reach, and
the round trip from a model to its config and back.

Each error case is one bad document; it pins the exit code and the
``error:<type>: <field path>:`` prefix of the one-line error report.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedbp import DelayFamily, LifetimeLaw, ModelSpec, OffspringLaw
from delayedbp.cli import dispatch, emit_json, model_to_config, parse_config

FIB = {
    "types": ["a"],
    "delays": [1, 2],
    "offspring": {"kind": "poisson", "means": {"1": [[1.0]], "2": [[1.0]]}},
    "lifetime": {"pmf": [0.0, 0.0, 0.0, 1.0], "death_prob": 0.0},
    "initial": 0,
}
PMF = dict(FIB, offspring={"kind": "pmf",
                           "pmfs": {"1": [[[0.5, 0.5]]], "2": [[[0.0, 1.0]]]}})
TWO = dict(FIB, types=["a", "b"], offspring={"kind": "poisson", "means": {
    "1": [[1.0, 1.0], [1.0, 1.0]], "2": [[1.0, 1.0], [1.0, 1.0]]}})
GEN = {"P": [[0.5, 0.5], [0.5, 0.5]], "h": [2.0, 1.0], "rhos": {"1": 0.4, "2": 0.5}}
DROP = object()


def edit(base, **changes):
    """``base`` with dotted paths (``__`` for ``.``) set to values, or DROPped."""
    doc = copy.deepcopy(base)
    for path, value in changes.items():
        *parents, last = path.split("__")
        node = doc
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return doc


def lifetime(**fields):
    return edit(FIB, lifetime=fields)


# (document, error type, field path); a str document is written verbatim
VALIDATE = [
    ("{nope", "SchemaError", "<document>"),
    ([1], "SchemaError", "<document>"),
    (edit(FIB, extra=1), "SchemaError", "extra"),
    (edit(FIB, types=DROP), "SchemaError", "types"),
    (edit(FIB, delays=DROP), "SchemaError", "delays"),
    (edit(FIB, offspring=DROP), "SchemaError", "offspring"),
    (edit(FIB, lifetime=DROP), "SchemaError", "lifetime"),
    (edit(FIB, types="a"), "SchemaError", "types"),
    (edit(FIB, types=[]), "SchemaError", "types"),
    (edit(FIB, types=[1]), "SchemaError", "types"),
    (edit(FIB, delays=1), "SchemaError", "delays"),
    (edit(FIB, delays=[]), "SchemaError", "delays"),
    (edit(FIB, delays=[1.5, 2]), "SchemaError", "delays"),
    (edit(FIB, delays=[True, 2]), "SchemaError", "delays"),
    (edit(FIB, delays=[0, 1, 2]), "SchemaError", "delays"),
    (edit(FIB, delays=[2, 2]), "DuplicateDelayError", "delays"),
    (edit(FIB, offspring=[]), "SchemaError", "offspring"),
    (edit(FIB, offspring__extra=1), "SchemaError", "offspring.extra"),
    (edit(FIB, offspring__kind="normal"), "SchemaError", "offspring.kind"),
    (edit(FIB, offspring__kind=DROP), "SchemaError", "offspring.kind"),
    (edit(FIB, offspring__means=DROP), "SchemaError", "offspring.means"),
    (edit(FIB, offspring__pmfs={}), "SchemaError", "offspring.pmfs"),
    (edit(FIB, offspring__means=[[[1.0]]]), "SchemaError", "offspring.means"),
    (edit(FIB, offspring__means__x=[[1.0]]), "SchemaError", "offspring.means.x"),
    (edit(FIB, offspring__means__0=[[1.0]]), "SchemaError", "offspring.means.0"),
    (edit(FIB, offspring__means__1="x"), "SchemaError", "offspring.means.1"),
    (edit(FIB, offspring__means__1=[[1.0], [1.0]]), "SchemaError", "offspring.means.1"),
    (edit(FIB, offspring__means__1=[[1.0, 2.0]]), "SchemaError", "offspring.means.1[0]"),
    (edit(FIB, offspring__means__1=[1.0]), "SchemaError", "offspring.means.1[0]"),
    (edit(FIB, offspring__means__1=[["x"]]), "SchemaError", "offspring.means.1[0]"),
    (edit(FIB, offspring__means__1=[[float("nan")]]), "SchemaError", "offspring.means.1[0]"),
    (edit(FIB, offspring__means__1=[[10 ** 400]]), "SchemaError", "offspring.means.1[0]"),
    (edit(FIB, offspring__means__1=[[-1.0]]), "NegativeEntryError", "offspring.means.1[0]"),
    (edit(FIB, offspring__means__2=DROP), "SchemaError", "offspring.2"),
    (edit(PMF, offspring__pmfs=DROP), "SchemaError", "offspring.pmfs"),
    (edit(PMF, offspring__means={}), "SchemaError", "offspring.means"),
    (edit(PMF, offspring__pmfs=[]), "SchemaError", "offspring.pmfs"),
    (edit(PMF, offspring__pmfs__x=[[[1.0]]]), "SchemaError", "offspring.pmfs.x"),
    (edit(PMF, offspring__pmfs__1="x"), "SchemaError", "offspring.pmfs.1"),
    (edit(PMF, offspring__pmfs__1=[[[1.0], [1.0]]]), "SchemaError", "offspring.pmfs.1[0]"),
    (edit(PMF, offspring__pmfs__1=[[1.0]]), "SchemaError", "offspring.pmfs.1[0][0]"),
    (edit(PMF, offspring__pmfs__1=[[[]]]), "SchemaError", "offspring.pmfs.1[0][0]"),
    (edit(PMF, offspring__pmfs__1=[[["x"]]]), "SchemaError", "offspring.pmfs.1[0][0]"),
    (edit(PMF, offspring__pmfs__1=[[[-0.5, 1.5]]]), "SchemaError", "offspring.pmfs.1[0][0]"),
    (edit(PMF, offspring__pmfs__1=[[[1.5]]]), "SchemaError", "offspring.pmfs.1[0][0]"),
    (edit(PMF, offspring__pmfs__1=[[[0.5]]]), "SchemaError", "offspring.pmfs.1[0][0]"),
    (edit(PMF, offspring__pmfs__1=[[[0.5, 0.4999999]]]), "SchemaError",
     "offspring.pmfs.1[0][0]"),
    (edit(PMF, offspring__pmfs__2=DROP), "SchemaError", "offspring.2"),
    (edit(FIB, lifetime=[0.0, 1.0]), "SchemaError", "lifetime"),
    (edit(FIB, lifetime__bogus=1), "SchemaError", "lifetime.bogus"),
    (edit(FIB, lifetime__pmf=DROP), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=0.5), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=[]), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=[], tail_ratio=0.5), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=["x", 1.0]), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=[-0.5, 1.5]), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=[1.5], tail_ratio=0.5), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=[0.3, 0.5]), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=[0.5, 0.4999999]), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=[0.6, 0.6], tail_ratio=0.5), "SchemaError", "lifetime.pmf"),
    (lifetime(pmf=[0.5], tail_ratio="x"), "SchemaError", "lifetime.tail_ratio"),
    (lifetime(pmf=[0.5], tail_ratio=1.0), "SchemaError", "lifetime.tail_ratio"),
    (lifetime(pmf=[0.5], tail_ratio=-0.1), "SchemaError", "lifetime.tail_ratio"),
    (lifetime(pmf=[0.0, 1.0], death_prob="x"), "SchemaError", "lifetime.death_prob"),
    (lifetime(pmf=[0.0, 1.0], death_prob=1.5), "SchemaError", "lifetime.death_prob"),
    (lifetime(pmf=[0.0, 1.0], death_prob=-0.1), "SchemaError", "lifetime.death_prob"),
    (lifetime(pmf=[0.0, 1.0], death_prob=[0.1, "x"]), "SchemaError", "lifetime.death_prob"),
    (lifetime(pmf=[0.0, 1.0], death_prob=[0.1, 2.0]), "SchemaError", "lifetime.death_prob"),
    (edit(FIB, initial="x"), "SchemaError", "initial"),
    (edit(FIB, initial=1.5), "SchemaError", "initial"),
    (edit(FIB, initial=True), "SchemaError", "initial"),
    (edit(FIB, initial=3), "SchemaError", "initial"),
    (edit(FIB, initial=-1), "SchemaError", "initial"),
    (edit(FIB, initial=[1, 2]), "SchemaError", "initial"),
    (edit(FIB, initial=["x"]), "SchemaError", "initial"),
    (edit(FIB, initial=[-1]), "NegativeEntryError", "initial"),
    # an offspring law at a delay not in `delays`
    (edit(FIB, offspring__means__3=[[5.0]]), "SchemaError", "offspring.means.3"),
    (edit(PMF, offspring__pmfs__3=[[[1.0]]]), "SchemaError", "offspring.pmfs.3"),
    # a type name is one CSV cell, told apart from the others
    (edit(FIB, types=["a,b"]), "SchemaError", "types"),
    (edit(FIB, types=['a"b']), "SchemaError", "types"),
    (edit(FIB, types=["x\ny"]), "SchemaError", "types"),
    (edit(FIB, types=["x\ry"]), "SchemaError", "types"),
    (edit(TWO, types=["a", "a"]), "SchemaError", "types"),
]

GENERATE = [
    ("{nope", "SchemaError", "<document>"),
    ([1], "SchemaError", "<document>"),
    (edit(GEN, extra=1), "SchemaError", "extra"),
    (edit(GEN, P=DROP), "SchemaError", "P"),
    (edit(GEN, rhos=DROP), "SchemaError", "rhos"),
    (edit(GEN, h=DROP), "SchemaError", "h"),
    (edit(GEN, nu=[1.0, 1.0]), "SchemaError", "h"),
    (edit(GEN, P="x"), "SchemaError", "P"),
    (edit(GEN, P=[]), "SchemaError", "P"),
    (edit(GEN, P=[[0.5, 0.5], [1.0]]), "SchemaError", "P[1]"),
    (edit(GEN, P=[[0.5, 0.5], "x"]), "SchemaError", "P[1]"),
    (edit(GEN, P=[[0.5, "x"], [0.5, 0.5]]), "SchemaError", "P[0]"),
    (edit(GEN, P=[[0.5, 0.5], [-0.5, 1.5]]), "NegativeEntryError", "P[1]"),
    (edit(GEN, P=[[0.5, 0.5], [0.0, 1.0]]), "SchemaError", "P"),
    (edit(GEN, h=[2.0]), "SchemaError", "h"),
    (edit(GEN, h=[2.0, "x"]), "SchemaError", "h"),
    (edit(GEN, h=[2.0, 0.0]), "SchemaError", "h"),
    (edit(GEN, h=DROP, nu=[1.0, -1.0]), "SchemaError", "nu"),
    (edit(GEN, rhos=[0.4, 0.5]), "SchemaError", "rhos"),
    (edit(GEN, rhos={}), "SchemaError", "rhos"),
    (edit(GEN, rhos={"1": "x"}), "SchemaError", "rhos.1"),
    (edit(GEN, rhos={"x": 0.4}), "SchemaError", "rhos.x"),
    (edit(GEN, rhos={"0": 0.4}), "SchemaError", "rhos.0"),
    (edit(GEN, rhos={"1": -0.4}), "SchemaError", "rhos.1"),
    (edit(GEN, types="ab"), "SchemaError", "types"),
    (edit(GEN, types=["a"]), "SchemaError", "types"),
    (edit(GEN, types=[1, 2]), "SchemaError", "types"),
    (edit(GEN, lifetime=[0.0, 1.0]), "SchemaError", "lifetime"),
    (edit(GEN, lifetime={"pmf": [0.3, 0.5]}), "SchemaError", "lifetime.pmf"),
    (edit(GEN, lifetime={"pmf": [0.5], "tail_ratio": 1.5}), "SchemaError",
     "lifetime.tail_ratio"),
    (edit(GEN, lifetime={"pmf": [0.0, 1.0], "death_prob": 1.0}), "SchemaError", "rhos.1"),
    (edit(GEN, initial=5), "SchemaError", "initial"),
    (edit(GEN, initial="x"), "SchemaError", "initial"),
    (edit(GEN, initial=[1.0]), "SchemaError", "initial"),
    (edit(GEN, initial=[1.0, -1.0]), "NegativeEntryError", "initial"),
    (edit(GEN, types=["a,b", "c"]), "SchemaError", "types"),
    (edit(GEN, types=["x\ny", "z"]), "SchemaError", "types"),
    (edit(GEN, types=["a", "a"]), "SchemaError", "types"),
    # a ratio of h or nu, a member or a raw mean past the double range
    (edit(GEN, h=[1e10, 1.0], rhos={"1": 1e300}), "SchemaError", "rhos.1"),
    (edit(GEN, h=DROP, nu=[1e10, 1.0], rhos={"1": 1e300}), "SchemaError", "rhos.1"),
    (edit(GEN, h=[1e-200, 1e200]), "SchemaError", "h"),
    (edit(GEN, h=DROP, nu=[1e-200, 1e200]), "SchemaError", "nu"),
    (edit(GEN, rhos={"1": 5e-324}), "SchemaError", "rhos.1"),
    (edit(GEN, h=[1.0, 1.0], rhos={"1": 1.5e308},
          lifetime={"pmf": [0.0, 1.0], "death_prob": 0.9}), "SchemaError", "rhos.1"),
]


def _run(command, flag, doc, tmp_path):
    """Exit code of ``command`` on ``doc``; a str document is written verbatim."""
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return dispatch([command, flag, str(path), "--out", str(tmp_path / "out")])


def _cases(command, flag, table):
    for i, (doc, error, field) in enumerate(table):
        yield pytest.param(command, flag, doc, error, field, id=f"{command}-{i}-{field}")


@pytest.mark.parametrize("command,flag,doc,error,field", [
    *_cases("validate", "--config", VALIDATE), *_cases("generate", "--input", GENERATE)])
def test_document_error(command, flag, doc, error, field, tmp_path, capsys):
    assert _run(command, flag, doc, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:{error}: {field}:"), err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_type_names_that_stay_allowed():
    # only a comma, a quote, CR, LF and a repeat break the CSV
    names = ["β", "nan", "inf", "x\x00y", "\ud800"]
    doc = dict(FIB, types=names, initial=0, offspring={"kind": "poisson", "means": {
        d: np.ones((5, 5)).tolist() for d in ("1", "2")}})
    assert parse_config(json.dumps(doc)).type_names == tuple(names)


_DEEP = b"[" * 100_000 + b"]" * 100_000
_DIGITS = json.dumps(FIB).replace('"initial": 0', '"initial": ' + "1" * 5000).encode()
_NOT_UTF8 = json.dumps(dict(FIB, types=["\xe9"]), ensure_ascii=False).encode("latin-1")


@pytest.mark.parametrize("argv", [
    ["validate"], ["spectral"], ["malthusian"], ["evolve", "--horizon", "5"],
    ["limits", "--horizon", "5"], ["paths", "--s", "4"],
    ["simulate", "--horizon", "5", "--replicas", "2", "--seed", "1"], ["generate"]],
    ids=lambda argv: argv[0])
@pytest.mark.parametrize("data", [_DEEP, _DIGITS, _NOT_UTF8], ids=["deep", "digits", "latin-1"])
def test_undecodable_document(argv, data, tmp_path, capsys):
    # a document nested past the recursion limit, an integer past Python's
    # digit limit or bytes that are not UTF-8: one typed line, exit 1
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    flag = "--input" if argv[0] == "generate" else "--config"
    assert dispatch([argv[0], flag, str(path), *argv[1:], "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:SchemaError: <document>:"), err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,doc,field", [
    ("validate", "--config", edit(FIB, offspring__means__1=[[True]]), "offspring.means.1[0]"),
    ("validate", "--config", edit(PMF, offspring__pmfs__1=[[[True]]]),
     "offspring.pmfs.1[0][0]"),
    ("validate", "--config", lifetime(pmf=[0, 0, 0, True]), "lifetime.pmf"),
    ("validate", "--config", lifetime(pmf=[0.5], tail_ratio=False), "lifetime.tail_ratio"),
    ("validate", "--config", lifetime(pmf=[0.0, 1.0], death_prob=False),
     "lifetime.death_prob"),
    ("validate", "--config", lifetime(pmf=[0.0, 1.0], death_prob=[False]),
     "lifetime.death_prob"),
    ("validate", "--config", edit(FIB, initial=[True]), "initial"),
    ("validate", "--config", edit(FIB, initial=True), "initial"),
    ("validate", "--config", edit(FIB, delays=[True, 2]), "delays"),
    ("generate", "--input", edit(GEN, P=[[True, False], [0.5, 0.5]]), "P[0]"),
    ("generate", "--input", edit(GEN, h=[True, 1.0]), "h"),
    ("generate", "--input", edit(GEN, rhos={"1": True}), "rhos.1"),
    ("generate", "--input", edit(GEN, initial=[True, 0]), "initial"),
    ("generate", "--input", edit(GEN, lifetime={"pmf": [False, True]}), "lifetime.pmf"),
])
def test_boolean_is_not_a_number(command, flag, doc, field, tmp_path, capsys):
    assert _run(command, flag, doc, tmp_path) == 1
    assert capsys.readouterr().err.startswith(f"error:SchemaError: {field}:")


@pytest.mark.parametrize("argv,option", [
    (["evolve", "--horizon", "-1"], "--horizon"),
    (["limits", "--horizon", "-1"], "--horizon"),
    (["simulate", "--horizon", "-1", "--replicas", "1", "--seed", "0"], "--horizon"),
    (["simulate", "--horizon", "2", "--replicas", "0", "--seed", "0"], "--replicas"),
    (["simulate", "--horizon", "2", "--replicas", "1", "--seed", "-1"], "--seed"),
    (["simulate", "--horizon", "2", "--replicas", "1", "--seed", "0", "--pop-cap", "0"],
     "--pop-cap"),
    (["paths", "--s", "-1"], "--s"),
    (["paths", "--s", "4", "--kappa", "1"], "--kappa"),
    (["paths", "--s", "4", "--upsilon", "0", "--alpha", "0.1", "--delta", "0.1"],
     "--upsilon"),
    (["paths", "--s", "4", "--samples", "0", "--seed", "0"], "--samples"),
    (["paths", "--s", "4", "--samples", "10", "--seed", "-1"], "--seed"),
    (["paths", "--s", "4", "--r", "-1"], "--r"),
])
def test_option_below_its_bound(argv, option, tmp_path, capsys):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIB))
    assert dispatch([argv[0], "--config", str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: must be >" in err
    assert "error:ValueError" not in err


@pytest.mark.parametrize("argv", [
    ["evolve", "--horizon", "0"],
    ["limits", "--horizon", "0"],
    ["simulate", "--horizon", "0", "--replicas", "1", "--seed", "0", "--pop-cap", "1"],
    ["paths", "--s", "0"],
    ["paths", "--s", "4", "--kappa", "2", "--upsilon", "1", "--alpha", "0.1",
     "--delta", "0.1"],
    ["paths", "--s", "4", "--samples", "1", "--seed", "0"],
])
def test_option_at_its_bound_is_accepted(argv, tmp_path, capsys):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIB))
    assert dispatch([argv[0], "--config", str(path), *argv[1:]]) != 2
    assert "error: argument" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# model -> config -> model


@st.composite
def _pmf(draw, mass=1.0):
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
    return tuple(w / sum(weights) * mass for w in weights)


@st.composite
def models(draw):
    n = draw(st.integers(1, 3))
    delays = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        means = {d: np.array(draw(st.lists(st.lists(st.floats(0.0, 1e6), min_size=n,
                                                    max_size=n), min_size=n, max_size=n)))
                 for d in delays}
        offspring = OffspringLaw(kind="poisson", means=means)
    else:
        offspring = OffspringLaw(kind="pmf", pmfs={
            d: [[draw(_pmf()) for _ in range(n)] for _ in range(n)] for d in delays})
    tail = draw(st.none() | st.floats(0.0, 1.0, exclude_max=True))
    pmf = draw(_pmf() if tail is None else _pmf(draw(st.floats(0.0, 1.0))))
    death_prob = draw(st.floats(0.0, 1.0) | st.lists(st.floats(0.0, 1.0), min_size=1,
                                                      max_size=3).map(tuple))
    initial = draw(st.integers(0, n - 1)
                   | st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n).map(tuple))
    names = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=3)
    return ModelSpec(type_names=tuple(draw(st.lists(names, min_size=n, max_size=n,
                                                    unique=True))),
                     delay_family=DelayFamily(tuple(delays)), offspring=offspring,
                     lifetime=LifetimeLaw(pmf=pmf, tail_ratio=tail, death_prob=death_prob),
                     initial=initial)


def _bits(x):
    """Bytes of a float or a (nested) float sequence; None and ints as themselves."""
    if x is None or isinstance(x, int):
        return x
    return np.asarray(x, dtype=float).tobytes()


def assert_same_model(a, b):
    assert a.type_names == b.type_names
    assert a.delay_family.delays == b.delay_family.delays
    assert a.offspring.kind == b.offspring.kind
    table = "means" if a.offspring.kind == "poisson" else "pmfs"
    ta, tb = getattr(a.offspring, table), getattr(b.offspring, table)
    assert ta.keys() == tb.keys()
    for d in ta:
        cells_a = [ta[d]] if table == "means" else [c for row in ta[d] for c in row]
        cells_b = [tb[d]] if table == "means" else [c for row in tb[d] for c in row]
        assert [_bits(c) for c in cells_a] == [_bits(c) for c in cells_b]
    la, lb = a.lifetime, b.lifetime
    assert _bits(la.pmf) == _bits(lb.pmf)
    assert _bits(la.tail_ratio) == _bits(lb.tail_ratio)
    assert type(la.death_prob) is type(lb.death_prob)
    assert _bits(la.death_prob) == _bits(lb.death_prob)
    assert type(a.initial) is type(b.initial)
    assert _bits(a.initial) == _bits(b.initial)


@settings(max_examples=150, deadline=None)
@given(models())
def test_model_to_config_round_trip(model):
    config = model_to_config(model)
    assert_same_model(parse_config(json.dumps(config)), model)
    assert_same_model(parse_config(emit_json(config)), model)  # what generate writes


def test_spectral_takes_no_tol(tmp_path, capsys):
    # every P-F solve runs at spectral.PF_TOL; there is no option to loosen it
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIB))
    assert dispatch(["spectral", "--config", str(path), "--tol", "1e-6"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
