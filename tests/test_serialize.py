import json

import numpy as np
import pytest

import loopbracket.bracket as B
import loopbracket.dgla as DG
import loopbracket.groups as G
import loopbracket.schema as SC
import loopbracket.serialize as Z
import loopbracket.surface as S


def test_matrix_round_trip_complex():
    m = np.array([[1 + 2j, -0.5], [3.25j, 4.0]])
    data = Z.matrix_to_json(m)
    assert data[0][0] == [1.0, 2.0]
    back = Z.matrix_from_json(json.loads(json.dumps(data)))
    assert np.array_equal(back, m)


def test_matrix_round_trip_real_rectangular():
    m = np.arange(6.0).reshape(2, 3)
    back = Z.matrix_from_json(Z.matrix_to_json(m))
    assert back.shape == (2, 3)
    assert np.array_equal(back, m.astype(complex))


@pytest.mark.parametrize("data", [
    [],
    "nope",
    [[1.0, 2.0]],                      # cells must be [re, im] pairs
    [[[1.0, 2.0]], [[1.0, 2.0], [0.0, 0.0]]],  # ragged
    [[[1.0, 2.0, 3.0]]],
    [[[float("inf"), 0.0]]],
    [[[1.0, "x"]]],
    [[[10**400, 0.0]]],                # an integer no double holds
    [[[1.0, None]]],
    [[[True, 0.0]]],
    [[["1.5", 0.0]]],
])
def test_matrix_from_json_rejects(data):
    with pytest.raises(SC.SchemaError):
        Z.matrix_from_json(data)


GROUP_TABLE = [
    ("GL(2,R)", G.GroupSpec("GL_R", 2)),
    ("GL(2,C)", G.GroupSpec("GL_C", 2)),
    ("O(2)", G.GroupSpec("O_pq", 2, 2, 0)),
    ("O(1,1)", G.GroupSpec("O_pq", 2, 1, 1)),
    ("O(2,1)", G.GroupSpec("O_pq", 3, 2, 1)),
    ("O(2,C)", G.GroupSpec("O_C", 2)),
    ("U(2)", G.GroupSpec("U_pq", 2, 2, 0)),
    ("U(1,1)", G.GroupSpec("U_pq", 2, 1, 1)),
    ("Sp(2,R)", G.GroupSpec("Sp_R", 2)),
    ("Sp(1,1)", G.GroupSpec("Sp_pq", 2, 1, 1)),
]


@pytest.mark.parametrize("text,spec", GROUP_TABLE)
def test_group_string_table(text, spec):
    assert Z.parse_group_string(text) == spec


@pytest.mark.parametrize("text", [
    "GL(2)", "GL(2,Q)", "U(2,R)", "U(2,C)", "Sp(2)", "Sp(2,C)",
    "SO(3)", "O()", "O(2,R)", "GL(2,R) junk", "", "Sp(1,R)",
    # finite groups: no Lie algebra to sample from
    "O(1)", "O(0,1)", "O(1,C)",
    # a digit where a field goes, an empty group, a third index
    "GL(2,1)", "U(0)", "O(2,1,1)",
    pytest.param("GL(" + "9" * 5000 + ",R)", id="GL(5000 digits,R)"),
])
def test_parse_group_string_rejects(text):
    with pytest.raises(SC.SchemaError):
        Z.parse_group_string(text)


def test_group_json_round_trip():
    for _, spec in GROUP_TABLE:
        assert Z.group_from_json(Z.group_to_json(spec)) == spec
    with pytest.raises(SC.SchemaError):
        Z.group_from_json({"kind": "GL_R"})
    with pytest.raises(SC.SchemaError):
        Z.group_from_json({"kind": "XL", "n": 2})
    with pytest.raises(SC.SchemaError):
        Z.group_from_json([1, 2])


def test_rep_round_trip():
    spec = Z.parse_group_string("U(2)")
    rep = S.sample_representation(spec, 2, np.random.default_rng(5))
    obj = json.loads(json.dumps(Z.rep_to_json(rep)))
    assert set(obj["images"]) == {"a1", "b1", "a2", "b2"}
    back = Z.rep_from_json(obj)
    assert back.genus == 2
    assert back.spec == spec
    for k in range(4):
        assert np.allclose(back.images[k], rep.images[k], atol=1e-15)


def test_rep_from_json_rejects():
    spec = G.GroupSpec("GL_R", 2)
    rep = S.sample_representation(spec, 1, np.random.default_rng(0))
    good = Z.rep_to_json(rep)
    bad = dict(good, images={"a1": good["images"]["a1"]})
    with pytest.raises(SC.SchemaError):
        Z.rep_from_json(bad)
    bad = dict(good, images={"a1": good["images"]["a1"],
                             "b2": good["images"]["b1"]})
    with pytest.raises(SC.SchemaError):
        Z.rep_from_json(bad)
    wrong_shape = dict(good, group=Z.group_to_json(G.GroupSpec("GL_R", 3)))
    with pytest.raises(SC.SchemaError):
        Z.rep_from_json(wrong_shape)
    with pytest.raises(SC.SchemaError):
        Z.rep_from_json({"images": good["images"]})
    for a1 in (np.zeros((2, 2)), np.diag([1e-310, 1.0])):  # no (finite) inverse
        bad = dict(good, images=dict(good["images"], a1=Z.matrix_to_json(a1)))
        with pytest.raises(SC.SchemaError):
            Z.rep_from_json(bad)


def test_curves_from_json():
    genus, curves = SC.curves_from_json(
        {"genus": 2, "curves": {"x": "a1 b1 A2", "y": ""}})
    assert genus == 2
    assert curves["x"] == [1, 2, -3]
    assert curves["y"] == []
    for bad in [
        {"genus": 0, "curves": {"x": "a1"}},
        {"genus": 1, "curves": {"x": "a2"}},   # letter out of range
        {"genus": 1, "curves": {"x": 7}},
        {"genus": 1, "curves": {}},
        {"curves": {"x": "a1"}},
    ]:
        with pytest.raises(SC.SchemaError):
            SC.curves_from_json(bad)


def test_loopsum_to_json():
    ls = B.LoopSum([([1, 2], "1/2"), ([-1], -2), ([], 1)])
    assert SC.loopsum_to_json(ls) == [{"coef": "1", "word": ""},
                                      {"coef": "-2", "word": "A1"},
                                      {"coef": "1/2", "word": "a1 b1"}]
    # cyclic rotations of the same class are one term
    merged = B.LoopSum([([1, 2], "1/2"), ([2, 1], "1/2")])
    assert SC.loopsum_to_json(merged) == [{"coef": "1", "word": "a1 b1"}]


def test_perturbation_zero_fill():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    pert = Z.perturbation_from_json({"b1": Z.matrix_to_json(m)}, 2, 2)
    assert set(pert) == {1, 2, 3, 4}
    assert np.array_equal(pert[2], m.astype(complex))
    assert all(np.all(pert[k] == 0) for k in (1, 3, 4))


def test_perturbation_rejects():
    m = Z.matrix_to_json(np.eye(2))
    for bad_key in ("A1", "a1 b1", "a3", "x"):
        with pytest.raises(SC.SchemaError):
            Z.perturbation_from_json({bad_key: m}, 1, 2)
    with pytest.raises(SC.SchemaError):
        Z.perturbation_from_json({"a1": Z.matrix_to_json(np.eye(3))}, 1, 2)
    with pytest.raises(SC.SchemaError):
        Z.perturbation_from_json(["a1"], 1, 2)
    huge = [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(SC.SchemaError):
        Z.perturbation_from_json({"a1": huge}, 1, 2)


def test_dgla_round_trip():
    inst = DG.surface_toy_instance(2, G.GroupSpec("GL_R", 2))
    obj = json.loads(json.dumps(Z.dgla_to_json(inst)))
    back = Z.dgla_from_json(obj)
    for name in ("b00", "b01", "b11", "d_eo", "d_oe", "w00", "w11"):
        assert np.array_equal(getattr(back, name), getattr(inst, name))
    assert DG.axioms_pass(DG.axioms_residual(back))


def test_dgla_from_json_rejects():
    good = Z.dgla_to_json(DG.minimal_differential_instance())
    for mutate in [
        lambda o: o.pop("w11"),
        lambda o: o.update(d0=-1),
        lambda o: o.update(d0="2"),
        lambda o: o.update(d_eo=[[1.0, 1.0]]),
        lambda o: o.update(w00=[[float("nan"), 0.0], [0.0, 1.0]]),
        lambda o: o.update(w00=[[True, 0.0], [0.0, -1.0]]),
        lambda o: o.update(d_oe=[[0.0, "-1"], [0.0, 1.0]]),
        lambda o: o.update(w00=[[10**400, 0.0], [0.0, -1.0]]),
        lambda o: o.update(w11=[[0.0, 1.0], [None, 0.0]]),
        # tensors that fit each other, but not the file's d0 or d1
        lambda o: o.update(d0=1),
        lambda o: o.update(d1=3),
    ]:
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(SC.SchemaError):
            Z.dgla_from_json(obj)
