import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from constrained_dynamics import (
    ConstraintSet,
    GeneralizedState,
    RegularityError,
    ScenarioError,
    State,
    catalog_scenario,
    lift_holonomic,
    parse_scenario,
    virtual_basis,
    write_scenario,
)
from constrained_dynamics.constraints import _fix_signs
from constrained_dynamics.generalized import ChartError, pushforward_state
from constrained_dynamics.scenarios import (
    _catalog_documents,
    circle_embedding,
    knife_edge_constraints,
    rotating_line_embedding,
    rotating_line_generator,
    scenario_from_document,
    sphere_generator,
    sphere_polar_embedding,
)
from oracles import random_polynomial_generator, t_diff, y_diff


def test_catalog_names():
    assert sorted(_catalog_documents()) == [
        "knife-edge",
        "pendulum",
        "rotating-wire-bead",
        "spherical-pendulum",
    ]


def test_unknown_name_lists_available():
    with pytest.raises(ScenarioError, match="available"):
        catalog_scenario("double-pendulum")


def test_catalog_initial_states_on_manifold(all_scenarios):
    for sc in all_scenarios:
        s = sc.initial
        phi = sc.constraints.phi(s.t, s.x, s.v)
        assert np.abs(phi).max() < 1e-12


def test_pendulum_document_shape(pendulum):
    doc = pendulum.document
    assert doc["constraint"]["type"] == "sphere"
    assert doc["embedding"]["radius"] == 1.0
    assert pendulum.initial_generalized.w[0] == 2.0


def test_knife_edge_has_no_embedding(knife_edge):
    assert knife_edge.embedding is None
    assert knife_edge.initial_generalized is None
    cs = knife_edge.constraints
    assert not cs.is_holonomic and cs.affine_A is not None  # affine in v, without a generator


def test_round_trip_through_json(tmp_path, pendulum):
    path = tmp_path / "pendulum.json"
    write_scenario(pendulum, path)
    again = parse_scenario(path)
    assert again.name == pendulum.name
    assert np.array_equal(again.initial.x, pendulum.initial.x)
    assert again.integrator == pendulum.integrator


def test_parse_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="no such file"):
        parse_scenario(tmp_path / "nope.json")


def test_parse_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario(p)


def test_parse_non_utf8_file(tmp_path):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ScenarioError, match="unreadable scenario file.*utf-8"):
        parse_scenario(p)


def test_parse_integer_past_the_digit_limit(tmp_path):
    p = tmp_path / "digits.json"
    p.write_text('{"mass": {"point_masses": [' + "1" * 5000 + "]}}", encoding="utf-8")
    with pytest.raises(ScenarioError, match="unreadable scenario file.*4300 digits"):
        parse_scenario(p)


def test_document_problems_are_collected():
    doc = {
        "name": "broken",
        "mass": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "constraint": {"type": "sphere", "radius": 1.0},
        "initial": {"t": 0.0, "x": [0.0], "v": [9.0, 9.0, 9.0]},
    }
    with pytest.raises(ScenarioError) as err:
        scenario_from_document(doc)
    msgs = "\n".join(err.value.problems)
    assert "initial x" in msgs and "initial v" in msgs


def test_off_manifold_initial_rejected_at_parse():
    doc = dict(_catalog_documents()["pendulum"])
    doc["initial"] = {"t": 0.0, "x": [0.0, -1.5], "v": [2.0, 0.0]}
    with pytest.raises(ScenarioError, match="residual"):
        scenario_from_document(doc)


def test_missing_mass_is_fatal():
    with pytest.raises(ScenarioError, match="mass"):
        scenario_from_document({"name": "x", "initial": {"x": [0.0], "v": [0.0]}})


def test_unknown_force_type():
    doc = dict(_catalog_documents()["pendulum"])
    doc["force"] = {"type": "magnetic-monopole"}
    with pytest.raises(ScenarioError, match="force"):
        scenario_from_document(doc)


def test_generalized_initial_requires_embedding():
    doc = dict(_catalog_documents()["knife-edge"])
    doc["initial"] = {"t": 0.0, "y": [0.0], "w": [0.0]}
    with pytest.raises(ScenarioError, match="embedding"):
        scenario_from_document(doc)


def test_sample_states_on_manifold(all_scenarios):
    rng = np.random.default_rng(30)
    for sc in all_scenarios:
        t, X, V = sc.sample_states(rng, 50)
        assert t.shape == (50,) and X.shape == V.shape == (50, sc.dim)
        for ti, x, v in zip(t, X, V):
            assert np.abs(sc.constraints.phi(ti, x, v)).max() < 1e-10


def _sample_one_by_one(sc, rng, count):
    """The per-state sampler the array sampler replaces: rng.uniform call by
    call, a State per sample, and on the affine branch an lstsq particular
    solution plus a virtual_basis combination."""
    out = []
    for _ in range(count):
        t = float(rng.uniform(0.0, sc.sample_t_hi))
        if sc.embedding is not None:
            y = rng.uniform(sc.sample_y_lo, sc.sample_y_hi)
            w = rng.uniform(-2.0, 2.0, sc.embedding.r)
            out.append(pushforward_state(sc.embedding, GeneralizedState(t=t, y=y, w=w)))
        elif sc.constraints is None:
            out.append(State(t, rng.uniform(-2, 2, sc.dim), rng.uniform(-2, 2, sc.dim)))
        else:
            cs = sc.constraints
            x = rng.uniform(-2, 2, sc.dim)
            a = np.asarray(cs.affine_a(t, x), float).reshape(cs.n)
            A = np.asarray(cs.affine_A(t, x), float).reshape(cs.n, sc.dim)
            v_part, *_ = np.linalg.lstsq(A, -a, rcond=None)
            Xi = virtual_basis(cs, State(t, x, v_part)).Xi
            out.append(State(t, x, v_part + Xi @ rng.uniform(-2, 2, Xi.shape[1])))
    return out


def _free_particle():
    doc = {
        "name": "free",
        "mass": {"matrix": [[1.0, 0.0], [0.0, 2.0]]},
        "initial": {"x": [0.0, 0.0], "v": [0.0, 0.0]},
    }
    return scenario_from_document(doc)


@pytest.mark.parametrize("seed", [11, 17])
def test_sample_states_equal_the_per_state_sampler(all_scenarios, seed):
    for sc in [*all_scenarios, _free_particle()]:
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        t, X, V = sc.sample_states(rng_a, 300)
        ref = _sample_one_by_one(sc, rng_b, 300)
        assert np.array_equal(t, [s.t for s in ref]), sc.name
        assert np.array_equal(X, [s.x for s in ref]), sc.name
        assert np.array_equal(V, [s.v for s in ref]), sc.name
        # the block draw leaves the stream where the per-state draws left it
        assert rng_a.random() == rng_b.random(), sc.name


def _nan_chart_at_negative_azimuth(sc):
    # NaN on part of the domain but at every t alike, so that the chart
    # still passes its time-independence check at the first state
    emb = dataclasses.replace(
        sc.embedding, u=lambda t, y, u=sc.embedding.u: u(t, y) * (np.nan if y[1] < 0.0 else 1.0)
    )
    return dataclasses.replace(sc, embedding=emb)


@pytest.mark.parametrize(
    "spoil, error",
    [
        (lambda sc: dataclasses.replace(sc, sample_y_lo=np.array([0.0, -np.pi])), ChartError),
        (_nan_chart_at_negative_azimuth, ValueError),
    ],
    ids=["outside-chart-domain", "non-finite-state"],
)
def test_sample_states_fail_as_the_per_state_sampler(spherical, spoil, error):
    sc = spoil(spherical)
    with pytest.raises(error) as ref:
        _sample_one_by_one(sc, np.random.default_rng(2), 200)
    with pytest.raises(error, match=re.escape(str(ref.value))):
        sc.sample_states(np.random.default_rng(2), 200)


def test_sample_states_refuse_a_chart_that_turns_nan_in_time(spherical):
    # declared time-independent, but NaN from t = 1 on: the NaN shift of
    # u fails the declaration at the first state (t = 0.78), before any state
    emb = spherical.embedding

    def nan_late(t, y):
        return emb.u(t, y) * (np.nan if t > 1.0 else 1.0)

    sc = dataclasses.replace(spherical, embedding=dataclasses.replace(emb, u=nan_late))
    with pytest.raises(
        ValueError, match=r"^scenario 'spherical-pendulum': chart declared time-independent "
        r".* = nan > 1e-12 at t=0\.78\d*, tau=0\.7$",
    ):
        sc.sample_states(np.random.default_rng(2), 200)


def _fix_signs_by_column(Q):
    Q = Q.copy()
    for j in range(Q.shape[1]):
        i = int(np.argmax(np.abs(Q[:, j])))
        if Q[i, j] < 0:
            Q[:, j] = -Q[:, j]
    return Q


def test_fix_signs_stack_equals_the_column_loop():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k, m = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        Q = rng.normal(size=(k, m, int(rng.integers(1, m))))
        ref = np.array([_fix_signs_by_column(q) for q in Q])
        out = _fix_signs(Q)
        assert np.array_equal(out, ref) and out is not Q
        # a transposed view, as the kernel basis hands it over, comes back C-contiguous
        swapped = _fix_signs(Q.swapaxes(1, 2))
        assert swapped.flags.c_contiguous
        assert np.array_equal(swapped, [_fix_signs_by_column(q.T) for q in Q])
    # a 2-D input, and a column whose |max| is tied: the first entry decides
    Q = np.array([[-1.0, 0.5], [1.0, -2.0], [0.25, 2.0]])
    ref = _fix_signs_by_column(Q)
    assert np.array_equal(_fix_signs(Q), ref)
    assert np.array_equal(ref, [[1.0, -0.5], [-1.0, 2.0], [-0.25, -2.0]])


def _knife_edge_with_A(bad_A):
    """knife-edge whose A(t, x) is ``bad_A`` for t > 1 and the catalog's before."""
    sc = catalog_scenario("knife-edge")
    good = sc.constraints.affine_A

    def A(t, x):
        return bad_A if t > 1.0 else good(t, x)

    cs = ConstraintSet.affine(
        dim=3, a=lambda t, x: np.zeros(1), A=A, jac_t=lambda t, x, v: np.zeros(1),
        jac_x=lambda t, x, v: np.zeros((1, 3)), n=1,
    )
    first_bad = next(t for t in sc.sample_states(np.random.default_rng(4), 50)[0] if t > 1.0)
    return dataclasses.replace(sc, constraints=cs), first_bad


@pytest.mark.parametrize(
    "bad_A, verdict",
    [(np.array([[np.nan, 1.0, 0.0]]), "non-finite"), (np.zeros((1, 3)), "degenerate")],
    ids=["nan", "zero"],
)
def test_sample_states_irregular_A_names_the_earliest_sample(capfd, bad_A, verdict):
    sc, first_bad = _knife_edge_with_A(bad_A)
    with pytest.raises(RegularityError, match=f"phi_v is {verdict} at t={first_bad}") as info:
        sc.sample_states(np.random.default_rng(4), 50)
    assert info.value.t == first_bad
    assert capfd.readouterr().err == ""


def test_sample_states_reproducible(pendulum):
    a = pendulum.sample_states(np.random.default_rng(31), 5)
    b = pendulum.sample_states(np.random.default_rng(31), 5)
    assert all(np.array_equal(ca, cb) for ca, cb in zip(a, b))


def test_point_masses_accepted(tmp_path):
    doc = {
        "name": "free-triple",
        "mass": {"point_masses": [1.0, 2.0, 0.5]},
        "initial": {"t": 0.0, "x": [0.0] * 9, "v": [0.0] * 9},
    }
    sc = scenario_from_document(doc)
    assert sc.dim == 9
    assert sc.constraints is None
    p = tmp_path / "free.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert parse_scenario(p).dim == 9


def _pendulum_doc(**sections):
    doc = copy.deepcopy(_catalog_documents()["pendulum"])
    for key, patch in sections.items():
        if isinstance(patch, dict):
            doc[key].update(patch)
        else:
            doc[key] = patch
    return doc


def _problems(doc):
    with pytest.raises(ScenarioError) as err:
        scenario_from_document(doc)
    return "\n".join(err.value.problems)


def test_force_axis_out_of_range_is_typed():
    assert "force.axis" in _problems(_pendulum_doc(force={"axis": 5}))


@pytest.mark.parametrize("max_iter", [0, -1, 2.5, True])
def test_projection_max_iter_must_be_a_positive_integer(max_iter):
    doc = _pendulum_doc(integrator={"projection_max_iter": max_iter})
    problem = _problems(doc)
    assert problem == f"integrator.projection_max_iter must be an integer >= 1, got {max_iter!r}"


def test_integral_float_projection_max_iter_is_read_as_an_integer():
    sc = scenario_from_document(_pendulum_doc(integrator={"projection_max_iter": 3.0}))
    assert sc.integrator.projection_max_iter == 3
    assert type(sc.integrator.projection_max_iter) is int


def test_fractional_force_axis_is_refused():
    problem = _problems(_pendulum_doc(force={"axis": 0.5}))
    assert problem == "force.axis must be an integer >= 0, got 0.5"


def test_non_numeric_radius_is_typed():
    assert "constraint.radius" in _problems(_pendulum_doc(constraint={"radius": "a"}))


def test_gravity_axis_beyond_one_dimensional_mass_is_typed():
    msgs = _problems(_pendulum_doc(mass={"matrix": [[1.0]]}))
    # collected together with the other problems of the same document
    assert "force.axis" in msgs and "constraint" in msgs and "embedding" in msgs


def test_non_numeric_initial_y_is_typed():
    assert "initial.y" in _problems(_pendulum_doc(initial={"y": ["a"]}))


@pytest.mark.parametrize(
    "sections, problem",
    [
        ({"integrator": {"dt": "0.001"}}, "integrator.dt is not numeric: '0.001'"),
        ({"integrator": {"dt": True}}, "integrator.dt is not numeric: True"),
        (
            {"integrator": {"projection_max_iter": " 3 "}},
            "integrator.projection_max_iter is not numeric: ' 3 '",
        ),
        (
            {"mass": {"matrix": [["1", "0"], ["0", "1"]]}},
            "mass.matrix is not numeric: [['1', '0'], ['0', '1']]",
        ),
        ({"initial": {"y": [True]}}, "initial.y is not numeric: [True]"),
    ],
    ids=["quoted-dt", "boolean-dt", "quoted-count", "quoted-matrix", "boolean-vector-entry"],
)
def test_quoted_number_or_boolean_is_not_numeric(sections, problem):
    # numpy reads "0.001" and true as numbers; a scenario document may not
    assert problem in _problems(_pendulum_doc(**sections))


def test_unknown_check_name_rejected():
    msgs = _problems(_pendulum_doc(checks=["energyy", "first-integral"]))
    assert "energyy" in msgs and "known" in msgs and "energy" in msgs


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("mass", 5, "mass must be an object, got int"),
        ("checks", 5, "checks must be a list of strings, got 5"),
        ("checks", ["energy", 3], "checks must be a list of strings"),
        ("integrator", [1e-3], "integrator must be an object, got list"),
        ("force", "gravity", "force must be an object, got str"),
        ("constraint", [], "constraint must be an object, got list"),
        ("initial", 0.0, "initial must be an object, got float"),
        ("embedding", True, "embedding must be an object, got bool"),
    ],
)
def test_section_of_the_wrong_kind_is_typed(key, value, problem):
    assert problem in _problems(_pendulum_doc(**{key: value}))


@pytest.mark.parametrize("doc", [[], 3, "pendulum", None])
def test_document_that_is_not_an_object_is_typed(doc):
    with pytest.raises(ScenarioError, match="scenario document must be an object"):
        scenario_from_document(doc)


@pytest.mark.parametrize(
    "mass, problem",
    [
        ({"point_masses": [1e400]}, "mass.point_masses is not finite"),
        ({"point_masses": [10 ** 400]}, "mass.point_masses is not finite"),
        ({"point_masses": [[1.0]]}, "mass.point_masses must be a list of numbers"),
        ({"matrix": [[1.0, 0.0], [0.0, float("nan")]]}, "mass.matrix is not finite"),
        ({"matrix": [[float("inf"), 0.0], [0.0, 1.0]]}, "mass.matrix is not finite"),
    ],
)
def test_non_finite_mass_entry_is_named(mass, problem):
    assert problem in _problems(_pendulum_doc(mass=mass))


def test_check_spd_refuses_a_non_finite_matrix():
    from constrained_dynamics.system import check_spd

    for M in (np.full((2, 2), np.nan), np.array([[1.0, np.inf], [np.inf, 1.0]])):
        verdict = check_spd(M)
        assert not verdict.passed and not verdict.positive_definite


def _json_values():
    from hypothesis import strategies as st

    leaves = (
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6,
    )


def _paths(node, path=()):
    """Every node of a JSON document, as the key path that reaches it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(doc, path, value, drop):
    """``doc`` with the node at ``path`` dropped (a dict key) or replaced."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_mutated_documents_raise_only_scenario_errors():
    # one node of a catalog document replaced by a random JSON value, or one
    # key dropped: the parser either builds a scenario or lists problems
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(sorted(_catalog_documents())),
        pick=st.integers(min_value=0),
        value=_json_values(),
        drop=st.booleans(),
    )
    def parse_mutated(name, pick, value, drop):
        doc = copy.deepcopy(_catalog_documents()[name])
        paths = list(_paths(doc))
        doc = _mutate(doc, paths[pick % len(paths)], value, drop)
        try:
            scenario_from_document(doc)
        except ScenarioError:
            pass

    parse_mutated()


# every analytic derivative of the catalog charts and generators, and of the
# oracles' random polynomial generator, against central differences of the
# map one order below it, at sampled points


def _close(got, want):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "make, lo, hi",
    [
        (lambda: circle_embedding(1.3), -np.pi, np.pi),
        (lambda: sphere_polar_embedding(0.7), 0.3, np.pi - 0.3),
        (lambda: rotating_line_embedding(1.7), 0.5, 2.0),
    ],
    ids=["circle", "sphere-polar", "rotating-line"],
)
def test_catalog_chart_derivatives_match_central_differences(make, lo, hi):
    emb = make()
    # a chart without u_t has no time maps, and the differences below hold
    # its zero time derivatives to u itself
    assert emb.u_yy is not None
    assert emb.u_t is None or None not in (emb.u_tt, emb.u_ty)
    rng = np.random.default_rng(71)
    for _ in range(20):
        t = float(rng.uniform(0.0, 3.0))
        y = rng.uniform(lo, hi, emb.r)
        _close(emb.d_t(t, y), t_diff(lambda s: emb.value(s, y), t))
        _close(emb.d_y(t, y), y_diff(lambda z: emb.value(t, z), y))
        _close(emb.d_tt(t, y), t_diff(lambda s: emb.d_t(s, y), t))
        _close(emb.d_ty(t, y), t_diff(lambda s: emb.d_y(s, y), t))
        _close(emb.d_ty(t, y), y_diff(lambda z: emb.d_t(t, z), y))
        _close(emb.d_yy(t, y), y_diff(lambda z: emb.d_y(t, z), y))


@pytest.mark.parametrize(
    "make, m",
    [
        (lambda: lift_holonomic(sphere_generator(1.0, 2), 2), 2),
        (lambda: lift_holonomic(sphere_generator(1.4, 3), 3), 3),
        (lambda: lift_holonomic(rotating_line_generator(1.7), 2), 2),
        (knife_edge_constraints, 3),
        (lambda: lift_holonomic(
            random_polynomial_generator(np.random.default_rng(74), 3, 2), 3), 3),
    ],
    ids=["sphere-2", "sphere-3", "rotating-line", "knife-edge", "random-polynomial"],
)
def test_catalog_generator_derivatives_match_central_differences(make, m):
    cs = make()
    phi, g = cs.phi, cs.generator
    assert None not in (phi.jac_t, phi.jac_x, phi.jac_v)
    assert g is None or None not in (g.d_tt, g.d_tx, g.d_xx)
    rng = np.random.default_rng(72)
    for _ in range(20):
        t = float(rng.uniform(0.0, 3.0))
        x = rng.uniform(-2.0, 2.0, m)
        v = rng.uniform(-2.0, 2.0, m)
        if g is not None:
            _close(g.grad_t(t, x), t_diff(lambda s: g(s, x), t))
            _close(g.grad_x(t, x), y_diff(lambda z: g(t, z), x))
            _close(g.grad_tt(t, x), t_diff(lambda s: g.grad_t(s, x), t))
            _close(g.grad_tx(t, x), y_diff(lambda z: g.grad_t(t, z), x))
            _close(g.grad_xx(t, x), y_diff(lambda z: g.grad_x(t, z), x))
        # phi's Jacobians: a lift's, built from those derivatives, or the
        # knife edge's own
        _close(phi.d_t(t, x, v), t_diff(lambda s: phi(s, x, v), t))
        _close(phi.d_x(t, x, v), y_diff(lambda z: phi(t, z, v), x))
        _close(phi.d_v(t, x, v), y_diff(lambda z: phi(t, x, z), v))


@pytest.mark.parametrize(
    "base, section, value, message",
    [
        ("spherical-pendulum", "constraint", {"type": "rotating-line"},
         "rotating-line constraint needs m = 2"),
        ("pendulum", "constraint", {"type": "knife-edge"},
         "knife-edge constraint needs m = 3 (x, y, theta)"),
        ("pendulum", "embedding", {"type": "torus"}, "unknown embedding type 'torus'"),
        ("pendulum", "initial", {"y": [0.0, 1.0], "w": [2.0]},
         "initial y has length 2, chart has r=1"),
        ("pendulum", "initial", {"y": [0.0], "w": [2.0, 0.0]},
         "initial w has length 2, chart has r=1"),
    ],
)
def test_malformed_document_refusal_names_its_cause(base, section, value, message):
    doc = dict(_catalog_documents()[base], **{section: value})
    with pytest.raises(ScenarioError) as err:
        scenario_from_document(doc)
    assert message in err.value.problems


def test_sample_states_refuse_a_general_constraint_set(pendulum):
    # a set without affine_a and affine_A gives no way to solve phi = 0 for v
    cs = ConstraintSet.general(2, pendulum.constraints.phi)
    sc = dataclasses.replace(pendulum, constraints=cs, embedding=None)
    with pytest.raises(ValueError, match="cannot sample on-manifold states for a general"):
        sc.sample_states(np.random.default_rng(0), 3)
