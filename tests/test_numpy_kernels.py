"""The engine's numpy Cholesky solve and Hermite resampler against the scipy
routines they stand in for, a guard that the engine never loads scipy nor a
process pool, a guard that it factors or solves matrices only where README's
regularity table says, a guard that it calls no np.dot, and the multiplier
and second-kind kernels against their written-out formulas.

scipy is a test dependency only, so it is imported inside the tests.
"""

import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from constrained_dynamics import (
    ConstraintSet,
    ForceField,
    MassMatrix,
    MechanicalSystem,
    Realization,
    RegularityError,
    SmoothMap,
    catalog_scenario,
    covariance_residual,
    lagrangian_derivative,
    pullback_lagrangian,
)
from constrained_dynamics.generalized import (
    _chart_jet,
    _force_row,
    _hermite,
    _lagrange_terms,
    _metric_solve,
    _pushforward_jet,
    second_kind_acceleration,
)
from constrained_dynamics.integrate import _accel_raw
from constrained_dynamics.reactions import (
    _chain_rule,
    _chol_solve,
    _multiplier_solver,
    _stacked_solve,
)
from constrained_dynamics.scenarios import uniform_rows
from oracles import lagrange_terms, random_polynomial_chart

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hermite_matches_cubic_hermite_spline_bit_for_bit(r):
    from scipy.interpolate import CubicHermiteSpline

    rng = np.random.default_rng(r)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        tk = np.cumsum(rng.uniform(1e-3, 0.3, n))
        Y = rng.normal(size=(n, r))
        W = rng.normal(size=(n, r))
        between = np.sort(rng.uniform(tk[0], tk[-1], 40))
        ts = np.concatenate([tk, between, [tk[0] - 1e-12, tk[-1] + 1e-12]])
        spline = CubicHermiteSpline(tk, Y, W, axis=0)
        value, slope = _hermite(tk, Y, W, ts)
        np.testing.assert_array_equal(value, spline(ts))
        np.testing.assert_array_equal(slope, spline.derivative()(ts))


@pytest.mark.parametrize("tk", [np.array([0.0]), np.array([0.0, 0.5, 0.5, 1.0])])
def test_hermite_rejects_short_or_unsorted_grid(tk):
    Y = np.zeros((tk.size, 2))
    with pytest.raises(ValueError):
        _hermite(tk, Y, Y, np.array([0.25]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chol_solve_matches_scipy_cho_solve(n):
    import scipy.linalg

    rng = np.random.default_rng(n)
    for _ in range(50):
        A = rng.normal(size=(n, n + 2))
        gram = A @ A.T
        rhs = rng.normal(size=n)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)
        np.testing.assert_allclose(_chol_solve(gram, rhs, 0.0), ref, rtol=1e-12)


def test_chol_solve_rejects_indefinite_gram():
    gram = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(RegularityError):
        _chol_solve(gram, np.ones(2), 0.5)


def _loaded_by_cli_import(*packages: str) -> str:
    """The printed sorted list of modules of ``packages`` that importing
    ``constrained_dynamics.cli`` in a fresh interpreter loads."""
    code = (
        "import sys, constrained_dynamics.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_process_pool():
    # the first kind's child is a raw os.fork: a pool's import would add to
    # every op's set-up time
    assert _loaded_by_cli_import("multiprocessing", "concurrent") == "[]"


# the functions of README's "Regularity" table that factor or solve
LINALG_SITES = {
    "regular_svd", "_chol_solve", "_realization_solve", "_regular_metric", "check_spd",
}
GUARDED = {"svd", "eigh", "cholesky", "solve", "matrix_rank", "lstsq"}


def _linalg_calls(tree):
    """(enclosing function, numpy.linalg name) for every guarded call or import."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found.extend((where, a.name) for a in node.names if a.name in GUARDED)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in GUARDED
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg"
        ):
            found.append((where, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_linalg_only_at_the_regularity_sites():
    calls = []
    for path in sorted((SRC / "constrained_dynamics").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [(path.name, fn, name) for fn, name in _linalg_calls(tree)]
    assert {fn for _, fn, _ in calls} <= LINALG_SITES, calls
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    regularity = readme.split("## Regularity", 1)[1].split("\n## ", 1)[0]
    assert all(f"`{fn}`" in regularity for fn in LINALG_SITES)


def _module_dot_uses(tree):
    """Line numbers of every ``np.dot``/``numpy.dot`` call and ``from numpy import dot``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend(node.lineno for a in node.names if a.name == "dot")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dot"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            found.append(node.lineno)
    return found


def test_tiny_products_skip_the_array_function_dispatcher():
    # numpy's module functions go through the __array_function__ dispatcher
    # (NEP 18) before they reach C; ndarray.dot calls the same matrix product
    # without it, which on the 1xm and mxm operands of the per-step kernels
    # is a measurable share of their cost
    uses = []
    for path in sorted((SRC / "constrained_dynamics").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses += [(path.name, line) for line in _module_dot_uses(tree)]
    assert uses == []
    # the guard sees each spelling
    probe = "import numpy as np\nfrom numpy import dot\nnp.dot(a, b)\nnumpy.dot(a, b)\na.dot(b)\n"
    assert sorted(_module_dot_uses(ast.parse(probe))) == [2, 3, 4]


# the functions whose products are all ndarray.dot, per module: the per-step
# and per-sample kernels and the catalog maps they call.  u_yy w keeps `@`
# (in generalized.py), as .dot changes the bits of its 3-D product.  The
# sampled checks solve their states as stacks, whose `@` the bit-identity
# test of the stacked solve holds to the per-state one.
DOT_ONLY = {
    "integrate.py": {"_accel_raw", "project_to_manifold", "_sample"},
    "reactions.py": {"_multiplier_solver"},
    "scenarios.py": {"_make_force", "sphere_generator"},
}


def _matmul_sites(tree, names):
    """(function, line) of every `@` or `@=` inside the functions ``names``."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in names:
            found += [
                (fn.name, node.lineno)
                for node in ast.walk(fn)
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            ]
    return found


def test_per_state_kernels_write_no_matmul_operator():
    sites = []
    for module, names in DOT_ONLY.items():
        tree = ast.parse((SRC / "constrained_dynamics" / module).read_text(encoding="utf-8"))
        assert names <= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        sites += [(module, *site) for site in _matmul_sites(tree, names)]
    assert sites == []
    # the guard sees both spellings, in nested lambdas too
    probe = "def f(a, b):\n    g = lambda: a @ b\n    a @= b\n    return a.dot(b)\n"
    assert sorted(_matmul_sites(ast.parse(probe), {"f"})) == [("f", 2), ("f", 3)]


# ---------------------------------------------------------------------------
# the multiplier kernels (ndarray.dot, declared scleronomy) against the closed
# form written out with `@` and every time term kept

CATALOG = ["pendulum", "spherical-pendulum", "rotating-wire-bead", "knife-edge"]


def _written_out_jet(cs, t, x, v):
    if cs.is_holonomic:
        g = cs.generator
        gtx = g.grad_tx(t, x)
        return g.grad_x(t, x), (g.grad_tt(t, x) + gtx @ v) + (gtx + v @ g.grad_xx(t, x)) @ v
    phi = cs.phi
    return phi.d_v(t, x, v), phi.d_t(t, x, v) + phi.d_x(t, x, v) @ v


def _sampled(name, count=200):
    sc = catalog_scenario(name)
    t, X, V = sc.sample_states(np.random.default_rng(29), count)
    return sc, zip(t.tolist(), X, V)


@pytest.mark.parametrize("name", CATALOG)
def test_jet_and_multiplier_solve_match_the_written_out_formulas(name):
    sc, states = _sampled(name)
    sys, cs = sc.system, sc.constraints
    Ginv, solve = sys.mass.inverse, _multiplier_solver(sys, cs)
    for t, x, v in states:
        B, drift = _written_out_jet(cs, t, x, v)
        jet = cs.jet(t, x, v)
        assert np.array_equal(jet[0], B) and np.array_equal(jet[1], drift)
        f = sys.force(t, x, v)
        W = B @ Ginv
        M = W @ B.T
        lam = -_chol_solve(M, drift + W @ f, t)
        got = solve(t, x, v)
        for a, b in zip(got, (f, B, B, lam, M, drift)):
            assert np.array_equal(a, b)
        # a caller's jet and force are taken as they are
        given = solve(t, x, v, jet=(B, drift), f=f)
        assert given[0] is f and given[1] is B and given[5] is drift
        for a, b in zip(given, got):
            assert np.array_equal(a, b)
        assert np.array_equal(_accel_raw(solve, Ginv, t, x, v), Ginv @ (f + lam @ B))


@st.composite
def _multiplier_problems(draw, m, n, realized):
    """(sys, cs, real, t, x, v, f, B, drift, S) away from the catalog: a
    non-diagonal m x m SPD G, n constraints and random phi_v, phi_t, phi_x
    and f; S is phi_v (real None), or a realization's when ``realized``."""
    # every entry from one list of floats in [-1, 1], taken in order
    size = 1 + m * (m + 3) + n * (2 * m + 1) + (n * m if realized else 0)
    entries = iter(draw(st.lists(
        st.floats(-1.0, 1.0, allow_subnormal=False), min_size=size, max_size=size
    )))

    def mat(*shape):
        return np.array([next(entries) for _ in range(math.prod(shape))]).reshape(shape)

    A = mat(m, m)
    G = A @ A.T + np.eye(m) + np.full((m, m), 0.25)  # the last term is PSD, not diagonal
    B = np.eye(n, m) + 0.3 * mat(n, m)  # full rank: the n x n block is regular
    phi_t, phi_x, f = mat(n), mat(n, m), 3.0 * mat(m)
    t, x, v = next(entries), mat(m), mat(m)
    phi = SmoothMap(
        dim=n, value=lambda t, x, v: np.zeros(n), jac_t=lambda t, x, v: phi_t,
        jac_x=lambda t, x, v: phi_x, jac_v=lambda t, x, v: B,
    )
    cs = ConstraintSet.general(m, phi)
    sys = MechanicalSystem(MassMatrix(G), ForceField(m, lambda t, x, v: f))
    S, real = B, None
    if realized:
        S = B + 0.5 * mat(n, m)
        assume(np.linalg.cond(B @ sys.mass.inverse @ S.T) < 1e6)
        real = Realization(lambda t, x, v: S)
    return sys, cs, real, t, x, v, f, B, phi_t + phi_x @ v, S


@pytest.mark.parametrize("realized", [False, True], ids=["ideal", "realization"])
@pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_multiplier_solver_matches_the_closed_form_on_random_systems(m, n, realized, data):
    # Lambda^T = -(phi_v G^-1 S^T)^-1 (phi_t + phi_x v + phi_v G^-1 f^T),
    # written out with `@`, bit for bit
    sys, cs, real, t, x, v, f, B, drift, S = data.draw(_multiplier_problems(m, n, realized))
    Ginv = sys.mass.inverse
    W = B @ Ginv
    rhs = drift + W @ f
    M = W @ S.T
    if real is not None:
        lam = -np.linalg.solve(M, rhs)
    elif cs.n == 1:
        lam = -(rhs / M[0, 0])
    else:
        c = np.linalg.cholesky(M)
        lam = -np.linalg.solve(c.T, np.linalg.solve(c, rhs))
    solve = _multiplier_solver(sys, cs, real)
    # through its own evaluation of the force and the jet, and given them
    for got in (solve(t, x, v), solve(t, x, v, jet=(B, drift), f=f)):
        for a, b in zip(got, (f, B, S, lam, M, drift)):
            assert a.tobytes() == b.tobytes()
    assert _accel_raw(solve, Ginv, t, x, v).tobytes() == (Ginv @ (f + lam @ S)).tobytes()


@st.composite
def _stacked_problems(draw):
    """(sys, t, B, drift, F, chain) at k = 1-8 states away from the catalog: a
    non-diagonal m x m SPD G (m = 2-4), n = 1-2 constraints, and stacks of
    phi_v, drift and force; ``chain`` holds (U_z, U_t, phi_t, U_x, phi_x)
    stacks for the chain rule.  Entries are uniform in [-1, 1], or with
    chance 0.1 each +0.0, -0.0 and +-1e-200, whose products underflow.  The
    Gram matrix of one state may be zero or NaN."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, min(2, m - 1)))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def mat(*shape):
        special = rng.choice([0.0, -0.0, 1e-200, -1e-200], shape)
        return np.where(rng.random(shape) < 0.4, special, rng.uniform(-1.0, 1.0, shape))

    A = rng.uniform(-1.0, 1.0, (m, m))
    G = A @ A.T + np.eye(m) + np.full((m, m), 0.25)  # the last term is PSD, not diagonal
    B = mat(k, n, m)
    B[:, range(n), range(n)] += 2.0  # full rank, with the special entries off the diagonal
    drift, F = mat(k, n), 3.0 * mat(k, m)
    chain = mat(k, n, n), mat(k, n), mat(k, n), mat(k, n, m), mat(k, n, m)
    fault = draw(st.sampled_from([None, 0.0, np.nan]))
    if fault is not None:
        B[draw(st.integers(0, k - 1))] = fault
    t = 0.5 * np.arange(k) + draw(st.floats(-1.0, 1.0))
    sys = MechanicalSystem(MassMatrix(G), ForceField(m, lambda t, x, v: np.zeros(m)))
    return sys, t, B, drift, F, chain


@settings(max_examples=150, derandomize=True, deadline=None)
@given(problem=_stacked_problems())
def test_stacked_solve_has_the_bits_of_the_per_state_solve(problem):
    # the sampled checks' stacked solve and chain rule against the solve of
    # _multiplier_solver, given each state's jet and force, and the chain
    # rule of one state: the same bits, and the same first failure
    sys, t, B, drift, F, (U_z, U_t, phi_t, U_x, phi_x) = problem
    k, n, m = B.shape
    phi = SmoothMap(
        dim=n, value=lambda t, x, v: np.zeros(n), jac_t=lambda t, x, v: np.zeros(n),
        jac_x=lambda t, x, v: np.zeros((n, m)), jac_v=lambda t, x, v: np.zeros((n, m)),
    )
    solve = _multiplier_solver(sys, ConstraintSet.general(m, phi))
    x = np.zeros(m)

    def per_state():
        for i, ti in enumerate(t.tolist()):
            lam = solve(ti, x, x, jet=(B[i], drift[i]), f=F[i])[3]
            yield lam, lam.dot(B[i])

    try:
        want = list(per_state())
    except RegularityError as exc:
        with pytest.raises(RegularityError) as err:
            _stacked_solve(sys.mass.inverse, B, drift, F, t)
        assert (str(err.value), err.value.t) == (str(exc), exc.t)
    else:
        lam, N = _stacked_solve(sys.mass.inverse, B, drift, F, t)
        assert [row.tobytes() for row in lam] == [w[0].tobytes() for w in want]
        # a product Lambda_j phi_v[j, l] that underflows is -0.0 through the
        # one-row ndarray.dot and +0.0 through `@`; + 0.0 maps -0.0 to +0.0
        # and keeps every other bit
        assert [(row + 0.0).tobytes() for row in N] == [(w[1] + 0.0).tobytes() for w in want]
    for U_s, phi_s in ((U_t, phi_t), (U_x, phi_x)):
        got = _chain_rule(U_s, U_z, phi_s)
        assert [row.tobytes() for row in got] == [
            _chain_rule(*one).tobytes() for one in zip(U_s, U_z, phi_s)
        ]


@pytest.mark.parametrize("name", ["pendulum", "spherical-pendulum", "knife-edge"])
def test_scleronomic_jet_equals_the_generic_jet(name):
    sc, states = _sampled(name)
    cs = sc.constraints
    assert cs.scleronomic
    generic = dataclasses.replace(cs, scleronomic=False)
    for t, x, v in states:
        for a, b in zip(cs.jet(t, x, v), generic.jet(t, x, v)):
            assert np.array_equal(a, b)


def test_scleronomic_holonomic_jet_makes_no_time_derivative_call():
    sc = catalog_scenario("spherical-pendulum")
    cs = sc.constraints

    def refuse(t, x):
        raise AssertionError("time derivative evaluated")

    g = dataclasses.replace(cs.generator, d_t=refuse, d_tt=refuse, d_tx=refuse)
    lean = dataclasses.replace(cs, generator=g)
    s = sc.initial
    for a, b in zip(lean.jet(s.t, s.x, s.v), cs.jet(s.t, s.x, s.v)):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the second-kind kernels (ndarray.dot, charts without u_t) against the formulas
# written out with `@` and every time term kept

CHARTS = ["pendulum", "spherical-pendulum", "rotating-wire-bead"]


def _chart_jets(sc, count=200):
    """``count`` sampled (t, y, w, a) inside the scenario's chart."""
    r = sc.embedding.r
    t, Y, W, A = uniform_rows(
        np.random.default_rng(31), count,
        (0.0, 3.0, 1), (sc.sample_y_lo, sc.sample_y_hi, r), (-2.0, 2.0, r), (-2.0, 2.0, r),
    )
    return zip(t[:, 0].tolist(), Y, W, A)


def _written_out_terms(G, emb, t, y, w):
    Ut, Uy = emb.d_t(t, y), emb.d_y(t, y)
    Utt, Uty, Uyy = emb.d_tt(t, y), emb.d_ty(t, y), emb.d_yy(t, y)
    GUy, GUt = G @ Uy, G @ Ut
    D = Uty + Uyy @ w
    GUyw = GUy @ w
    M2dot_w = D.T @ GUyw + GUy.T @ (D @ w)
    bdot = (Utt + Uty @ w) @ GUy + GUt @ D
    return Uy.T @ GUy, M2dot_w, bdot, D.T @ (GUt + GUyw)


@pytest.mark.parametrize("name", CHARTS)
def test_second_kind_kernels_match_the_written_out_formulas(name):
    sc = catalog_scenario(name)
    emb, mass, f = sc.embedding, sc.system.mass, sc.system.force
    lag = pullback_lagrangian(emb, mass)
    for t, y, w, _ in _chart_jets(sc):
        M2, M2dot_w, bdot, L_y = _written_out_terms(mass.G, emb, t, y, w)
        jet = _chart_jet(emb, t, y)
        got = _lagrange_terms(mass.G, jet, w)
        assert np.array_equal(got[0], M2) and np.array_equal(got[1], M2dot_w)
        assert np.array_equal(got[3], L_y)
        if emb.u_t is None:  # left out, as it is zero
            assert got[2] is None and not bdot.any()
        else:
            assert np.array_equal(got[2], bdot)
        u, Uy = emb.value(t, y), emb.d_y(t, y)
        Q = f(t, u, emb.d_t(t, y) + Uy @ w) @ Uy
        assert np.array_equal(_force_row(f, t, *jet[:3], w), Q)
        ydd, got_Q = second_kind_acceleration(lag, f, t, y, w)
        assert np.array_equal(ydd, _metric_solve(M2, Q - M2dot_w - bdot + L_y, t))
        assert np.array_equal(got_Q, Q)


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bit patterns, so that -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 3),
    extra=st.integers(0, 2),
    timed=st.booleans(),
)
def test_lagrange_terms_have_the_bits_of_the_written_out_terms(seed, r, extra, timed):
    # random polynomial charts with r = 1-3 and m = r to r + 2, a random SPD
    # mass matrix, and the time slots of the jet dropped for a chart without u_t
    rng = np.random.default_rng(seed)
    m = r + extra
    emb = random_polynomial_chart(rng, m, r)
    A = rng.uniform(-1, 1, (m, m))
    G = A @ A.T + m * np.eye(m)
    t = rng.uniform(-1, 1)
    y, w = rng.uniform(-0.5, 0.5, r), rng.uniform(-2, 2, r)
    jet = _chart_jet(emb, t, y)
    if not timed:
        jet = (jet[0], None, jet[2], None, None, jet[5])
    got, want = _lagrange_terms(G, jet, w), lagrange_terms(G, jet, w)
    assert (got[2] is None) == (want[2] is None) == (not timed)
    assert all(g is e or _same_bits(g, e) for g, e in zip(got, want, strict=True))


def _with_zero_time_maps(emb):
    """The chart with explicit zero u_t, u_tt and u_ty maps."""
    m, r = emb.dim, emb.r
    return dataclasses.replace(
        emb,
        u_t=lambda t, y: np.zeros(m),
        u_tt=lambda t, y: np.zeros(m),
        u_ty=lambda t, y: np.zeros((m, r)),
    )


@pytest.mark.parametrize("name", ["pendulum", "spherical-pendulum"])
def test_time_independent_chart_equals_its_zero_time_map_form(name):
    sc = catalog_scenario(name)
    mass, f = sc.system.mass, sc.system.force
    lean = sc.embedding
    assert lean.u_t is None
    full = _with_zero_time_maps(lean)

    def outputs(emb, t, y, w, a):
        lag = pullback_lagrangian(emb, mass)
        return (
            *second_kind_acceleration(lag, f, t, y, w),
            covariance_residual(emb, mass, f, t, y, w, a),
            lagrangian_derivative(lag, t, y, w, a),
            *_pushforward_jet(_chart_jet(emb, t, y), w, a),
        )

    for jet in _chart_jets(sc):
        for a, b in zip(outputs(lean, *jet), outputs(full, *jet), strict=True):
            # ==, so that an exact zero of either sign agrees
            assert np.array_equal(a, b)
