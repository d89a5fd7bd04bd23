import hashlib
import math

import numpy as np
import pytest

from delaysde.measure import make_measure
from delaysde.model import (
    DiniModulus,
    OperatorA,
    diffusion_at,
    dini_check,
    make_functional,
    make_model,
    semigroup_factors,
    validate_assumptions,
)


def test_operator_requires_positive_rates():
    with pytest.raises(ValueError):
        OperatorA([1.0, 0.0])
    with pytest.raises(ValueError):
        OperatorA([-1.0])


def test_operator_apply():
    A = OperatorA([1.0, 2.0])
    np.testing.assert_allclose(A.apply(np.array([3.0, 3.0])), [-3.0, -6.0])
    assert A.d == 2


def test_operator_keeps_rates_on_their_axes():
    """Unequal, decreasing rates stay in the order given: rate i acts on axis i."""
    rates = [2.0, 1.0]
    A = OperatorA(rates)
    np.testing.assert_array_equal(A.eigenvalues, rates)
    np.testing.assert_array_equal(A.apply(np.array([1.0, 0.0])), [-2.0, -0.0])
    np.testing.assert_array_equal(A.apply(np.array([[0.0, 3.0]])), [[-0.0, -3.0]])
    E, J = semigroup_factors(A, 0.5)
    np.testing.assert_allclose(E, [math.exp(-1.0), math.exp(-0.5)], rtol=1e-15)
    np.testing.assert_allclose(J, [(1.0 - math.exp(-1.0)) / 2.0, 1.0 - math.exp(-0.5)], rtol=1e-15)


def test_semigroup_factors_values():
    E, J = semigroup_factors(OperatorA([2.0]), 0.5)
    assert abs(E[0] - math.exp(-1.0)) < 1e-15
    assert abs(J[0] - (1.0 - math.exp(-1.0)) / 2.0) < 1e-15


def test_semigroup_factors_zero_rate_limit():
    E, J = semigroup_factors(np.array([0.0]), 0.25)
    assert E[0] == 1.0
    assert J[0] == 0.25


def test_semigroup_factors_domain():
    with pytest.raises(ValueError):
        semigroup_factors(np.array([-1.0]), 0.1)
    with pytest.raises(ValueError):
        semigroup_factors(np.array([1.0]), 0.0)


def test_dini_power_half_passes():
    rep = dini_check(DiniModulus.power(0.5))
    assert rep.monotone and rep.square_concave and rep.dini_convergent
    assert rep.passed


def test_dini_linear_fails_square_concavity():
    """phi(s) = k s has convex square, so it sits outside the Dini class."""
    rep = dini_check(DiniModulus.linear(2.0))
    assert rep.monotone
    assert not rep.square_concave
    assert not rep.passed


def test_dini_log_integral_diverges():
    # phi(s) = c / log(e + 1/s) gives a harmonic dyadic tail
    rep = dini_check(DiniModulus.log(1.0))
    assert rep.monotone
    assert not rep.dini_convergent
    assert not rep.passed


def test_dini_check_needs_dyadic_grid():
    with pytest.raises(ValueError):
        dini_check(DiniModulus.power(0.5), s_grid=np.array([0.5, 0.25]))


def test_catalog_reference_coefficients():
    nu = make_measure("exponential", 1.0, 0.25, lam=1.0)
    m = make_model("reference", measure=nu, beta=0.5)
    x = np.array([[4.0], [0.25], [-0.25]])
    np.testing.assert_allclose(m.b(0.0, x), [[1.0], [0.5], [0.5]])
    seg = np.ones((2, nu.n_cells + 1, 1))
    np.testing.assert_allclose(m.B(0.0, nu.average(seg)), 0.5 * nu.total_mass() * np.ones((2, 1)))
    Q = m.Q(0.0, x)
    assert Q.shape == (3, 1, 1)
    np.testing.assert_allclose(Q, 1.0)
    assert m.b_sup == 1.0
    assert abs(m.B_lip_sq - 0.25 * nu.total_mass()) < 1e-14


def test_catalog_linear_delay_has_no_instant_drift():
    nu = make_measure("uniform", 1.0, 0.25)
    m = make_model("linear_delay", measure=nu)
    np.testing.assert_array_equal(m.b(0.0, np.ones((3, 1))), 0.0)
    assert m.bihari is not None
    assert "diverges" in m.bihari.note


def test_catalog_needs_measure_for_delay_models():
    with pytest.raises(ValueError):
        make_model("reference")
    with pytest.raises(ValueError):
        make_model("linear_delay")


@pytest.mark.parametrize("name, params", [
    ("ou", {"d": 0}),
    ("ou", {"lam": math.nan}),
    ("linear_delay", {"sigma": math.nan}),
    ("reference", {"sigma": math.inf}),
    ("reference", {"beta": -math.inf}),
], ids=["d-zero", "lam-nan", "sigma-nan", "sigma-inf", "beta-inf"])
def test_catalog_rejects_unusable_parameters(name, params):
    nu = make_measure("uniform", 0.5, 0.0625)
    with pytest.raises(ValueError):
        make_model(name, measure=nu, **params)


def test_catalog_zero_and_unknown():
    m = make_model("zero", lam=2.0, d=2)
    np.testing.assert_array_equal(m.Q(0.0, np.ones((4, 2))), 0.0)
    with pytest.raises(ValueError):
        make_model("heston")


def test_catalog_tabulated_drift():
    nu = make_measure("uniform", 1.0, 0.25)
    m = make_model("tabulated", measure=nu, xs=[-1.0, 0.0, 1.0], ys=[-0.5, 0.0, 0.5])
    np.testing.assert_allclose(m.b(0.0, np.array([[0.5]])), [[0.25]])
    # saturates outside the table
    np.testing.assert_allclose(m.b(0.0, np.array([[10.0]])), [[0.5]])
    assert m.phi.params["slope"] == 0.5


def test_catalog_tabulated_needs_tables():
    nu = make_measure("uniform", 1.0, 0.25)
    with pytest.raises(ValueError, match="xs and ys"):
        make_model("tabulated", measure=nu)
    with pytest.raises(ValueError, match="xs and ys"):
        make_model("tabulated", measure=nu, xs=[0.0, 1.0])


@pytest.mark.parametrize("name", ["reference", "linear_delay", "tabulated"])
def test_catalog_zero_diffusion(name):
    """sigma = 0 is a degenerate but valid constant diffusion, as in ou: QQ*
    has no bounded inverse, so its declared bound is inf."""
    nu = make_measure("uniform", 1.0, 0.25)
    tables = {"xs": [0.0, 1.0], "ys": [0.0, 1.0]} if name == "tabulated" else {}
    m = make_model(name, measure=nu, sigma=0.0, **tables)
    assert m.Q_bounds == {"Q": 0.0, "dQ": 0.0, "d2Q": 0.0, "QQt_inv": math.inf}
    np.testing.assert_array_equal(m.Q(0.0, np.ones((3, 1))), 0.0)


def test_validate_assumptions_reference_passes():
    nu = make_measure("exponential", 1.0, 0.25, lam=1.0)
    m = make_model("reference", measure=nu)
    rep = validate_assumptions(m, nu, 1.0, n_samples=1000, seed=0)
    assert rep.a2.passed
    assert rep.a3.passed, rep.a3.witness
    assert rep.a4.passed, rep.a4.witness
    assert rep.passed


def test_validate_assumptions_quadratic_fails_dini_bound():
    nu = make_measure("uniform", 1.0, 0.25)
    m = make_model("quadratic")
    rep = validate_assumptions(m, nu, 1.0, n_samples=1000, seed=0)
    assert not rep.a3.passed
    assert rep.a3.worst > 1.0
    assert not rep.passed


def test_validate_assumptions_sample_floor():
    nu = make_measure("uniform", 1.0, 0.25)
    with pytest.raises(ValueError):
        validate_assumptions(make_model("ou"), nu, 1.0, n_samples=10)


def test_functionals_shapes_and_positivity():
    nu = make_measure("uniform", 1.0, 0.25)
    seg = np.random.default_rng(0).normal(size=(6, nu.n_cells + 1, 1))
    for name in ("tanh0", "tanh0_pos", "boxind_pos", "expnorm_pos", "coord0", "coord0_sq", "const"):
        f, pos = make_functional(name, nu)
        v = f(seg)
        assert v.shape == (6,)
        if pos:
            assert np.all(v > 0)
    f, _ = make_functional("coord0")
    np.testing.assert_array_equal(f(seg), seg[:, -1, 0])
    with pytest.raises(ValueError):
        make_functional("parity")
    with pytest.raises(ValueError):
        make_functional("expnorm_pos")


def test_functional_tanh0_bounded():
    f, _ = make_functional("tanh0")
    seg = 100.0 * np.ones((2, 5, 1))
    assert np.all(np.abs(f(seg)) <= 1.0)


_CATALOG = ["zero", "ou", "reference", "linear_delay", "cubic", "quadratic"]


@pytest.mark.parametrize("name, d", [(n, d) for n in _CATALOG for d in (1, 2)] + [("tabulated", 1)])
def test_declared_constant_diffusion_is_constant(name, d):
    """A catalog model that declares dQ = 0 returns one Q at every state and
    time, so diffusion_at may read it once, at the origin, in d = 1; in
    d = 2 it reads the per-row array."""
    nu = make_measure("exponential", 1.0, 0.125, lam=1.0)
    tables = {"xs": [0.0, 1.0], "ys": [0.0, 1.0]} if name == "tabulated" else {}
    sigma = {"sigma": 0.7} if "sigma" in make_model(name, measure=nu, **tables).params else {}
    m = make_model(name, measure=nu, d=d, **sigma, **tables)
    if m.Q_bounds.get("dQ") != 0:
        pytest.skip(f"{name} does not declare a constant Q")
    rng = np.random.default_rng(8)
    x = rng.uniform(-50.0, 50.0, (200, d))
    at_origin = m.Q(0.0, np.zeros((1, d)))[0]
    for t in rng.uniform(0.0, 10.0, 5):
        np.testing.assert_array_equal(m.Q(t, x), np.broadcast_to(at_origin, (200, d, d)))
    want = at_origin[0] if d == 1 else m.Q(0.3, x)
    np.testing.assert_array_equal(diffusion_at(m, 0.3, x), want)


_PROBE_T = 0.3
_PROBE_GRID = np.array([0.0, 0.25, 1.0, 2.0, 10.0])
# SHA-256 prefixes of every field of each catalog entry, as float.hex
# strings (see _catalog_fields), pinned before the entries shared one
# constructor; "set" passes each of _SET that the entry reads.  The "set"
# digests of zero, ou, cubic and quadratic were pinned again when the catalog
# began to refuse a parameter its entry does not read: they hash the old
# fields with those parameters dropped from the params record
_SET = {"lam": 1.5, "beta": 0.25, "sigma": 0.75}
_CATALOG_DIGESTS = {
    ('zero', 1, 'default'): '8fe9ecbfd51e27da',
    ('zero', 1, 'set'): '908ed9b649d9735f',
    ('zero', 2, 'default'): '772d6f1e4f6f979a',
    ('zero', 2, 'set'): '77c8f0c622b34e0b',
    ('ou', 1, 'default'): '17d7948942a77785',
    ('ou', 1, 'set'): '5f4d73bc5fb60d20',
    ('ou', 2, 'default'): '07515ddab7c34e78',
    ('ou', 2, 'set'): '07ec29d74e0bf125',
    ('reference', 1, 'default'): '7f3587aabc202289',
    ('reference', 1, 'set'): '3019dded71b9f7f2',
    ('reference', 2, 'default'): '890b4ab0ad4d760b',
    ('reference', 2, 'set'): '4204d8692936440e',
    ('linear_delay', 1, 'default'): 'bb1613e3e7d0ffc6',
    ('linear_delay', 1, 'set'): 'ee288dcf55f377bb',
    ('linear_delay', 2, 'default'): 'cb38da9d6959aeb4',
    ('linear_delay', 2, 'set'): 'fbe1eb8166d314cd',
    ('cubic', 1, 'default'): '392f1ad9489a0f73',
    ('cubic', 1, 'set'): 'decc88319b8f1310',
    ('cubic', 2, 'default'): 'bd000a44fdd3db59',
    ('cubic', 2, 'set'): '7825dec8bdfffba4',
    ('quadratic', 1, 'default'): 'b439ab0a1ad4e300',
    ('quadratic', 1, 'set'): 'a7eb75a39c1ebf19',
    ('quadratic', 2, 'default'): 'b961bf94e150ef0a',
    ('quadratic', 2, 'set'): 'fe06f804b26e5b90',
    ('tabulated', 1, 'default'): '937963a3da06776d',
    ('tabulated', 1, 'set'): '53d2398e6e5933ae',
}


def _hex(a):
    return [float(v).hex() for v in np.ravel(np.asarray(a, dtype=float))]


def _catalog_fields(name, d, variant):
    """Every field of the entry: A's rates, Q_bounds, params, phi, b_sup and
    B_lip_sq, b, B and Q on fixed probe rows, and the BihariData on a grid."""
    nu = make_measure("exponential", 0.5, 2.0**-4, lam=1.0)
    tables = {"xs": [-1.0, 0.0, 2.0], "ys": [0.5, -1.0, 3.0]} if name == "tabulated" else {}
    reads = make_model(name, measure=nu, **tables).params
    kw = {k: v for k, v in _SET.items() if k in reads} if variant == "set" else {}
    m = make_model(name, measure=nu, d=d, **kw, **tables)
    x = np.linspace(-3.0, 3.0, 7)[:, None] * (1.0 + 0.5 * np.arange(d)) + 0.1 * np.arange(d)
    phi = m.phi
    return {
        "head": [m.name, m.d, m.dbar],
        "A": _hex(m.A.eigenvalues),
        "Q_bounds": [(k, _hex(v)) for k, v in sorted(m.Q_bounds.items())],
        "params": [(k, _hex(v)) for k, v in m.params.items()],
        "phi": None if phi is None else [
            phi.tag, [(k, _hex(v)) for k, v in sorted(phi.params.items())],
            _hex(phi(_PROBE_GRID[1:])),
        ],
        "b_sup": _hex(m.b_sup),
        "B_lip_sq": _hex(m.B_lip_sq),
        "b": _hex(m.b(_PROBE_T, x)),
        "B": _hex(m.B(_PROBE_T, x)),
        "Q": _hex(m.Q(_PROBE_T, x)),
        "bihari": None if m.bihari is None else [
            m.bihari.note, _hex(m.bihari.Phi(_PROBE_T, _PROBE_GRID)),
            _hex(m.bihari.h(_PROBE_T, _PROBE_GRID)),
        ],
    }


@pytest.mark.parametrize("case", list(_CATALOG_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_catalog_keeps_every_field(case):
    """Each entry at d = 1 and d = 2 (tabulated: d = 1 only), at its defaults
    and with every parameter set, keeps the bits of all its fields."""
    fields = _catalog_fields(*case)
    assert hashlib.sha256(repr(fields).encode()).hexdigest()[:16] == _CATALOG_DIGESTS[case], fields


@pytest.mark.parametrize("name, key", [
    ("zero", "sigma"), ("zero", "beta"), ("ou", "beta"), ("cubic", "sigma"), ("quadratic", "beta"),
])
def test_catalog_refuses_a_parameter_its_entry_does_not_read(name, key):
    """A parameter that would act on nothing is refused, not kept in the
    params record as if it had acted."""
    with pytest.raises(ValueError, match=f"model '{name}' does not read {key}"):
        make_model(name, **{key: 0.5})
