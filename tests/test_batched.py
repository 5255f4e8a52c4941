"""Stacked (..., 4, 4) inputs: a stack gives bitwise what its entries give one by one."""

import numpy as np
import pytest

from thermomin import (
    BlochRep,
    ModelParams,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    WeakStrength,
    analytic_states,
    bloch_compose,
    bloch_decompose,
    canonicalize_correlations,
    concurrence,
    concurrence_xstate,
    evaluate_measures,
    hs_min,
    partial_trace,
    trace_min,
    validate_state,
)
from thermomin.measures import MARGINAL_EPS, NotXState

from _helpers import bell_diagonal_state, ginibre_state, random_qubit_unitary


def _local_rotation(rng, rho):
    lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
    return lift @ rho @ lift.conj().T


def _canonical_state(rng, x):
    """State with a diagonal correlation matrix and a-side Bloch vector x, locally rotated."""
    c = np.sort(rng.uniform(0.05, 0.25, size=3))[::-1] * rng.choice([-1.0, 1.0], size=3)
    y = rng.uniform(-0.1, 0.1, size=3)
    return _local_rotation(rng, bloch_compose(BlochRep(x=np.asarray(x), y=y, C=np.diag(c))))


def mixed_stack(seed=5):
    """Ginibre states, exactly degenerate marginals, X-states, and rotated
    Bloch vectors on a canonical axis or in a canonical plane."""
    rng = np.random.default_rng(seed)
    states = [ginibre_state(rng) for _ in range(7)]
    states += [bell_diagonal_state(rng) for _ in range(3)]
    states += [_local_rotation(rng, bell_diagonal_state(rng)) for _ in range(3)]
    states += list(analytic_states(ModelParams(n=0.4, r=0.9), np.linspace(0.0, 3.0, 5)))
    for _ in range(3):
        states.append(_canonical_state(rng, [0.0, 0.0, rng.uniform(0.1, 0.3)]))
        states.append(_canonical_state(rng, [rng.uniform(0.1, 0.2), 0.0, rng.uniform(0.1, 0.2)]))
    order = rng.permutation(len(states))
    return np.array(states)[order]


def configurations(stack):
    """Where each state's a-side Bloch vector lies: degenerate (|x| below
    MARGINAL_EPS), or else on an axis, in a plane or generic in the frame of
    the correlation matrix's singular vectors, by the components whose
    square exceeds 1e-14 of |x|^2; and whether its marginal is degenerate."""
    canon = canonicalize_correlations(bloch_decompose(stack))
    u = canon.xr**2
    usum = u.sum(axis=-1)
    big = (u > 1e-14 * usum[:, None]).sum(axis=-1)
    frame = np.where(np.sqrt(usum) < MARGINAL_EPS, "degenerate", np.array(["", "axis", "plane", "generic"])[big])
    marginal = np.where(np.linalg.norm(bloch_decompose(stack).x, axis=-1) < MARGINAL_EPS, "degenerate", "projection")
    return frame, marginal


def test_mixed_stack_covers_every_configuration():
    frame, marginal = configurations(mixed_stack())
    assert set(frame) == {"degenerate", "axis", "plane", "generic"}
    assert set(marginal) == {"degenerate", "projection"}


@pytest.mark.parametrize(
    "measure, shape",
    [
        pytest.param(concurrence, (), id="concurrence"),
        pytest.param(hs_min, (), id="hs_min"),
        pytest.param(trace_min, (), id="trace_min"),
        pytest.param(lambda rho: partial_trace(rho, "a"), (2, 2), id="partial_trace_a"),
        pytest.param(lambda rho: partial_trace(rho, "b"), (2, 2), id="partial_trace_b"),
        pytest.param(lambda rho: bloch_compose(bloch_decompose(rho)), (4, 4), id="bloch_round_trip"),
    ],
)
def test_stack_matches_entries_bitwise(measure, shape):
    stack = mixed_stack()
    values = measure(stack)
    assert isinstance(values, np.ndarray) and values.shape == (len(stack), *shape)
    for i, rho in enumerate(stack):
        single = measure(rho)
        assert isinstance(single, float) if shape == () else single.shape == shape
        assert np.array_equal(values[i], single), i
    np.testing.assert_array_equal(measure(stack.reshape(2, -1, 4, 4)), values.reshape(2, -1, *shape))


def xstate_stack():
    """Exact trajectories through sudden death, plus the separable r = 0 start."""
    times = np.linspace(0.0, 3.0, 7)
    pairs = ((0.0, 1.0), (0.1, 0.3), (0.5, 0.9), (1.0, 0.0), (2.0, 0.6))
    return np.concatenate([analytic_states(ModelParams(n=n, r=r), times) for n, r in pairs])


def test_concurrence_xstate_stack_matches_entries_bitwise():
    stack = xstate_stack()
    values = concurrence_xstate(stack)
    assert isinstance(values, np.ndarray) and values.shape == (len(stack),)
    assert (values > 0.0).any() and (values == 0.0).any()
    for i, rho in enumerate(stack):
        single = concurrence_xstate(rho)
        assert isinstance(single, float)
        assert values[i] == single, i
    np.testing.assert_array_equal(concurrence_xstate(stack.reshape(5, 7, 4, 4)), values.reshape(5, 7))


def test_concurrence_xstate_stack_names_the_non_xstate():
    rng = np.random.default_rng(8)
    stack = xstate_stack()
    for i in (3, 5):
        stack[i] = 0.999 * stack[i] + 0.001 * ginibre_state(rng)
    with pytest.raises(NotXState, match=r"^state 3: off-structure entry magnitude"):
        concurrence_xstate(stack)
    with pytest.raises(NotXState) as single:
        concurrence_xstate(stack[3])
    assert not str(single.value).startswith("state")


def test_evaluate_measures_and_bloch_stacks_match_entries_bitwise():
    stack = mixed_stack(seed=6)
    w = WeakStrength(0.7)
    rep = evaluate_measures(stack, w)
    b = bloch_decompose(stack)
    for i, rho in enumerate(stack):
        single = evaluate_measures(rho, w)
        assert (rep.C[i], rep.N2[i], rep.N1[i], rep.N2W[i], rep.N1W[i]) == (
            single.C, single.N2, single.N1, single.N2W, single.N1W
        )
        bi = bloch_decompose(rho)
        assert np.array_equal(b.x[i], bi.x) and np.array_equal(b.y[i], bi.y) and np.array_equal(b.C[i], bi.C)


def test_bloch_compose_stack_names_the_non_state():
    b = bloch_decompose(mixed_stack())
    C = b.C.copy()
    C[3] = 3.0 * np.eye(3)  # singlet eigenvalue (1 - 9) / 4, shifted by at most 1/2 by x and y
    with pytest.raises(NotPositive, match=r"^state 3: "):
        bloch_compose(BlochRep(x=b.x, y=b.y, C=C))


@pytest.mark.parametrize(
    "spoil, exc",
    [
        (lambda rho: rho.__setitem__((0, 1), rho[0, 1] + 0.1), NotHermitian),
        (lambda rho: rho.__imul__(1.5), TraceNotOne),
        (lambda rho: rho.__setitem__(slice(None), np.diag([1.001, 0.0, 0.0, -0.001])), NotPositive),
        (lambda rho: rho.__setitem__((2, 2), np.nan), ValueError),
    ],
)
def test_validate_stack_names_the_bad_index(spoil, exc):
    rng = np.random.default_rng(7)
    stack = np.array([ginibre_state(rng) for _ in range(6)])
    spoil(stack[3])
    spoil(stack[5])
    with pytest.raises(exc, match=r"^state 3: "):
        validate_state(stack)
    with pytest.raises(exc, match=r"^state \(1, 0\): "):
        validate_state(stack.reshape(2, 3, 4, 4))
    with pytest.raises(exc) as single:
        validate_state(stack[3])
    assert not str(single.value).startswith("state")
    validate_state(stack[:3])
