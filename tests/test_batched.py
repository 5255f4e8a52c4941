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
    evaluate_measures,
    hs_min,
    trace_min,
    validate_state,
)
from thermomin.measures import MARGINAL_EPS

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


def branches(stack):
    """Which trace_min and hs_min branch each state takes, from its canonical form."""
    canon = canonicalize_correlations(bloch_decompose(stack))
    u = canon.xr**2
    usum = u.sum(axis=-1)
    big = (u > 1e-14 * usum[:, None]).sum(axis=-1)
    trace_branch = np.where(np.sqrt(usum) < MARGINAL_EPS, "degenerate", np.array(["", "axis", "plane", "generic"])[big])
    hs_branch = np.where(np.linalg.norm(bloch_decompose(stack).x, axis=-1) < MARGINAL_EPS, "degenerate", "projection")
    return trace_branch, hs_branch


def test_mixed_stack_covers_every_branch():
    trace_branch, hs_branch = branches(mixed_stack())
    assert set(trace_branch) == {"degenerate", "axis", "plane", "generic"}
    assert set(hs_branch) == {"degenerate", "projection"}


@pytest.mark.parametrize("measure", [concurrence, hs_min, trace_min])
def test_stack_matches_entries_bitwise(measure):
    stack = mixed_stack()
    values = measure(stack)
    assert isinstance(values, np.ndarray) and values.shape == (len(stack),)
    for i, rho in enumerate(stack):
        single = measure(rho)
        assert isinstance(single, float)
        assert values[i] == single, i
    np.testing.assert_array_equal(measure(stack.reshape(2, -1, 4, 4)), values.reshape(2, -1))


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
