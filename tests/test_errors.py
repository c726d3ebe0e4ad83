"""The failure contract of the library: every count argument is an integer
of at least its minimum, every seed or stream key is an integer, every size
is a finite float > 0, and anything else is a ParameterError that names the
argument."""

import math
import re

import numpy as np
import pytest

from femprob import (
    ParameterError,
    assemble_solve,
    build_mesh,
    convergence_study,
    fit_constant,
    get_problem,
    mc_estimate,
    prob_sigmoid,
    trapezium_ratio,
)
from femprob.laws import (
    ElementPair,
    ErrorLaw,
    prob_sigmoid_complement,
    prob_two_step,
    tabulate_curve,
)
from femprob.mesh import Mesh1D, jittered_nodes
from femprob.oracle import (
    McEstimate,
    conditional_identity_check,
    draw_error_samples,
    numeric_area_oracle,
)
from femprob.problems import seminorm_reference
from femprob.rng import derive_key, mix64, uniform_at, uniforms
from femprob.study import superiority_sweep

PAIR = ElementPair.from_constants(1.0, 1, 2.0, 2)  # crossover at 0.5
SINE = get_problem("sine")
MESH = build_mesh(4, 0.0, 0)
SEEDS = np.zeros(2, dtype=np.uint64)

# test id: (the argument named in the error, a call passing the value there)
COUNTS = {
    "ErrorLaw": ("order", lambda v: ErrorLaw(v, 1.0)),
    "from_constants": ("order", lambda v: ElementPair.from_constants(1.0, 1, 2.0, v)),
    "assemble_solve": ("order", lambda v: assemble_solve(MESH, v, SINE)),
    "jittered_nodes": ("n_elements", lambda v: jittered_nodes(v, 0.3, SEEDS)),
    "build_mesh": ("n_elements", lambda v: build_mesh(v, 0.3, 0)),
    "McEstimate": ("n_trials", lambda v: McEstimate(0.5, v, 0)),
    "draw_error_samples": ("n_trials", lambda v: draw_error_samples(PAIR, 0.25, v, 0)),
    "mc_estimate": ("n_trials", lambda v: mc_estimate(PAIR, 0.25, v, 0)),
    "conditional_identity_check": (
        "n_trials", lambda v: conditional_identity_check(PAIR, 0.25, v, 0)
    ),
    "numeric_area_oracle": ("grid_n", lambda v: numeric_area_oracle(PAIR, 0.25, v)),
    "convergence_study": ("trials_per_n", lambda v: convergence_study(SINE, 1, [4], 0.0, v, 0)),
    "convergence_study_n_list": (
        "n_list[1]", lambda v: convergence_study(SINE, 1, [2, v], 0.0, 1, 0)
    ),
    "superiority_sweep": ("trials", lambda v: superiority_sweep(SINE, 1, 2, [4], v, 0.0, 0)),
    "superiority_sweep_n_list": (
        "n_list[0]", lambda v: superiority_sweep(SINE, 1, 2, [v], 1, 0.0, 0)
    ),
    "superiority_sweep_order_low": (
        "order_low", lambda v: superiority_sweep(SINE, v, 2, [4], 1, 0.0, 0)
    ),
    "superiority_sweep_order_high": (
        "order_high", lambda v: superiority_sweep(SINE, 1, v, [4], 1, 0.0, 0)
    ),
    "fit_constant": ("order", lambda v: fit_constant([], v)),
    "seminorm_reference": ("seminorm order s", lambda v: seminorm_reference(SINE, v)),
}

# the draw counts of `rng` may be 0
DRAW_COUNTS = {
    "uniforms": ("count", lambda v: uniforms(1, v)),
    "uniforms_offset": ("offset", lambda v: uniforms(1, 2, v)),
    "uniform_at": ("index", lambda v: uniform_at(1, v)),
}

# a seed, a key or a key-path element may be any integer, of either sign
INTEGERS = {
    "derive_key": ("seed", lambda v: derive_key(v)),
    "derive_key_path": ("path[1]", lambda v: derive_key(7, 0, v)),
    "uniforms": ("key", lambda v: uniforms(v, 2)),
    "uniform_at": ("key", lambda v: uniform_at(v, 2)),
    "mix64": ("x", lambda v: mix64(v)),
    "build_mesh": ("seed", lambda v: build_mesh(4, 0.3, v)),
    "Mesh1D": ("seed", lambda v: Mesh1D(np.linspace(0.0, 1.0, 3), v)),
    "McEstimate": ("seed", lambda v: McEstimate(0.5, 10, v)),
    "draw_error_samples": ("seed", lambda v: draw_error_samples(PAIR, 0.25, 10, v)),
    "mc_estimate": ("seed", lambda v: mc_estimate(PAIR, 0.25, 10, v)),
    "conditional_identity_check": (
        "seed", lambda v: conditional_identity_check(PAIR, 0.25, 10, v)
    ),
}

# an array of seeds or of key-path elements must hold integers, also where
# no draw is made (a mesh with jitter 0 or one element)
KEY_ARRAYS = {
    "derive_key": ("seed", lambda a: derive_key(a)),
    "derive_key_path": ("path[0]", lambda a: derive_key(7, a)),
    "mix64": ("x", lambda a: mix64(a)),
    "uniforms": ("key", lambda a: uniforms(a, 4)),
    "jittered_nodes": ("seeds", lambda a: jittered_nodes(4, 0.3, a)),
    "jittered_nodes_no_jitter": ("seeds", lambda a: jittered_nodes(4, 0.0, a)),
    "jittered_nodes_one_element": ("seeds", lambda a: jittered_nodes(1, 0.3, a)),
    "Mesh1D._of_rows": ("seeds", lambda a: Mesh1D._of_rows(np.array([[0.0, 1.0]]), a)),
}

SIZES = {
    "ErrorLaw": ("constant", lambda v: ErrorLaw(1, v)),
    "from_constants": ("constant", lambda v: ElementPair.from_constants(v, 1, 2.0, 2)),
    "bound": ("mesh size h", lambda v: ErrorLaw(1, 1.0).bound(v)),
    "prob_two_step": ("mesh size h", lambda v: prob_two_step(PAIR, v)),
    "prob_sigmoid": ("mesh size h", lambda v: prob_sigmoid(PAIR, v)),
    "prob_sigmoid_complement": ("mesh size h", lambda v: prob_sigmoid_complement(PAIR, v)),
    "tabulate_curve": ("mesh size h", lambda v: tabulate_curve(PAIR, [0.1, v], prob_sigmoid)),
    "trapezium_ratio": ("mesh size h", lambda v: trapezium_ratio(PAIR, v)),
    "numeric_area_oracle": ("mesh size h", lambda v: numeric_area_oracle(PAIR, v, 10)),
    "draw_error_samples": ("mesh size h", lambda v: draw_error_samples(PAIR, v, 10, 0)),
    "mc_estimate": ("mesh size h", lambda v: mc_estimate(PAIR, v, 10, 0)),
    "conditional_identity_check": (
        "mesh size h", lambda v: conditional_identity_check(PAIR, v, 10, 0)
    ),
    # a jitter may be 0; these four values are refused as a size is
    "jittered_nodes": ("jitter", lambda v: jittered_nodes(4, v, SEEDS)),
    "build_mesh": ("jitter", lambda v: build_mesh(4, v, 3)),
}


@pytest.mark.parametrize("value", [0, 2.5, True, "3"])
@pytest.mark.parametrize("name, call", COUNTS.values(), ids=COUNTS)
def test_count_must_be_an_integer_of_at_least_one(name, call, value):
    with pytest.raises(ParameterError, match=re.escape(name)):
        call(value)


@pytest.mark.parametrize("value", [-1, 2.5, True, "3"])
@pytest.mark.parametrize("name, call", DRAW_COUNTS.values(), ids=DRAW_COUNTS)
def test_draw_count_must_be_a_nonnegative_integer(name, call, value):
    with pytest.raises(ParameterError, match=re.escape(name)):
        call(value)


@pytest.mark.parametrize("value", [2.5, True, "3", None])
@pytest.mark.parametrize("name, call", INTEGERS.values(), ids=INTEGERS)
def test_seed_must_be_an_integer(name, call, value):
    with pytest.raises(ParameterError, match=re.escape(name)):
        call(value)


@pytest.mark.parametrize("array", [np.array([1.5]), np.array([True])], ids=["float", "bool"])
@pytest.mark.parametrize("name, call", KEY_ARRAYS.values(), ids=KEY_ARRAYS)
def test_key_array_must_have_an_integer_dtype(name, call, array):
    with pytest.raises(ParameterError, match=re.escape(name)):
        call(array)


@pytest.mark.parametrize(
    "seeds", [[1.5, "x"], [1, 2], 7, np.zeros((2, 2), dtype=np.uint64)],
    ids=["list", "int_list", "integer", "2d"],
)
@pytest.mark.parametrize("n, jitter", [(4, 0.3), (4, 0.0), (1, 0.3)])
def test_jittered_nodes_seeds_must_be_a_1d_integer_array(n, jitter, seeds):
    # a list or an integer is not taken as one seed or many: it names the contract
    with pytest.raises(ParameterError, match="^seeds must be a 1-D integer array, got "):
        jittered_nodes(n, jitter, seeds)


@pytest.mark.parametrize("value", [None, "x", math.nan, -1.0])
@pytest.mark.parametrize("name, call", SIZES.values(), ids=SIZES)
def test_size_must_be_positive_and_finite(name, call, value):
    with pytest.raises(ParameterError, match=re.escape(name)):
        call(value)


def test_numpy_integers_are_counts():
    as_lists = convergence_study(SINE, 1, [4, 8], 0.3, 2, seed=5)
    as_arrays = convergence_study(SINE, 1, np.array([4, 8]), 0.3, np.int64(2), seed=5)
    assert as_arrays == as_lists
