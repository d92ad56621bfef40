"""Property tests of the engine contracts in the many-columns regime.

Random shapes (n from 4 to 40 rows, p from 2 to 60 columns) with random
missingness, constant and duplicate columns and roles, under every
strategy and both imputers.  Each case either keeps the contracts
(observed cells unchanged, finite output, determinism, and chain-prefix
invariance: the first 2 chains of a 3-chain run equal a 2-chain run) or
raises a ``ValueError`` that names a column or the strategy.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcimpute.data import ROLE_ANALYSIS, ROLE_AUXILIARY, ROLE_MAR, IncompleteData
from pcimpute.engine import STRATEGIES, ImputationSpec, run_impute
from pcimpute.imputers import IMPUTER_KINDS
from tests.helpers import assert_observed_preserved, constant_auxiliary_block, few_observed_target

ROLES = (ROLE_AUXILIARY, ROLE_AUXILIARY, ROLE_AUXILIARY, ROLE_ANALYSIS, ROLE_MAR)
KINDS = ("normal", "normal", "normal", "constant", "duplicate")
MISSING = (0.0, 0.0, 0.2, 0.5, 0.9)


def _spec(strategy, imputer, n_components):
    return ImputationSpec(
        strategy=strategy,
        imputer=imputer,
        n_components=n_components,
        chains=2,
        iterations=2,
        prepass_iterations=2,
        seed=5,
    )


@st.composite
def shapes(draw):
    n_rows = draw(st.integers(4, 40))
    n_cols = draw(st.integers(2, 60))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n_cols, max_size=n_cols))
    missing = draw(st.lists(st.sampled_from(MISSING), min_size=n_cols, max_size=n_cols))
    roles = draw(st.lists(st.sampled_from(ROLES), min_size=n_cols, max_size=n_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = 0.8 * rng.standard_normal((n_rows, 1)) + 0.6 * rng.standard_normal((n_rows, n_cols))
    for j, kind in enumerate(kinds):
        if kind == "constant":
            values[:, j] = 1.5
        elif kind == "duplicate" and j > 0:
            values[:, j] = values[:, rng.integers(j)]
    for j, share in enumerate(missing):
        gone = rng.random(n_rows) < share
        gone[:3] = False  # at least three observed cells; fewer is refused up front
        values[gone, j] = np.nan
    return IncompleteData.from_matrix(values, roles=roles)


def _assert_labelled(err: ValueError, data: IncompleteData, spec: ImputationSpec) -> None:
    message = str(err)
    named = set(re.findall(r"'([^']*)'", message))
    assert named & set(data.names) or spec.strategy in message, message


@pytest.mark.parametrize("imputer", IMPUTER_KINDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=8)
@example(data=few_observed_target(), n_components="max")
@example(data=constant_auxiliary_block(), n_components=1)
@given(data=shapes(), n_components=st.one_of(st.just("max"), st.integers(1, 6)))
def test_contracts_or_labelled_error(strategy, imputer, data, n_components):
    spec = _spec(strategy, imputer, n_components)
    try:
        first = run_impute(spec, data)
    except ValueError as err:
        _assert_labelled(err, data, spec)
        return
    again = run_impute(spec, data)
    longer = run_impute(dataclasses.replace(spec, chains=3), data)
    for k, completion in enumerate(first.completions):
        assert_observed_preserved(data, completion)
        np.testing.assert_array_equal(completion, again.completions[k])
        np.testing.assert_array_equal(completion, longer.completions[k])

