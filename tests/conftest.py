"""Fitting records that several test modules need, sampled once per session.

Conductor 114889 (p = 3) is classified in two modules, and conductor 2917
(p = 3, n = 6, ring rank 729: minutes to sample) is needed by both the
quadratic survey and the quadratic cross-check.
"""

import pytest

from capitula import cli, cycunits


@pytest.fixture(scope="session")
def fitting_114889():
    return cycunits.compute_fitting_ideal(114889, 3, 2)


@pytest.fixture(scope="session")
def fitting_2917():
    return cycunits.compute_fitting_ideal(2917, 3, 2)


@pytest.fixture(scope="session")
def quad3_cache(tmp_path_factory, fitting_2917):
    """A cache directory whose p = 3 table holds only conductor 2917, so a
    survey through it samples every other conductor cold."""
    cache = str(tmp_path_factory.mktemp("quad3_cache"))
    cli._cache_append(cache, [fitting_2917])
    return cache
