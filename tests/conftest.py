"""Shared fixtures."""

import multiprocessing
from math import prod

import pytest

from stablepairs import ratfun


@pytest.fixture
def pool_starts(monkeypatch):
    """Real multiprocessing pools on two CPUs, recording each pool's size."""
    real_pool, started = multiprocessing.Pool, []

    def pool(processes):
        started.append(processes)
        return real_pool(processes)

    monkeypatch.setattr("multiprocessing.Pool", pool)
    monkeypatch.setattr("stablepairs.localcurve.os.cpu_count", lambda: 2)
    return started


def lifted_bounds(products, need, variables):
    """The coefficient bound and the per-variable exponent bounds of a
    packed sum, from one lifted {form: exponent + need[form]} per term: the
    reference for ratfun._packing_bounds."""

    def lifts(exponents):
        out = {form: n for form, n in need.items() if n}
        for form, e in exponents.items():
            lift = out.get(form, 0) + e
            if lift:
                out[form] = lift
            else:
                del out[form]
        return out

    bound = sum(
        abs(scalar) * prod(sum(map(abs, f)) ** lift for f, lift in lifts(exponents).items())
        for scalar, exponents in products
    )
    bounds = [max(sum(lift for f, lift in lifts(exponents).items() if f[i])
                  for _, exponents in products) for i in variables]
    return bound, bounds


@pytest.fixture
def packing_bounds_seen(monkeypatch):
    """Every ratfun._packing_bounds call must equal lifted_bounds on its
    inputs, so bits and the strides cannot move; the per-variable bounds of
    each call are recorded."""
    real, seen = ratfun._packing_bounds, []

    def checked(products, need, forms, variables):
        got = real(products, need, forms, variables)
        assert got == lifted_bounds(products, need, variables), (products, need)
        seen.append(got[1])
        return got

    monkeypatch.setattr(ratfun, "_packing_bounds", checked)
    return seen
