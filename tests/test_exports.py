"""Every name the package and its modules export resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import cubicbrauer

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(cubicbrauer.__path__)
    if hasattr(importlib.import_module(f"cubicbrauer.{info.name}"), "__all__")
)


def _star_import(module: str) -> dict:
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    return namespace


def test_package_exports_resolve():
    assert len(set(cubicbrauer.__all__)) == len(cubicbrauer.__all__)
    missing = [name for name in cubicbrauer.__all__ if not hasattr(cubicbrauer, name)]
    assert not missing
    namespace = _star_import("cubicbrauer")
    assert set(cubicbrauer.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cubicbrauer.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
    assert set(exported) <= set(_star_import(module.__name__))


def test_elimination_routes_stay_in_the_tests():
    # the Sylvester and divisor-listing routes, and the polynomial arithmetic
    # they run on, live in tests/oracles.py
    import cubicbrauer.ratpoly

    for name in ("discriminant", "resultant", "fraction_det", "rational_roots", "RationalPoly"):
        assert not hasattr(cubicbrauer, name)
        assert not hasattr(cubicbrauer.ratpoly, name)
        assert name not in cubicbrauer.__all__


def test_the_listing_route_stays_in_the_acceptance_suite(monkeypatch):
    # the bound is a closed form; the Galois-group listing that checks it is acceptance's
    import cubicbrauer.brauer as brauer

    gone = ("_cyclotomic_class", "_fixes_sqrt_d", "_unit_generators", "_stabilized")
    for name in (*gone, "qmodz_invariants"):
        assert not hasattr(brauer, name)
        assert not hasattr(cubicbrauer, name)
        assert name not in cubicbrauer.__all__

    def refuse(d, n):
        raise AssertionError("transcendental_bound called twist_invariants")

    monkeypatch.setattr(brauer, "twist_invariants", refuse)
    boundary = brauer.BoundaryDescriptor("three_lines", "s3", d=-3)
    assert brauer.transcendental_bound(boundary).invariant_factors == (6,)


def test_second_routes_stay_in_the_acceptance_suite():
    # the cyclic H^1 oracle and the kernels, cokernels and solutions that only
    # the second routes read live beside the checks that run them
    import cubicbrauer.acceptance
    import cubicbrauer.cohomology
    import cubicbrauer.intlinalg

    names = (
        "h1_cyclic_oracle", "kernel_basis", "mod_kernel", "solve_columns", "cokernel_structure"
    )
    core = (cubicbrauer, cubicbrauer.intlinalg, cubicbrauer.cohomology)
    for name in names:
        assert not any(hasattr(module, name) for module in core), name
        assert name not in cubicbrauer.__all__
        assert name in cubicbrauer.acceptance.__all__
