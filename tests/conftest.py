from __future__ import annotations

import pytest

from cubicbrauer.cubiclattice import reference_trio, weyl_group
from cubicbrauer.perms import setwise_stabilizer, subgroup_classes


@pytest.fixture(scope="session")
def trio_stabilizer():
    return setwise_stabilizer(weyl_group(), set(reference_trio().indices))


@pytest.fixture(scope="session")
def stabilizer_classes(trio_stabilizer):
    return subgroup_classes(trio_stabilizer)


@pytest.fixture(scope="session")
def sweep_modules(stabilizer_classes):
    """(|G|, module) for Pic Xbar and Pic Ubar of every class: the 492 H^1 inputs."""
    from cubicbrauer.cubiclattice import pic_module, quotient_by_trio

    trio = reference_trio()
    return [
        (cls.order, module)
        for cls in stabilizer_classes
        for module in (pic_module(cls.group), quotient_by_trio(trio, cls.group))
    ]
