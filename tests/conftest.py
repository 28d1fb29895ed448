import numpy as np
import pytest

from prcitube.metric import ContractionMetric, box_grid, synthesize_constant_metric
from prcitube.systems import VTOL_CERTIFIED_BOX, make_benchmark_3d, make_benchmark_vtol, matvec


def nominal_field(sys, x, u):
    """The nominal field f(x) + B(x) u at one state or at every row, the
    field ``integrate`` hands the uncertainty."""
    return sys.drift(x) + matvec(sys.actuation(x), u)


def plant_field(sys, x, u):
    """The plant field f(x) + B(x) u + zeta(x, u) at one state or at every
    row, the nominal field formed once and handed to zeta, as ``integrate``
    forms it."""
    f = nominal_field(sys, x, u)
    if sys.uncertainty is not None:
        f = f + sys.uncertainty(x, u, f)
    return f


@pytest.fixture(scope="session")
def bench3d():
    return make_benchmark_3d()


@pytest.fixture(scope="session")
def metric3d(bench3d):
    nom, _ = bench3d
    grid = box_grid(nom.state_box, 5)
    return synthesize_constant_metric(nom, grid, (0.3, 1.0), chi_max=100.0, margin_target=-0.05)


@pytest.fixture(scope="session")
def vtol():
    return make_benchmark_vtol()


@pytest.fixture(scope="session")
def metric_vtol(vtol):
    # the near-hover certificate region
    grid = box_grid(VTOL_CERTIFIED_BOX, [1, 1, 5, 5, 5, 5])
    return synthesize_constant_metric(
        vtol.nominal, grid, (0.1, 0.6), chi_max=300.0, margin_target=-0.02
    )


# 2D state-dependent test metric M(x) = diag(1 + x1^2, 1)
@pytest.fixture(scope="session")
def poly_metric_2d():
    terms = [
        ((0, 0), np.eye(2)),
        ((2, 0), np.diag([1.0, 0.0])),
    ]
    return ContractionMetric.polynomial(terms, rate=0.5, lower=1.0, upper=1.0 + 2.25**2)
