import numpy as np
import pytest

from hkdelay.model import DelayKind, InfluenceFunction, InitialDatum, SystemConfig, WeightScheme


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_config(
    n_agents=3,
    dim=1,
    tau=0.5,
    delay_kind=DelayKind.TRANSMISSION,
    weight_scheme=WeightScheme.NORMALIZED,
    influence=None,
):
    if influence is None:
        influence = InfluenceFunction.algebraic_decay(1.0)
    return SystemConfig(n_agents, dim, tau, delay_kind, weight_scheme, influence)


def random_datum(rng, n_agents, dim, low=0.0, high=1.0):
    return InitialDatum.constant(rng.uniform(low, high, (n_agents, dim)))
