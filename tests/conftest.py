import json

import numpy as np
import pytest

from hkdelay.model import DelayKind, InfluenceFunction, InitialDatum, SystemConfig, WeightScheme
from hkdelay.rates import linear_coefficients, two_agent_config

TAU_GRID = [0.05 * k for k in range(1, 41)]
# (a, b) of the two-agent toy, whose gap obeys w' = -a w(t) - b w(t - tau)
REACTION = linear_coefficients(two_agent_config(DelayKind.REACTION, 1.0))
TRANSMISSION = linear_coefficients(two_agent_config(DelayKind.TRANSMISSION, 1.0))
COEFFICIENTS = {DelayKind.REACTION: REACTION, DelayKind.TRANSMISSION: TRANSMISSION}
# the toy's constant history, w = x_1 - x_2 = 1
W0 = InitialDatum.constant([[0.5], [-0.5]])

# the file each output name writes
FILES = {"trajectory": "trajectory.csv", "metrics": "metrics.csv", "rates": "rates.json", "report": "report.json"}


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


def write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)
