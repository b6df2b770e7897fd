import numpy as np
import pytest

from quasidyn.lattice import Model, PotentialSpec, potential_values


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def brute_transfer(spec: PotentialSpec, n: int, m: int, z: complex) -> np.ndarray:
    """Reference transfer product multiplied out one site at a time, as complex
    2x2 matrix products, from the potential read once over sites m + 1..n."""
    out = np.eye(2, dtype=np.complex128)
    for v in potential_values(spec, np.arange(m + 1, n + 1)).tolist():
        out = np.array([[z - v, -1.0], [1.0, 0.0]], dtype=np.complex128) @ out
    return out


def fib_spec(lam: float = 1.0) -> PotentialSpec:
    return PotentialSpec(Model.FIBONACCI, lam)
