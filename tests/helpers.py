"""Measurements the tests take of a simulated event stream."""

import numpy as np

from homsim import pair_events


def coincidence_fraction(stream):
    """Fraction of triggers with at least one click on each output detector."""
    pairing = pair_events(stream)
    return float(np.mean((pairing.first_a >= 0) & (pairing.first_b >= 0)))
