"""Pinned probe reports: the exact bits of seeded sup-norm searches.

Each case hashes everything a report says about its search: every trajectory
entry (iteration, label and the hex of its value and boundary distance), the
failure count, the hex of the best value, the settled verdict and the bytes
of the argmax.  The digests were recorded from the one-point-at-a-time probe,
so any change to how candidates are drawn, evaluated or charged to the budget
that moves a single bit fails here.  ``ex52-row-l2`` was recorded later, from
the batched probe with the exact resolvent guard on every sample, and
``quotient-column-l2`` and ``shared-prefix-poly-l2`` from the polynomial
evaluation that folded each term on its own, before the prefix walk.
``ex52-l2-across-2^32`` and ``poly-row-l1-across-2^128`` were recorded from
the sampler that built one ``default_rng(seed + i)`` per draw; their
multistart seeds cross 2^32 and 2^128, where a seed's count of 32-bit
entropy words changes.
"""

import hashlib

import numpy as np
import pytest

from ncball.freealg import FreePolynomial, QuotientColumn, parse
from ncball.opball import polydisk, row_ball
from ncball.probe import MonomialRow, estimate_sup
from ncball.realize import RemainderColumn, bidisk_witness

BUDGET = 300


def report_digest(report) -> str:
    h = hashlib.sha256()
    for i, (label, value, distance) in enumerate(zip(report.labels, report.values, report.boundary_distances)):
        h.update(f"{i},{label},{value.hex()},{distance.hex()}\n".encode())
    h.update(f"{report.failures},{report.best_value.hex()},{report.settled}\n".encode())
    h.update(report.argmax.entries.tobytes())
    return h.hexdigest()


def shared_prefix_poly() -> FreePolynomial:
    """40 distinct seeded terms of degree <= 6 in 2 variables: short words are prefixes of long ones."""
    rng = np.random.default_rng(11)
    words = [tuple(rng.integers(1, 3, rng.integers(0, 7)).tolist()) for _ in range(72)]
    return FreePolynomial(2, {w: complex(*rng.normal(size=2)) / 8 for w in words})


# every word has size >= 2; the head z2 z2 has a zero quotient and z1 z2 a constant part in its quotient
QUOTIENT_POLY = "z1*z2*z1 - 0.5*z1*z2 + (0.3+0.2i)*z1*z1*z2*z2 + 0.25*z2*z1*z2"

CASES = {
    "ex52-l1": lambda: estimate_sup(bidisk_witness(), polydisk(2), 1, BUDGET, 0),
    "ex52-l2": lambda: estimate_sup(bidisk_witness(), polydisk(2), 2, BUDGET, 0),
    "ex52-l8": lambda: estimate_sup(bidisk_witness(), polydisk(2), 8, BUDGET, 0),
    # the ball's pencil is not the target's, so every sample takes the exact resolvent guard
    "ex52-row-l2": lambda: estimate_sup(bidisk_witness(), row_ball(2), 2, BUDGET, 0),
    # the row ball's pencil is 1 x 2, so p != q
    "poly-row-l2": lambda: estimate_sup(parse("z1*z2 - 0.5*z2*z1 + (0.3+0.2i)*z1", 2), row_ball(2), 2, BUDGET, 3),
    "monomial-row-l2": lambda: estimate_sup(MonomialRow(2, 2), polydisk(2), 2, BUDGET, 5),
    "remainder-column-l2": lambda: estimate_sup(RemainderColumn(bidisk_witness(), 2), polydisk(2), 2, BUDGET, 5),
    "margin-override-l1": lambda: estimate_sup(bidisk_witness(), polydisk(2), 1, BUDGET, 9, margin=0.5),
    "quotient-column-l2": lambda: estimate_sup(QuotientColumn(parse(QUOTIENT_POLY, 2), 2), polydisk(2), 2, BUDGET, 7),
    "shared-prefix-poly-l2": lambda: estimate_sup(shared_prefix_poly(), polydisk(2), 2, BUDGET, 4),
    # the 150 multistart seeds run from 2^32 - 75 (one entropy word) to 2^32 + 74 (two)
    "ex52-l2-across-2^32": lambda: estimate_sup(bidisk_witness(), polydisk(2), 2, BUDGET, 2**32 - 75),
    # four entropy words below 2^128, five (numpy's extra mixing rounds) from it on
    "poly-row-l1-across-2^128": lambda: estimate_sup(
        parse("z1*z2 - 0.5*z2*z1 + (0.3+0.2i)*z1", 2), row_ball(2), 1, BUDGET, 2**128 - 75
    ),
}

PINNED = {
    "ex52-l1": "119eb1ae95ad944627a20365edc070aa8c14fdf3a6bad7db6c8df4a95b6dbb71",
    "ex52-l2-across-2^32": "157ea618b1eba1aee1db6a124cdd9b617dff0186cb9164f7363aaaf8190b8fb6",
    "ex52-l2": "275a69535a7a6a8aff600ba6bc2b8cc7e1ead5a26f7f967646de49af5677a146",
    "ex52-l8": "3619041d85f151a110020fd17d0bc9a48ccf0a2f6e72580090eee1722cedee69",
    "ex52-row-l2": "e7fa538e5a9d124b2e68eafce47131a4e86a4ddc29949a3615b1c7aff343c507",
    "margin-override-l1": "6788ba2da901635e0895febecb0972fb7a7c6779141e9ccc64f7651c93973e65",
    "monomial-row-l2": "768c3657003155f07a1612cffd41e378d18d0ad0d4a16dbb337f8d7534327a1e",
    "poly-row-l1-across-2^128": "0a69c701f487729e68bd51cf2ff9ebd45792470ce5198533590c56b77e5e3a80",
    "poly-row-l2": "7a1cbd3ab138cad54d60e5cf1c352b54375ccd3f198c3a52ebcaa7f4a93e4236",
    "quotient-column-l2": "053cc7f97f5a1fd2bad67d14eea67714d477d353a2e706f39c48ee48f5924945",
    "remainder-column-l2": "da296f6e5b1ebc2ceb907932909778f6a1b7a5425962393741366ca49b91e988",
    "shared-prefix-poly-l2": "14d3090c75767e58971843e1e447e5c3d132f9d460ce50181cce74b45f93c129",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_probe_report_keeps_its_bits(name):
    report = CASES[name]()
    assert report_digest(report) == PINNED[name]
    # the count of evaluations is read off the trajectory, never kept beside it
    assert report.evaluations == len(report.labels) == len(report.boundary_distances)
    with pytest.raises(AttributeError):
        report.evaluations = 0
