"""Tests for the hardware callset set-operations (VQSR intersection)."""

import numpy as np
import pytest

from repro.accel.callset_ops import run_callset_intersection
from repro.variants import CallSet, Variant


def random_callset(n, seed, name):
    rng = np.random.default_rng(seed)
    seen = set()
    variants = []
    bases = "ACGT"
    for _ in range(n):
        chrom = int(rng.integers(1, 4))
        pos = int(rng.integers(0, 800))
        ref = bases[int(rng.integers(0, 4))]
        alt = bases[(bases.index(ref) + 1 + int(rng.integers(0, 3))) % 4]
        variant = Variant(chrom=chrom, pos=pos, ref=ref, alt=alt)
        if variant.key() not in seen:
            seen.add(variant.key())
            variants.append(variant)
    return CallSet(variants, name=name)


@pytest.fixture(scope="module")
def callsets():
    return random_callset(120, 71, "calls"), random_callset(120, 72, "truth")


def test_intersection_matches_software(callsets):
    a, b = callsets
    hw = run_callset_intersection(a, b)
    assert hw.callset.keys() == a.intersect(b).keys()


def test_intersection_symmetric_keys(callsets):
    a, b = callsets
    ab = run_callset_intersection(a, b).callset.keys()
    ba = run_callset_intersection(b, a).callset.keys()
    assert ab == ba


def test_empty_operands():
    empty = CallSet([], name="empty")
    full = random_callset(10, 73, "full")
    assert len(run_callset_intersection(empty, full).callset) == 0
    assert len(run_callset_intersection(full, empty).callset) == 0


def test_same_position_different_alleles_distinct():
    a = CallSet([Variant(chrom=1, pos=5, ref="A", alt="C")], name="a")
    b = CallSet([Variant(chrom=1, pos=5, ref="A", alt="G")], name="b")
    assert len(run_callset_intersection(a, b).callset) == 0


def test_throughput_one_variant_per_cycle(callsets):
    a, b = callsets
    hw = run_callset_intersection(a, b)
    assert hw.stats.cycles < (len(a) + len(b)) * 1.5 + 50
