"""Tests for regular section descriptors (paper section 3.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.rsd import RSD, RSDim


class TestRSDim:
    def test_widen_negative_offset_extends_low(self):
        assert RSDim().widen(-2) == RSDim(2, 0)

    def test_widen_positive_offset_extends_high(self):
        assert RSDim().widen(3) == RSDim(0, 3)

    def test_widen_zero_is_identity(self):
        assert RSDim(1, 2).widen(0) == RSDim(1, 2)

    def test_union_is_pointwise_max(self):
        assert RSDim(1, 0).union(RSDim(0, 2)) == RSDim(1, 2)

    def test_contains(self):
        assert RSDim(2, 2).contains(RSDim(1, 2))
        assert not RSDim(0, 2).contains(RSDim(1, 0))

    def test_negative_extension_rejected(self):
        with pytest.raises(ValueError):
            RSDim(-1, 0)


class TestRSD:
    def test_trivial(self):
        r = RSD.trivial(2, shift_dim=1)
        assert r.is_trivial and r.shift_dim == 1

    def test_from_offsets_nine_point_corner(self):
        # the Figure 15 case: dim-2 shift of U<+1,0> needs [0:N+1,*]
        r = RSD.from_offsets((1, 0), shift_dim=1)
        assert r.dims[0] == RSDim(0, 1)
        assert r.dims[1] is None

    def test_union_covers_both_corners(self):
        up = RSD.from_offsets((1, 0), shift_dim=1)
        dn = RSD.from_offsets((-1, 0), shift_dim=1)
        u = up.union(dn)
        assert u.dims[0] == RSDim(1, 1)

    def test_format_matches_paper_notation(self):
        up = RSD.from_offsets((1, 0), shift_dim=1)
        dn = RSD.from_offsets((-1, 0), shift_dim=1)
        assert up.union(dn).format(extents=["N", "N"]) == "[0:N+1,*]"

    def test_incompatible_union_rejected(self):
        with pytest.raises(ValueError):
            RSD.trivial(2, 0).union(RSD.trivial(2, 1))

    def test_rsd_without_star_rejected(self):
        with pytest.raises(ValueError):
            _ = RSD((RSDim(), RSDim())).shift_dim

    def test_slab_is_the_rsd_else_the_base_offsets_else_trivial(self):
        given = RSD.trivial(2, 1)
        assert RSD.slab(given, (1, 0), 2, 1) is given
        assert RSD.slab(None, (1, 0), 2, 1) == \
            RSD.from_offsets((1, 0), 1)
        assert RSD.slab(None, None, 2, 1) == RSD.trivial(2, 1)
        assert RSD.slab(None, (), 2, 1) == RSD.trivial(2, 1)

    def test_slab_of_another_shift_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            RSD.slab(RSD.trivial(2, 0), None, 2, 1)
        with pytest.raises(ValueError, match="incompatible"):
            RSD.slab(None, (1, 0, 0), 2, 1)


exts = st.integers(min_value=0, max_value=4)


@st.composite
def rsds(draw, rank: int = 3, shift_dim: int = 1):
    dims = tuple(None if k == shift_dim else RSDim(draw(exts), draw(exts))
                 for k in range(rank))
    return RSD(dims)


class TestRSDProperties:
    @given(rsds(), rsds())
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(rsds(), rsds(), rsds())
    def test_union_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(rsds(), rsds())
    def test_union_upper_bound(self, a, b):
        u = a.union(b)
        assert u.contains(a) and u.contains(b)

    @given(rsds())
    def test_union_idempotent(self, a):
        assert a.union(a) == a

    @given(rsds(), rsds())
    def test_contains_iff_union_absorbs(self, a, b):
        assert a.contains(b) == (a.union(b) == a)
