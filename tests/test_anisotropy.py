import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpm.anisotropy import (
    AnisotropyProfile,
    compute_l,
    constraint_sum,
    fibre_point,
    mesh_P,
    project_to_P,
    project_lattice,
    quasi_norm,
)
from hpm.errors import DomainError, SingularPointError

ISO2 = AnisotropyProfile((1.0, 1.0))
MIX2 = AnisotropyProfile((1.0, 2.0))
ISO3 = AnisotropyProfile((2.0, 2.0, 2.0))
PROFILES = [ISO2, MIX2, ISO3]


class TestComputeL:
    def test_examples(self):
        assert compute_l([1, 1], 2) == 3
        assert compute_l([1, 2], 2) == 3
        assert compute_l([2, 2, 2], 3) == 2

    def test_minimality(self):
        for prof in PROFILES:
            l = prof.l
            assert all(l * a > prof.d for a in prof.alpha)
            assert any((l - 1) * a <= prof.d for a in prof.alpha)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            compute_l([1.0, -0.5], 2)
        with pytest.raises(DomainError):
            AnisotropyProfile((0.0, 1.0))

    @pytest.mark.parametrize("tiny", [1e-308, 5e-324])
    def test_rejects_alpha_whose_l_overflows(self, tiny):
        # d / alpha_k is infinite, so no integer l exists
        with pytest.raises(DomainError, match=repr(tiny)):
            compute_l([tiny, 1.0], 2)


class TestQuasiNorm:
    def test_on_P_is_one(self):
        for prof in PROFILES:
            for pt in mesh_P(prof, 16)[0]:
                assert abs(quasi_norm(pt, prof) - 1.0) <= 1e-10

    def test_zero(self):
        assert quasi_norm(np.zeros(2), ISO2) == 0.0

    def test_fibre_scaling(self):
        xi = project_to_P(np.array([0.3, -0.7]), MIX2)
        for t in (0.1, 1.0, 50.0):
            eta = fibre_point(xi, t, MIX2)
            assert abs(quasi_norm(eta, MIX2) - t ** (1.0 / MIX2.l)) <= 1e-10 * max(1, t)


class TestProjection:
    def test_idempotent(self):
        for prof in PROFILES:
            v = np.array([0.4, -1.3, 0.8][:prof.d])
            p = project_to_P(v, prof)
            q = project_to_P(p, prof)
            assert np.max(np.abs(p - q)) <= 1e-12
            assert abs(constraint_sum(p, prof) - 1.0) <= 1e-12

    def test_3_4_closed_form(self):
        # oracle: direct formula, sum = 3^3 + 4^3 = 91,
        # components (3, 4) / 91^(1/3)
        p = project_to_P(np.array([3.0, 4.0]), ISO2)
        s = 91.0 ** (1.0 / 3.0)
        assert np.max(np.abs(p - np.array([3.0 / s, 4.0 / s]))) <= 1e-12
        assert abs(p[0] - 0.6670) <= 1e-4
        assert abs(p[1] - 0.8893) <= 1e-4
        assert abs(abs(p[0]) ** 3 + abs(p[1]) ** 3 - 1.0) <= 1e-12

    def test_sign_preserved(self):
        p = project_to_P(np.array([-3.0, 4.0]), ISO2)
        assert p[0] < 0 < p[1]

    def test_origin_raises(self):
        with pytest.raises(SingularPointError):
            project_to_P(np.zeros(2), ISO2)

    @pytest.mark.parametrize("prof", [ISO2, MIX2])
    def test_subnormal_constraint_sum_raises(self, prof):
        # the sum of [1e-107, 0] is subnormal: dividing by its root once
        # gave 1.00066, whose sum is 1.002, off P
        xi = np.array([[3.0, 4.0], [1e-107, 0.0]])
        assert 0 < constraint_sum(xi[1], prof) < sys.float_info.min
        with pytest.raises(DomainError, match="subnormal") as info:
            project_to_P(xi, prof)
        assert not isinstance(info.value, SingularPointError)
        # a sum just above the smallest normal float still projects onto P
        q = project_to_P([(2 * sys.float_info.min) ** (1 / prof.exponents[0]), 0.0],
                         prof)
        assert abs(constraint_sum(q, prof) - 1.0) <= 1e-12

    def test_lattice_variant_maps_origin_to_zero(self):
        out = project_lattice(np.array([[0.0, 0.0], [1.0, 1.0]]), ISO2)
        assert np.all(out[0] == 0)
        assert abs(constraint_sum(out[1], ISO2) - 1.0) <= 1e-12

    def test_fibre_invariance(self):
        for prof in PROFILES:
            base = project_to_P(np.arange(1.0, prof.d + 1), prof)
            for t in (1e-2, 1.0, 1e3):
                back = project_to_P(fibre_point(base, t, prof), prof)
                assert np.max(np.abs(back - base)) <= 1e-9

    def test_anisotropic_dilation_invariance(self):
        for prof in PROFILES:
            xi = np.array([0.7, -1.1, 0.4][:prof.d])
            p0 = project_to_P(xi, prof)
            for lam in (0.01, 3.7, 250.0):
                scaled = xi * lam ** (1.0 / np.asarray(prof.alpha))
                assert np.max(np.abs(project_to_P(scaled, prof) - p0)) <= 1e-10

    def test_isotropic_collinearity(self):
        xi = np.array([2.0, -1.0])
        p = project_to_P(xi, ISO2)
        cross = p[0] * xi[1] - p[1] * xi[0]
        assert abs(cross) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50).filter(lambda v: abs(v) > 1e-3),
                    min_size=2, max_size=2),
           st.floats(1e-2, 1e3))
    def test_dilation_invariance_property(self, xi, lam):
        xi = np.asarray(xi)
        p0 = project_to_P(xi, MIX2)
        scaled = xi * lam ** (1.0 / np.asarray(MIX2.alpha))
        assert np.max(np.abs(project_to_P(scaled, MIX2) - p0)) <= 1e-9


class TestFibre:
    def test_t_one_identity(self):
        p = project_to_P(np.array([1.0, 2.0]), ISO2)
        assert np.array_equal(fibre_point(p, 1.0, ISO2), p)

    def test_isotropic_cube_scaling(self):
        p = project_to_P(np.array([1.0, 2.0]), ISO2)  # l = 3
        eta = fibre_point(p, 8.0, ISO2)
        assert np.max(np.abs(eta - 2.0 * p)) <= 1e-12

    def test_nonpositive_t(self):
        p = project_to_P(np.array([1.0, 1.0]), ISO2)
        with pytest.raises(DomainError):
            fibre_point(p, 0.0, ISO2)


class TestMesh:
    def test_constraint_and_weights(self):
        for prof in PROFILES:
            pts, w = mesh_P(prof, 16)
            assert pts.shape == (len(w), prof.d)
            for p, wt in zip(pts, w):
                assert abs(constraint_sum(p, prof) - 1.0) <= 1e-10
                assert wt > 0

    def test_d2_angle_count(self):
        pts, w = mesh_P(ISO2, 24)
        assert len(pts) == 24
        total = sum(w)
        assert abs(total - 2 * np.pi) <= 1e-12

    def test_isotropic_matches_closed_form(self):
        # oracle: project each circle angle through the closed-form map
        pts, _ = mesh_P(ISO2, 8)
        for j, p in enumerate(pts):
            ang = 2 * np.pi * j / 8
            v = np.array([np.cos(ang), np.sin(ang)])
            s = (np.abs(v) ** 3).sum() ** (1.0 / 3.0)
            assert np.max(np.abs(p - v / s)) <= 1e-12

    def test_covers_both_signs(self):
        pts, _ = mesh_P(ISO3, 8)
        for k in range(3):
            assert pts[:, k].min() < 0 < pts[:, k].max()

    def test_low_resolution_rejected(self):
        with pytest.raises(DomainError):
            mesh_P(ISO2, 4)
