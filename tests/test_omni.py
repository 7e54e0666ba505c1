import pytest

from absorbkit.errors import DivisibilityError
from absorbkit.hypercore import Hypergraph, decomposition_valid
from absorbkit.omni import (OmniAbsorberCertificate, omni_1d, omni_small,
                            read_certificate, refinedness, verify_omni,
                            write_certificate)


def one_uniform(m):
    return Hypergraph(m, 1, [(i,) for i in range(m)])


def two_triangles():
    return Hypergraph(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


class TestOmni1d:
    def test_m3_empty_L(self):
        cert = omni_1d(one_uniform(3), 3)
        blocks = cert.decompose(Hypergraph(3, 1, []))
        assert len(blocks) == 3
        covered = sorted(v for b in blocks for v in b)
        assert covered == list(range(3, 12))

    def test_m3_full_L(self):
        X = one_uniform(3)
        cert = omni_1d(X, 3)
        blocks = cert.decompose(X)
        assert len(blocks) == 4
        assert decomposition_valid(cert.target_for(X), blocks, 3)

    def test_m6_exhaustive_22(self):
        cert = omni_1d(one_uniform(6), 3)
        report = verify_omni(cert, mode="exhaustive")
        assert report["checked"] == 22
        assert report["failures"] == []

    def test_m6_refinedness_at_most_2q(self):
        cert = omni_1d(one_uniform(6), 3)
        assert refinedness(cert) <= 6

    def test_indivisible_L_rejected(self):
        X = one_uniform(6)
        cert = omni_1d(X, 3)
        L = Hypergraph(6, 1, [(0,), (1,)])
        with pytest.raises(DivisibilityError):
            cert.decompose(L)

    def test_x_and_a_edge_disjoint(self):
        cert = omni_1d(one_uniform(4), 2)
        assert not set(cert.X.edges) & set(cert.A.edges)

    def test_corrupted_family_reported(self):
        cert = omni_1d(one_uniform(3), 3)
        used = cert.decompose(Hypergraph(3, 1, []))[0]
        fam = tuple(c for c in cert.family if c != used)
        cert2 = OmniAbsorberCertificate(
            X=cert.X, A=cert.A, family=fam, q=cert.q, C=cert.C,
            kind=cert.kind, decompose=cert.decompose, meta=cert.meta)
        report = verify_omni(cert2, mode="exhaustive")
        assert report["failures"], "removing a used family clique must break some L"


class TestOmniSmall:
    def test_single_triangle(self):
        X = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])
        cert = omni_small(X, 3)
        report = verify_omni(cert, mode="exhaustive")
        assert report["checked"] == 2
        assert report["failures"] == []

    def test_two_triangles_all_four(self):
        cert = omni_small(two_triangles(), 3)
        report = verify_omni(cert, mode="exhaustive")
        assert report["checked"] == 4
        assert report["failures"] == []

    def test_empty_X(self):
        cert = omni_small(Hypergraph(4, 2), 3)
        assert cert.A.m == 0
        report = verify_omni(cert, mode="exhaustive")
        assert report["checked"] == 1 and not report["failures"]

    def test_sampled_mode(self):
        cert = omni_small(two_triangles(), 3)
        report = verify_omni(cert, mode="sample", trials=100, seed=5)
        assert not report["failures"]

    def test_refinedness_recorded(self):
        cert = omni_small(two_triangles(), 3)
        assert cert.meta["refinedness"] == refinedness(cert)
        assert refinedness(cert) <= cert.meta["divisible_subgraphs"]

    def test_x_and_a_edge_disjoint(self):
        cert = omni_small(two_triangles(), 3)
        assert not set(cert.X.edges) & set(cert.A.edges)


class TestCertificateFiles:
    def test_round_trip_1d(self, tmp_path):
        cert = omni_1d(one_uniform(4), 3)
        write_certificate(cert, str(tmp_path / "cert"))
        back = read_certificate(str(tmp_path / "cert"))
        assert back.family == cert.family
        assert back.A == cert.A

    def test_round_trip_small(self, tmp_path):
        cert = omni_small(two_triangles(), 3)
        write_certificate(cert, str(tmp_path / "cert"))
        back = read_certificate(str(tmp_path / "cert"))
        assert back.family == cert.family
        assert verify_omni(back)["failures"] == []
