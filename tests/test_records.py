"""Records are immutable named tuples: repr, ordering, equality and the
certificate round trips keep their meaning."""

import json

import pytest

from surfbound.bounds import GenusCertificate, bound_constants, certify_genus
from surfbound.covers import (
    CoverCertificate,
    build_cover,
    case_by_label,
    case_certificate,
    homology_action,
    kernel_presentation,
)
from surfbound.groups import construct
from surfbound.signatures import Signature, measure_class
from surfbound.ske import SkeCertificate, dihedral_witness_ske, search_ske, verify_ske


def through_json(data):
    return json.loads(json.dumps(data, sort_keys=True))


class TestSignatureRecord:
    def test_repr(self):
        assert repr(Signature(0, (7, 3, 2))) == "Signature(genus=0, periods=(2, 3, 7))"

    def test_sorts_by_genus_then_periods(self):
        sigs = [Signature(1, (2,)), Signature(0, (3, 3, 4)), Signature(2, ()),
                Signature(0, (2, 3, 8)), Signature(0, (2, 3, 7)), Signature(0, (2, 2, 2, 3))]
        assert sorted(sigs) == sorted(sigs, key=lambda s: (s.genus, s.periods))
        assert [str(s) for s in sorted(sigs)] == [
            "(2,2,2,3)", "(2,3,7)", "(2,3,8)", "(3,3,4)", "(1;2)", "(2;)"]

    def test_equal_and_hash_by_fields(self):
        a, b = Signature(0, (7, 2, 3)), Signature(0, [3, 7, 2])
        assert a == b
        assert hash(a) == hash(b) == hash((0, (2, 3, 7)))
        assert len({a, b}) == 1

    def test_fields_are_read_only(self):
        sig = Signature(0, (2, 3, 7))
        with pytest.raises(AttributeError):
            sig.genus = 1
        with pytest.raises(AttributeError):
            sig.periods = (2, 3, 8)
        with pytest.raises(AttributeError):
            sig.extra = 1

    def test_bool_genus_rejected(self):
        with pytest.raises(TypeError, match="genus must be an integer"):
            Signature(True, ())

    def test_keyword_construction_validates(self):
        assert Signature(genus=1, periods=(3, 2)).periods == (2, 3)
        with pytest.raises(ValueError, match="periods"):
            Signature(genus=0, periods=(1, 2))


class TestOtherRecords:
    def test_fields_are_read_only(self):
        ske = dihedral_witness_ske(5)
        pres = kernel_presentation(ske)
        records = [
            (measure_class(Signature(0, (2, 3, 7))), "q"),
            (ske, "kernel_genus"),
            (pres, "homology_dim"),
            (homology_action(pres, 3), "dim"),
            (build_cover(case_certificate(case_by_label("d")), 5), "prime"),
            (bound_constants(), "s_max"),
            (certify_genus(24), "bound"),
        ]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_default_verifier_version(self):
        cert = dihedral_witness_ske(3)
        assert cert.verifier_version == "1"
        assert cert == cert._replace(verifier_version="1")
        assert cert != cert._replace(verifier_version="2")


class TestCertificateRoundTrips:
    def test_ske(self):
        group = construct("A6")
        sig = Signature(0, (3, 3, 4))
        for cert in (dihedral_witness_ske(24),
                     verify_ske(sig, group, search_ske(sig, group))):
            back = SkeCertificate.from_dict(through_json(cert.to_dict()))
            assert back == cert
            assert back.to_dict() == cert.to_dict()

    @pytest.mark.parametrize("label, p", [("a", 17), ("d", 5), ("g", 7)])
    def test_cover(self, label, p):
        cover = build_cover(case_certificate(case_by_label(label)), p)
        back = CoverCertificate.from_dict(through_json(cover.to_dict()))
        assert back == cover
        assert back.to_dict() == cover.to_dict()

    @pytest.mark.parametrize("genus", [16, 22, 24])
    def test_genus(self, genus):
        cert = certify_genus(genus)
        back = GenusCertificate.from_dict(through_json(cert.to_dict()))
        assert back == cert
        assert back.to_dict() == cert.to_dict()
