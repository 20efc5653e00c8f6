"""Records are immutable named tuples: repr, ordering, equality and the
certificate round trips keep their meaning."""

import json

import pytest

from surfbound.bounds import (GENUS, DischargeReport, GenusCertificate, bound_constants,
                              certify_genus, discharge_prime, verify_genus_certificate)
from surfbound.covers import (
    COVER,
    HomologyAction,
    build_cover,
    case_by_label,
    case_certificate,
    homology_action,
    kernel_presentation,
    verify_cover_certificate,
)
from surfbound.groups import construct
from surfbound.signatures import (BoundConstants, MeasureClass, Signature, SignatureTableEntry,
                                  measure_class)
from surfbound.ske import (SKE, Schema, SkeCertificate, dihedral_witness_ske, read, replay,
                           search_ske, verify_certificate, verify_ske)


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
            (measure_class(Signature(0, (2, 3, 7))), "s_over_r"),
            (ske, "kernel_genus"),
            (pres, "relation_rows"),
            (homology_action(pres, 3), "dim"),
            (build_cover(case_certificate(case_by_label("d")), 5), "prime"),
            (bound_constants(), "s_max"),
            (bound_constants(), "primes"),
            (certify_genus(24), "bound"),
            (certify_genus(24), "discharge"),
            (certify_genus(24), "attained"),
            (discharge_prime(23), "complete"),
            (discharge_prime(23).entries[0], "method"),
        ]
        for record, name in records:
            # setattr on a named tuple fails for any name, so a name the
            # record lacks would pass below without this check
            assert (name in record._fields
                    or isinstance(getattr(type(record), name, None), property)), name
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_records_store_their_inputs_and_what_costs_a_rebuild(self):
        # every other value a record shows is a property of these fields,
        # each listed in test_fields_are_read_only
        fields = {
            GenusCertificate: ("genus", "witnesses"),
            DischargeReport: ("prime", "bounds", "entries"),
            HomologyAction: ("presentation", "prime", "matrices", "cocycles"),
            SignatureTableEntry: ("signature", "sr_pair", "arithmeticity_flag"),
            MeasureClass: ("mu_over_pi",),
            BoundConstants: ("r_lcm", "s_ranking", "table_size"),
        }
        for record, names in fields.items():
            assert record._fields == names, record.__name__
        assert sum(len(names) for names in fields.values()) == 16

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
            data = through_json(cert.to_dict())
            back = replay(verify_certificate, SkeCertificate.from_dict(data), data)
            assert back == cert
            assert back.to_dict() == cert.to_dict()

    @pytest.mark.parametrize("label, p", [("a", 17), ("d", 5), ("g", 7)])
    def test_cover(self, label, p):
        cover = build_cover(case_certificate(case_by_label(label)), p)
        data = through_json(cover.to_dict())
        back = replay(verify_cover_certificate, read(COVER, data), data)
        assert back == cover
        assert back.to_dict() == cover.to_dict()

    @pytest.mark.parametrize("genus", [16, 22, 24])
    def test_genus(self, genus):
        cert = certify_genus(genus)
        data = through_json(cert.to_dict())
        back = replay(verify_genus_certificate, read(GENUS, data), data)
        assert back == cert
        assert back.to_dict() == cert.to_dict()


def undeclared(kind, value, path="", seen=None):
    """Where value, as to_dict() printed it, has other keys than its schema
    kind declares, at every depth; seen collects the paths of the records."""
    if type(kind) is tuple:
        kind = None if value is None else kind[1]
    if isinstance(kind, list):
        return [d for i, v in enumerate(value) for d in undeclared(kind[0], v, f"{path}[{i}]", seen)]
    if not isinstance(kind, Schema):
        return []
    seen.append(path)
    assert not kind.inputs.keys() & kind.derived.keys()
    declared = {*kind.inputs, *kind.derived, *(["type"] if kind.tag else [])}
    found = [] if declared == set(value) else [(path, sorted(declared ^ set(value)))]
    keys = {**kind.inputs, **kind.derived}
    return found + [d for key in keys for d in undeclared(keys[key], value[key],
                                                          f"{path}.{key}", seen)]


class TestSchemas:
    @staticmethod
    def printed(name):
        if name == "search":
            sig, group = Signature(0, (2, 3, 8)), construct("GL23")
            return SKE, verify_ske(sig, group, search_ske(sig, group))
        if name == "cover":
            return COVER, build_cover(case_certificate(case_by_label("g")), 7)
        return GENUS, certify_genus(int(name))

    @pytest.mark.parametrize("name", ["search", "cover", "22", "24"])
    def test_schema_declares_every_key_printed(self, name):
        schema, record = self.printed(name)
        seen = []
        assert undeclared(schema, record.to_dict(), seen=seen) == []
        # genus 24 carries the ledger, so its entries are walked too
        assert (".discharge.entries[0]" in seen) == (name == "24")
