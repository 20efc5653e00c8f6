import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time

import pytest

import surfbound
from surfbound import bounds, covers, signatures
from surfbound.cli import MAX_NESTING, build_parser, main


# a HOSTILE_* value that deletes the key instead of setting it
DELETE = object()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestTable:
    def test_human_output(self, capsys):
        code, out, err = run(capsys, "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 74
        assert any("(2,3,7)" in line and "84(g-1)" in line for line in lines)

    def test_json_rows(self, capsys):
        code, data, _ = run_json(capsys, "table", "--json")
        assert code == 0
        assert data["schema_version"] == "1"
        assert len(data["rows"]) == 74
        first = data["rows"][0]
        assert set(first) == {"signature", "genus", "periods", "bound_ratio", "flag"}
        ratios = {r["signature"]: r["bound_ratio"] for r in data["rows"]}
        assert ratios["(2,3,7)"] == "84"
        assert ratios["(2,3,11)"] == "132/5"

    def test_check_flag(self, capsys):
        code, out, _ = run(capsys, "table", "--check")
        assert code == 0
        assert "74 signatures verified" in out

    def test_check_flag_json(self, capsys):
        code, data, _ = run_json(capsys, "table", "--check", "--json")
        assert code == 0
        assert data["checked"] == 74
        assert data["consistent"] is True

    @staticmethod
    def serve_table(monkeypatch, text):
        # the packaged table as if its file held text, also to bounds, which
        # imports it by name
        def table():
            return signatures._parse_table(text, "table.txt")

        monkeypatch.setattr(signatures, "signature_table", table)
        monkeypatch.setattr(bounds, "signature_table", table)

    def test_corrupt_data_file_exits_1(self, capsys, monkeypatch):
        self.serve_table(monkeypatch, "2 3 7 | 1/21 | 84 | verified-by-literature\nnot a row\n")
        code, _, err = run(capsys, "table")
        assert code == 1
        assert "not a row" in err

    def test_wrong_stated_measure_exits_1(self, capsys, monkeypatch):
        self.serve_table(monkeypatch, "2 3 7 | 1/20 | 84 | verified-by-literature\n")
        code, _, err = run(capsys, "table")
        assert code == 1
        assert "recomputed 1/21" in err

    @pytest.mark.parametrize("argv", [("table",), ("table", "--check", "--json"),
                                      ("constants",), ("attained", "--max", "30"),
                                      ("certify", "--genus", "24")])
    def test_every_reader_of_a_corrupt_table_exits_1(self, capsys, monkeypatch, argv):
        # one line and no traceback, whichever command reads the table
        self.serve_table(monkeypatch, "2 3 7 | 1/20 | 84 | verified-by-literature\n")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("table data corrupt: table.txt:1: row (2,3,7) states measure 1/20*pi,"
                       " recomputed 1/21*pi\n")

    def test_corrupt_table_fails_verify_not_the_certificate(self, capsys, monkeypatch,
                                                            tmp_path):
        # an honest certificate, written before the table went bad: the
        # verifier's data is at fault, so ske verify reports it as every
        # other reader of the table does
        path = tmp_path / "genus24.json"
        code, out, _ = run(capsys, "certify", "--genus", "24", "--json")
        assert code == 0
        path.write_text(out)
        self.serve_table(monkeypatch, "2 3 7 | 1/20 | 84 | verified-by-literature\n")
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert (code, out) == (1, "")
        assert err == ("table data corrupt: table.txt:1: row (2,3,7) states measure 1/20*pi,"
                       " recomputed 1/21*pi\n")

    def test_unreadable_data_file_exits_1(self, capsys, monkeypatch, tmp_path):
        # the packaged read itself fails: a table that cannot be read is as
        # unusable as one that fails its check
        import importlib.resources

        monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
        signatures.signature_table.cache_clear()
        code, out, err = run(capsys, "table", "--check")
        assert (code, out) == (1, "")
        missing = tmp_path / "signature_table.txt"
        assert err == ("table data corrupt: cannot read signature_table.txt: [Errno 2]"
                       f" No such file or directory: '{missing}'\n")


class TestMeasure:
    def test_hurwitz_signature(self, capsys):
        code, out, _ = run(capsys, "measure", "2,3,7", "--order", "84")
        assert code == 0
        assert "pi/21" in out
        assert "84(g-1)" in out
        assert "kernel genus   2 at order 84" in out

    def test_json(self, capsys):
        code, data, _ = run_json(capsys, "measure", "g1p2", "--json")
        assert code == 0
        assert data["signature"] == "(1;2)"
        assert data["measure"] == "pi"
        assert data["bound_ratio"] == "4"

    def test_abelianization_line(self, capsys):
        code, out, _ = run(capsys, "measure", "2,3,8")
        assert code == 0
        assert "abelianized    C2" in out

    def test_free_part_is_one_power(self, capsys):
        code, out, _ = run(capsys, "measure", "g2p2,2")
        assert code == 0
        assert "abelianized    Z^4 x C2" in out

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_huge_genus_is_an_answer(self, capsys, json_flag):
        # nothing of size 2g is built: neither a relation row nor a text line
        start = time.perf_counter()
        code, out, _ = run(capsys, "measure", "g99999999999999999", *json_flag)
        assert time.perf_counter() - start < 1
        assert code == 0
        if json_flag:
            assert json.loads(out)["abelianization"] == {"free_rank": 199999999999999998,
                                                         "torsion": []}
        else:
            assert "abelianized    Z^199999999999999998\n" in out

    def test_inadmissible_exits_2(self, capsys):
        code, out, err = run(capsys, "measure", "2,3")
        assert code == 2
        assert "not admissible" in err

    def test_nonintegral_kernel_genus_is_an_answer(self, capsys):
        # order 85 admits no torsion-free kernel under (2,3,7); saying so
        # is a successful computation, not a failure
        code, out, _ = run(capsys, "measure", "2,3,7", "--order", "85")
        assert code == 0
        assert "kernel genus   none at order 85" in out

    def test_nonintegral_kernel_genus_json(self, capsys):
        code, data, _ = run_json(capsys, "measure", "2,3,7",
                                 "--order", "85", "--json")
        assert code == 0
        assert data["kernel_genus"]["genus"] is None
        assert "not an integer" in data["kernel_genus"]["reason"]

    def test_bad_signature_exits_2(self, capsys):
        code, _, err = run(capsys, "measure", "frogs")
        assert code == 2
        assert "bad signature" in err

    def test_refused_signature_is_named_once(self, capsys):
        # the refusal names the text once and shows the accepted forms
        code, out, err = run(capsys, "measure", "x")
        assert (code, out) == (2, "")
        assert err.count("'x'") == 1
        assert all(form in err for form in ("2,3,7", "g1p2,2", "g2"))


class TestConstants:
    def test_values(self, capsys):
        code, data, _ = run_json(capsys, "constants", "--json")
        assert code == 0
        assert data["s_max"] == 84
        assert data["r_lcm"] == 210
        assert data["primes"] == [2, 3, 5, 7]
        assert data["s_ranking"][:9] == [84, 48, 40, 36, 30, 24, 24, 24, 21]
        assert data["table_rows"] == 74

    def test_byte_identical_across_runs(self, capsys):
        _, out1, _ = run(capsys, "constants", "--json")
        _, out2, _ = run(capsys, "constants", "--json")
        assert out1 == out2

    def test_keys_sorted(self, capsys):
        _, out, _ = run(capsys, "constants", "--json")
        keys = list(json.loads(out))
        assert keys == sorted(keys)


class TestSkeSearch:
    def test_count_mode(self, capsys):
        code, data, _ = run_json(capsys, "ske", "search", "--signature",
                                 "2,2,2,3", "--group", "dihedral:6",
                                 "--mode", "count", "--json")
        assert code == 0
        assert data["count"] == 36

    def test_first_mode_finds(self, capsys):
        code, data, _ = run_json(capsys, "ske", "search", "--signature",
                                 "2,3,8", "--group", "GL23", "--json")
        assert code == 0
        assert data["found"] is True
        cert = data["certificate"]
        assert cert["type"] == "ske"
        assert cert["group_order"] == 48
        assert cert["kernel_genus"] == 2

    def test_empty_search_is_none_exit_0(self, capsys):
        # exhausting the tree without a hit proves non-existence; that is
        # the answer the command was asked for
        code, out, _ = run(capsys, "ske", "search", "--signature", "2,3,12",
                           "--group", "C24", "--mode", "count")
        assert code == 0
        assert "none" in out

    def test_empty_search_json_shape(self, capsys):
        code, data, _ = run_json(capsys, "ske", "search", "--signature",
                                 "2,3,12", "--group", "C24",
                                 "--mode", "count", "--json")
        assert code == 0
        assert data["found"] is False
        assert data["count"] == 0

    def test_genus1_signature_none(self, capsys):
        code, out, _ = run(capsys, "ske", "search", "--signature", "g1p2",
                           "--group", "klein_four")
        assert code == 0
        assert out.strip() == "none"

    def test_all_mode_is_a_usage_error(self, capsys):
        # the search answers first (a witness) and count [--dedup] only
        with pytest.raises(SystemExit) as exc:
            main(["ske", "search", "--signature", "2,2,2,3", "--group", "dihedral:6",
                  "--mode", "all"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'all'" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", [(), ("--mode", "first")], ids=["default", "first"])
    def test_dedup_without_count_exits_2(self, capsys, mode):
        # --dedup changes only a count; a witness search would print
        # "dedup": true for a flag that did nothing
        code, out, err = run(capsys, "ske", "search", "--signature", "2,2,2,3",
                             "--group", "dihedral:6", *mode, "--dedup", "--json")
        assert (code, out, err) == (2, "", "error: --dedup only applies with --mode count\n")

    def test_impossible_order_is_none_exit_0(self, capsys):
        # (2,3,7) over order 12 gives a fractional kernel genus, which
        # already proves no epimorphism exists
        code, out, _ = run(capsys, "ske", "search", "--signature", "2,3,7",
                           "--group", "D6")
        assert code == 0
        assert "none" in out
        assert "not an integer" in out

    def test_inadmissible_signature_exits_2(self, capsys):
        code, _, err = run(capsys, "ske", "search", "--signature", "2,3",
                           "--group", "D6")
        assert code == 2
        assert "not admissible" in err

    def test_nonintegral_genus_reason_in_full(self, capsys):
        code, data, _ = run_json(capsys, "ske", "search", "--signature", "2,3,7",
                                 "--group", "C5", "--json")
        assert code == 0
        assert data["found"] is False
        assert data["reason"] == "index 5 on (2,3,7) gives genus 89/84, not an integer"

    @pytest.mark.parametrize("sig, measure", [("2,3,6", "0"), ("2,3", "-5/3")])
    def test_inadmissible_message_in_full(self, capsys, sig, measure):
        code, out, err = run(capsys, "ske", "search", "--signature", sig,
                             "--group", "C6")
        assert (code, out) == (2, "")
        assert err == (f"error: not admissible: signature ({sig}) has measure "
                       f"{measure}*pi <= 0\n")

    def test_bad_group_exits_2(self, capsys):
        code, _, err = run(capsys, "ske", "search", "--signature", "2,3,8",
                           "--group", "XYZ")
        assert code == 2
        assert "bad group descriptor" in err

    @pytest.mark.parametrize("group,factor", [("cyclic:5*C2", "cyclic:5"),
                                              ("C2*dihedral:3", "dihedral:3")])
    def test_non_permutation_product_exits_2(self, capsys, group, factor):
        code, out, err = run(capsys, "ske", "search", "--signature", "2,2,2,2,2",
                             "--group", group)
        assert code == 2
        assert f"factor '{factor}' is not a permutation group" in err
        assert out == ""


class TestSkeVerify:
    def _cert_file(self, capsys, tmp_path, *argv):
        _, data, _ = run_json(capsys, *argv)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data["certificate"]))
        return path

    def test_round_trip(self, capsys, tmp_path):
        path = self._cert_file(capsys, tmp_path, "ske", "search",
                               "--signature", "2,3,8", "--group", "GL23",
                               "--json")
        code, out, _ = run(capsys, "ske", "verify", str(path))
        assert code == 0
        assert "certificate ok" in out

    @staticmethod
    def _cyclic(n):
        """The certificate of (0; n, n, n) -> cyclic:n, images 1, 1, n - 2."""
        return {"type": "ske", "verifier_version": "1",
                "signature": {"genus": 0, "periods": [n, n, n]},
                "group": f"cyclic:{n}", "group_order": n,
                "images": [1, 1, n - 2], "kernel_genus": 1 + (n - 3) // 2}

    def test_astronomical_cyclic_certificate_replays(self, capsys, tmp_path):
        # N = 10**20 + 1 replays in O(1) arithmetic per step, never writing
        # the powers c_j^N out
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(self._cyclic(10**20 + 1)))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert (code, err) == (0, "")
        assert "certificate ok" in out

    def test_cap_hit_in_replay_exits_3(self, capsys, tmp_path):
        # the base replays alone, but the cover's homology action enumerates
        # its group, past the order cap: a resource cap, not a refusal
        _, data, _ = run_json(capsys, "cover", "--case", "g", "--prime", "7", "--json")
        doc = dict(data["cover"], base=self._cyclic(10**12 + 1))
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert (code, out) == (3, "")
        assert err == "resource cap: cyclic:1000000000001 exceeds order cap 1000000\n"

    def test_every_nesting_depth_is_one_line(self, capsys, tmp_path):
        # a genus certificate's attained flag nested ever deeper: the
        # comparison refuses it (exit 1) up to the nesting bound, the reader
        # past it (exit 2), and the decoder at the recursion limit (exit 2)
        _, data, _ = run_json(capsys, "certify", "--genus", "2", "--json")
        head, tail = json.dumps(dict(data["certificate"], attained="@")).split('"@"')
        path = tmp_path / "deep.json"
        limit = sys.getrecursionlimit()
        for lists in range(1, limit + 1):
            path.write_text(head + "[" * lists + "]" * lists + tail)
            code, out, err = run(capsys, "ske", "verify", str(path))
            assert (out + err).count("\n") == 1 and "Traceback" not in err, (lists, out, err)
            # the certificate object is one level, each list another
            depth = 1 + lists
            if depth <= MAX_NESTING:
                assert code == 1 and out.startswith(
                    "verification failed: certificate states attained"), (lists, out)
            else:
                assert (code, out) == (2, "") and err.startswith("error: "), (lists, err)
            if depth == MAX_NESTING + 1:
                assert err == f"error: JSON nested {depth} levels deep, more than {MAX_NESTING}\n"
        assert err.startswith("error: not valid JSON: ") and "maximum recursion depth" in err

    def test_envelope_accepted(self, capsys, tmp_path):
        _, data, _ = run_json(capsys, "ske", "search", "--signature", "2,3,8",
                              "--group", "GL23", "--json")
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"schema_version": "1",
                                    "certificate": data["certificate"]}))
        code, _, _ = run(capsys, "ske", "verify", str(path))
        assert code == 0

    def test_tampered_exits_1(self, capsys, tmp_path):
        path = self._cert_file(capsys, tmp_path, "ske", "search",
                               "--signature", "2,3,8", "--group", "GL23",
                               "--json")
        doc = json.loads(path.read_text())
        doc["group_order"] = 96
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "ske", "verify", str(path))
        assert code == 1
        assert "verification failed" in out

    def test_genus_certificate(self, capsys, tmp_path):
        _, data, _ = run_json(capsys, "certify", "--genus", "5", "--json")
        path = tmp_path / "genus.json"
        path.write_text(json.dumps(data["certificate"]))
        code, out, _ = run(capsys, "ske", "verify", str(path))
        assert code == 0
        assert "genus 5: bound 24" in out

    def test_cover_certificate(self, capsys, tmp_path):
        _, data, _ = run_json(capsys, "cover", "--case", "g", "--prime", "3",
                              "--json")
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(data["cover"]))
        code, out, _ = run(capsys, "ske", "verify", str(path))
        assert code == 0
        assert "cover" in out and "genus 4" in out

    CERTIFY_14 = ("certify", "--genus", "14")
    CERTIFY_22 = ("certify", "--genus", "22")
    COVER_G7 = ("cover", "--case", "g", "--prime", "7")
    SEARCH_GL23 = ("ske", "search", "--signature", "2,3,8", "--group", "GL23")

    @pytest.mark.parametrize("argv", [
        CERTIFY_14,
        ("certify", "--genus", "24"),
        SEARCH_GL23,
        ("ske", "search", "--signature", "2,2,2,3", "--group", "dihedral:6", "--mode", "first"),
    ], ids=["certify-14", "certify-24", "search-GL23", "search-dihedral"])
    def test_honest_payload_verifies(self, capsys, monkeypatch, argv):
        _, out, _ = run(capsys, *argv, "--json")
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run(capsys, "ske", "verify", "-")
        assert code == 0 and out.startswith("certificate ok: ")

    # the command, the keys from its JSON output to the document fed back
    # (none for the whole output), the path of the key set there, its
    # value, and the refusal; each of these verified before the document
    # read was compared whole, envelope included
    NOT_REBUILT = {
        "top-level": (CERTIFY_14, ("certificate",), ("bound_upper",), 1092,
                      "bound_upper 1092, recomputed absent"),
        "witness-certificate": (CERTIFY_14, ("certificate",), ("witnesses", 1, "hurwitz"), True,
                                "witnesses[1].hurwitz true, recomputed absent"),
        "witness-detail": (CERTIFY_14, ("certificate",), ("witnesses", 1, "detail"),
                           {"case": "g", "primes": [13]},
                           'witnesses[1].detail {"case": "g", "primes": [13]}, recomputed absent'),
        "cover-base": (COVER_G7, ("cover",), ("base", "note"), "by hand",
                       'base.note "by hand", recomputed absent'),
        "envelope-exact": (CERTIFY_14, (), ("exact",), True, "exact true, recomputed absent"),
        "envelope-lower-bound-only": (CERTIFY_14, (), ("lower_bound_only",), False,
                                      "lower bound only False, recomputed True"),
        "search-group": (SEARCH_GL23, (), ("group",), "S4", "group 'S4', recomputed 'GL23'"),
        "search-dedup": (SEARCH_GL23, (), ("dedup",), True, "dedup True, recomputed False"),
        # a witness is its ske certificate: a route label, which witnesses
        # once carried unchecked, is a key no rebuild prints
        "route-int": (CERTIFY_22, ("certificate",), ("witnesses", 1, "route"), 1,
                      "witnesses[1].route 1, recomputed absent"),
        "route-empty": (CERTIFY_22, ("certificate",), ("witnesses", 1, "route"), "",
                        'witnesses[1].route "", recomputed absent'),
        "route-search": (CERTIFY_22, ("certificate",), ("witnesses", 1, "route"), "search",
                         'witnesses[1].route "search", recomputed absent'),
        "route-object": (CERTIFY_22, ("certificate",), ("witnesses", 1, "route"), {},
                         "witnesses[1].route {}, recomputed absent"),
    }

    @pytest.mark.parametrize("variant", sorted(NOT_REBUILT))
    def test_what_the_rebuild_lacks_exits_1(self, capsys, monkeypatch, variant):
        argv, fed, keys, value, refusal = self.NOT_REBUILT[variant]
        _, doc, _ = run_json(capsys, *argv, "--json")
        for key in fed:
            doc = doc[key]
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert run(capsys, "ske", "verify", "-") == (
            1, f"verification failed: certificate states {refusal}\n", "")

    def test_route_wrapped_witnesses_exit_2(self, capsys, monkeypatch):
        # certificates once wrapped each witness as {"route", "certificate"}
        # and left the route unchecked; such a document is now malformed
        _, doc, _ = run_json(capsys, "certify", "--genus", "3", "--json")
        witnesses = doc["certificate"]["witnesses"]
        routes = ("dihedral-family", "ske-search", "homology-cover")
        assert len(witnesses) == len(routes)
        doc["certificate"]["witnesses"] = [{"route": r, "certificate": w}
                                           for r, w in zip(routes, witnesses)]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert run(capsys, "ske", "verify", "-") == (
            2, "", "error: malformed certificate:"
                   " ValueError(\"witnesses[0].type must be 'ske', got None\")\n")

    def test_envelope_of_both_repros_names_the_added_key(self, capsys, monkeypatch):
        _, doc, _ = run_json(capsys, *self.CERTIFY_14, "--json")
        doc.update(lower_bound_only=False, exact=True)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert run(capsys, "ske", "verify", "-") == (
            1, "verification failed: certificate states exact true, recomputed absent\n", "")

    def test_replay_builds_each_witness_group_once(self, capsys, monkeypatch):
        # genus 22 has a dihedral witness and a degree-252 perm: witness;
        # the reader builds each group once, and the replay uses it
        from surfbound.groups import PermutationGroup

        _, out, _ = run(capsys, "certify", "--genus", "22", "--json")
        built = []
        init = PermutationGroup.__init__
        monkeypatch.setattr(PermutationGroup, "__init__",
                            lambda self, *a: built.append(a[2]) or init(self, *a))
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert run(capsys, "ske", "verify", "-") == (0, "certificate ok: genus 22: bound 252\n", "")
        assert [d.split(":")[:2] for d in built] == [["perm", "252"]]

    @staticmethod
    def count_calls(monkeypatch, records):
        # every call of check_recorded, wherever it is looked up, and of the
        # to_dict of each record class
        calls = []
        for name, module in list(sys.modules.items()):
            if name.startswith("surfbound") and hasattr(module, "check_recorded"):
                original = module.check_recorded
                monkeypatch.setattr(module, "check_recorded", lambda *a, original=original:
                                    calls.append("check_recorded") or original(*a))
        for record in records:
            original = record.to_dict
            monkeypatch.setattr(record, "to_dict", lambda self, record=record, original=original:
                                calls.append(record.__name__) or original(self))
        return calls

    @pytest.mark.parametrize("argv, fed, record, compared", [
        (("certify", "--genus", "22"), "certificate", "GenusCertificate", 1),
        (("cover", "--case", "g", "--prime", "7"), "cover", "CoverCertificate", 1),
        (("certify", "--genus", "22"), None, "GenusCertificate", 2),
    ], ids=["genus-bare", "cover-bare", "genus-enveloped"])
    def test_document_compared_once_with_its_rebuild(self, capsys, monkeypatch, argv, fed,
                                                     record, compared):
        # the reader decodes the inputs alone, so the rebuild is the one
        # record serialized and the document read is compared with it once;
        # an envelope adds one comparison, of its own keys
        _, doc, _ = run_json(capsys, *argv, "--json")
        doc = doc[fed] if fed else doc
        calls = self.count_calls(monkeypatch, [bounds.GenusCertificate, covers.CoverCertificate])
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, "ske", "verify", "-")
        assert code == 0 and out.startswith("certificate ok: ")
        assert sorted(calls) == sorted([record] + ["check_recorded"] * compared)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "ske", "verify", str(tmp_path / "none.json"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "ske", "verify", str(path))
        assert code == 2

    # bytes that are not UTF-8, an integer past the 4,300-digit limit, and
    # nesting past the recursion limit: each is not JSON Python can decode
    UNDECODABLE = {"not-utf8": b"\xff\xfe", "digit-limit": b"9" * 5000,
                   "deep-nesting": b"[" * 100000}

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("variant", sorted(UNDECODABLE))
    def test_undecodable_exits_2(self, capsys, tmp_path, monkeypatch, variant, source):
        data = self.UNDECODABLE[variant]
        if source == "file":
            path = tmp_path / "bad.json"
            path.write_bytes(data)
            arg = str(path)
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            arg = "-"
        code, out, err = run(capsys, "ske", "verify", arg)
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("inner", [[1], 5, None], ids=["list", "int", "null"])
    def test_wrapped_non_object_exits_2(self, capsys, tmp_path, inner):
        path = tmp_path / "wrapped.json"
        path.write_text(json.dumps({"certificate": inner}))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert out == "" and err == "error: certificate must be a JSON object\n"

    def test_unknown_type_exits_2(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"type": "warranty"}))
        code, _, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert "unknown certificate type" in err

    def test_missing_fields_exit_2(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"type": "ske", "signature": "2,3,8"}))
        code, _, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert "malformed" in err

    HOSTILE_COVERS = {
        # field, tampering, exit code, named defect
        "covector-too-long": ("covector", lambda v: v + [0], 1, "covector"),
        "covector-float": ("covector", lambda v: [float(x) for x in v], 2,
                           "covector[0] must be an integer"),
        "covector-string": ("covector", lambda v: [str(x) for x in v], 2,
                            "covector[0] must be an integer"),
        "prime-string": ("prime", lambda v: str(v), 2, "prime must be an integer"),
        "prime-float": ("prime", lambda v: float(v), 2, "prime must be an integer"),
        "genus-string": ("cover_genus", lambda v: str(v), 2, "cover_genus must be"),
        "base-list": ("base", lambda v: [v], 2, "JSON object"),
        "order-deleted": ("cover_group_order", DELETE, 2, "KeyError('cover_group_order')"),
    }

    @pytest.mark.parametrize("variant", sorted(HOSTILE_COVERS))
    def test_hostile_cover_field(self, capsys, tmp_path, variant):
        field, tamper, expected, defect = self.HOSTILE_COVERS[variant]
        _, data, _ = run_json(capsys, "cover", "--case", "d", "--prime", "5", "--json")
        doc = data["cover"]
        if tamper is DELETE:
            del doc[field]
        else:
            doc[field] = tamper(doc[field])
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == expected
        assert defect in (out if expected == 1 else err)

    def test_other_invariant_covector_exits_1(self, capsys, tmp_path):
        # [1,2,3,1] is invariant mod 7 too, but no command prints it: the
        # covector is derived, so only the least one verifies
        _, data, _ = run_json(capsys, "cover", "--case", "g", "--prime", "7", "--json")
        doc = data["cover"]
        assert doc["covector"] == [1, 1, 5, 3]
        doc["covector"] = [1, 2, 3, 1]
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert (code, err) == (1, "")
        assert out.startswith("verification failed: certificate states covector")

    @pytest.mark.parametrize("group", [5, ["C5"], None])
    def test_ske_group_not_a_string_exits_2(self, capsys, tmp_path, group):
        path = self._cert_file(capsys, tmp_path, "ske", "search",
                               "--signature", "2,3,8", "--group", "GL23", "--json")
        doc = json.loads(path.read_text())
        doc["group"] = group
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert "group must be a string" in err

    # the command each tampered ske certificate comes from, and the keys
    # that lead to it in the command's JSON output
    SKE_SOURCES = {
        "GL23": (("ske", "search", "--signature", "2,3,8", "--group", "GL23"),
                 ("certificate",)),
        "dihedral:6": (("certify", "--genus", "4"), ("certificate", "witnesses", 0)),
        "cyclic:8": (("cover", "--case", "a", "--prime", "2"), ("cover", "base")),
    }

    # source, field, value or function of the old value, exit code, named
    # defect; the dihedral images are [[1,1],[0,1],[2,1],[0,1],[3,0]], the
    # cyclic ones [4,1,3], so each element variant but the short one reads
    # as the original if bools pass as ints or extra entries are dropped
    HOSTILE_SKE = {
        "version-unknown": ("GL23", "verifier_version", "2", 1,
                            "unsupported verifier_version"),
        "version-int": ("GL23", "verifier_version", 1, 2,
                        "verifier_version must be a string"),
        "genus-string": ("GL23", "signature", {"genus": "0", "periods": [2, 3, 8]}, 2,
                         "genus must be an integer"),
        "genus-bool": ("GL23", "signature", {"genus": False, "periods": [2, 3, 8]}, 2,
                       "genus must be an integer"),
        "dihedral-short": ("dihedral:6", "images", lambda v: [[1]] + v[1:], 2,
                           "element [1] not in group 'dihedral:6'"),
        "dihedral-long": ("dihedral:6", "images", lambda v: [v[0] + [99]] + v[1:], 2,
                          "element [1, 1, 99] not in group 'dihedral:6'"),
        "dihedral-bool": ("dihedral:6", "images", lambda v: [[1, True]] + v[1:], 2,
                          "element [1, True] not in group 'dihedral:6'"),
        "cyclic-bool": ("cyclic:8", "images", lambda v: [v[0], True] + v[2:], 2,
                        "element True not in group 'cyclic:8'"),
        "cyclic-digits": ("cyclic:8", "group", f"cyclic:{'8' * 4300}", 2,
                          "malformed certificate: NotDecimal('n in cyclic:<n> has more"
                          " than 1000 digits')\n"),
        "perm-true": ("GL23", "images",
                      lambda v: [[True if e == 1 else e for e in v[0]]] + v[1:], 2,
                      "not in group 'GL23'"),
        "perm-false": ("GL23", "images",
                       lambda v: [[False if e == 0 else e for e in v[0]]] + v[1:], 2,
                       "not in group 'GL23'"),
        "kernel-genus-deleted": ("GL23", "kernel_genus", DELETE, 2,
                                 "malformed certificate: KeyError('kernel_genus')"),
    }

    @pytest.mark.parametrize("variant", sorted(HOSTILE_SKE))
    def test_hostile_ske_field(self, capsys, tmp_path, variant):
        source, field, value, expected, defect = self.HOSTILE_SKE[variant]
        argv, keys = self.SKE_SOURCES[source]
        _, doc, _ = run_json(capsys, *argv, "--json")
        for key in keys:
            doc = doc[key]
        assert doc["group"] == source
        if value is DELETE:
            del doc[field]
        else:
            doc[field] = value(doc[field]) if callable(value) else value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == expected
        assert defect in (out if expected == 1 else err)
        assert "Traceback" not in err

    # a command printing an ske certificate with distinct periods, and the
    # keys that lead to it in the command's JSON output
    @pytest.mark.parametrize("argv,keys", [
        (("ske", "search", "--signature", "2,3,8", "--group", "GL23"), ("certificate",)),
        (("cover", "--case", "a", "--prime", "2"), ("cover", "base")),
        (("certify", "--genus", "2"), ("certificate", "witnesses", 1)),
    ], ids=["ske", "cover-base", "genus-witness"])
    def test_periods_out_of_order_exit_2(self, capsys, tmp_path, argv, keys):
        # the images follow the periods in their stated order, so periods
        # read in another order would check each image against another period
        _, data, _ = run_json(capsys, *argv, "--json")
        node = data
        for key in keys:
            node = node[key]
        node["signature"]["periods"].reverse()
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data[keys[0]]))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert "malformed certificate" in err and "periods must be sorted" in err
        assert "Traceback" not in err and out == ""

    def test_cover_base_with_unknown_version_exits_1(self, capsys, tmp_path):
        _, data, _ = run_json(capsys, "cover", "--case", "d", "--prime", "5", "--json")
        doc = data["cover"]
        doc["base"]["verifier_version"] = "0"
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "ske", "verify", str(path))
        assert code == 1
        assert "unsupported verifier_version" in out

    def test_float_genus_certificate_exits_2(self, capsys, tmp_path):
        _, data, _ = run_json(capsys, "certify", "--genus", "24", "--json")
        doc = data["certificate"]
        doc["genus"] = 24.0
        path = tmp_path / "genus.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert "genus must be an integer" in err

    # genus, path to the tampered field, value (DELETE deletes the key),
    # named defect; an earlier reader read each ledger variant loosely and
    # printed "certificate ok"
    HOSTILE_GENUS = {
        "discharge-zero": (22, ("discharge",), 0, "malformed certificate"),
        "discharge-false": (22, ("discharge",), False, "malformed certificate"),
        "discharge-object": (22, ("discharge",), {}, "malformed certificate"),
        "covered-empty-string": (24, ("discharge", "entries", 0, "bounds_covered"), "",
                                 "bounds_covered must be a list"),
        "covered-object": (24, ("discharge", "entries", 0, "bounds_covered"), {},
                           "bounds_covered must be a list"),
        # derived keys the reader type-checks but does not decode
        "bound-deleted": (24, ("bound",), DELETE, "KeyError('bound')"),
        "attained-deleted": (24, ("attained",), DELETE, "KeyError('attained')"),
        "entry-ok-deleted": (24, ("discharge", "entries", 0, "ok"), DELETE,
                             "KeyError('discharge.entries[0].ok')"),
    }

    @pytest.mark.parametrize("variant", sorted(HOSTILE_GENUS))
    def test_hostile_genus_field_exits_2(self, capsys, tmp_path, variant):
        genus, keys, value, defect = self.HOSTILE_GENUS[variant]
        _, data, _ = run_json(capsys, "certify", "--genus", str(genus), "--json")
        doc = node = data["certificate"]
        for key in keys[:-1]:
            node = node[key]
        if value is DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        path = tmp_path / "genus.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert defect in err
        assert "Traceback" not in err and out == ""

    def test_non_canonical_perm_name_exits_1(self, capsys, monkeypatch):
        # a perm: group is named by its canonical descriptor, as klein_four
        # is named V4, so a name spelled otherwise is not the one rebuilt
        _, doc, _ = run_json(capsys, "ske", "search", "--signature", "2,2,3,3",
                             "--group", "perm:3:01,2,0:1,0,2", "--json")
        assert doc["group"] == doc["certificate"]["group"] == "perm:3:1,2,0:1,0,2"
        doc["certificate"]["group"] = "perm:3:01,2,0:1,0,2"
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc["certificate"])))
        assert run(capsys, "ske", "verify", "-") == (
            1, "verification failed: certificate states group 'perm:3:01,2,0:1,0,2',"
               " recomputed 'perm:3:1,2,0:1,0,2'\n", "")

    def test_non_permutation_product_certificate_exits_2(self, capsys, tmp_path):
        path = tmp_path / "product.json"
        path.write_text(json.dumps({
            "type": "ske", "verifier_version": "1",
            "signature": {"genus": 0, "periods": [2, 2, 2, 2, 2]},
            "group": "cyclic:5*C2", "group_order": 10,
            "images": [[0]] * 5, "kernel_genus": 0,
        }))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert "'cyclic:5' is not a permutation group" in err
        assert "Traceback" not in err and out == ""


class TestCover:
    def test_build_json(self, capsys):
        code, data, _ = run_json(capsys, "cover", "--case", "g", "--prime", "3",
                                 "--json")
        assert code == 0
        assert data["found"] is True
        assert data["cover"]["cover_genus"] == 4
        assert data["cover"]["cover_group_order"] == 36
        assert data["quotient"]["kernel_genus"] == 4

    def test_no_hyperplane_is_an_answer(self, capsys):
        # case b lifts at no odd prime; reporting that is a success
        code, out, _ = run(capsys, "cover", "--case", "b", "--prime", "3")
        assert code == 0
        assert "no invariant hyperplane" in out

    def test_no_hyperplane_json_shape(self, capsys):
        code, data, _ = run_json(capsys, "cover", "--case", "b", "--prime", "3",
                                 "--json")
        assert code == 0
        assert data["found"] is False
        assert "mod 3" in data["reason"]

    def test_unknown_case_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--case", "z", "--prime", "3")
        assert code == 2
        assert "unknown cover case" in err

    def test_nonprime_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--case", "a", "--prime", "9")
        assert code == 2
        assert "must be a prime" in err

    def test_missing_flags_exits_2(self, capsys):
        code, _, err = run(capsys, "cover")
        assert code == 2
        assert "need --case and --prime" in err

    def test_check_all_cases(self, capsys):
        code, data, _ = run_json(capsys, "cover", "--check", "--json")
        assert code == 0
        assert data["ok"] is True
        assert len(data["reports"]) == 7
        by_label = {r["case"]: r for r in data["reports"]}
        assert by_label["a"]["with_hyperplane"] == [2, 17]
        assert by_label["d"]["with_hyperplane"] == [5, 11]

    def test_check_filtered(self, capsys):
        code, data, _ = run_json(capsys, "cover", "--check", "--primes", "7,11,19", "--json")
        assert code == 0
        assert len(data["reports"]) == 7
        assert all(r["primes"] == [7, 11, 19] for r in data["reports"])
        assert data["reports"][5]["case"] == "f"
        assert data["reports"][5]["with_hyperplane"] == [7, 19]

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_check_repeated_primes(self, capsys, json_flag):
        repeated = run(capsys, "cover", "--check", "--primes", "2,2,3", *json_flag)
        assert repeated == run(capsys, "cover", "--check", "--primes", "2,3", *json_flag)
        assert repeated[0] == 0 and "2,2" not in repeated[1]

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_disagreeing_check_exits_1(self, capsys, monkeypatch, json_flag):
        # case b predicted to lift at 3 as well, where it has no hyperplane
        cases = list(covers.GENUS2_COVER_CASES)
        cases[1] = cases[1]._replace(lift_prime=3)
        monkeypatch.setattr(covers, "GENUS2_COVER_CASES", tuple(cases))
        code, out, err = run(capsys, "cover", "--check", "--primes", "2,3", *json_flag)
        assert (code, err) == (1, "")
        if json_flag:
            assert '"ok":false' in out
        else:
            assert "case b (4,4,4) -> Q8: lifts at 2 (DISAGREES WITH" in out
            assert out.count("DISAGREES WITH") == 1

    def test_check_with_case_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--check", "--case", "a",
                           "--prime", "2")
        assert code == 2
        assert "does not combine" in err

    def test_primes_without_check_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--case", "a", "--prime", "2",
                           "--primes", "2")
        assert (code, err) == (2, "error: --primes only applies with --check\n")

    def test_bad_primes_list_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--check", "--primes", "7,x")
        assert code == 2

    @pytest.mark.parametrize("primes", ["2,,3", "2,", ",2", ""])
    def test_empty_primes_entry_exits_2(self, capsys, primes):
        code, out, err = run(capsys, "cover", "--check", "--primes", primes)
        assert (code, out) == (2, "")
        assert err == f"error: expected comma separated integers, got {primes!r}\n"

    def test_nonprime_check_entry_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--check", "--primes", "6")
        assert code == 2
        assert "must be prime" in err

    # 7 mod 8 and 1 mod 6: a no for case a, a yes for case f, and far too
    # large for any loop over F_p
    LARGE_PRIME = 1000000000039

    def test_large_prime_without_hyperplane(self, capsys):
        code, out, _ = run(capsys, "cover", "--case", "a", "--prime", str(self.LARGE_PRIME))
        assert code == 0
        assert "no invariant hyperplane" in out

    def test_large_prime_check(self, capsys):
        code, data, _ = run_json(capsys, "cover", "--check",
                                 "--primes", str(self.LARGE_PRIME), "--json")
        assert code == 0
        assert data["ok"] is True
        lifted = {r["case"]: r["with_hyperplane"] for r in data["reports"]}
        assert (lifted["a"], lifted["b"], lifted["f"]) == ([], [], [self.LARGE_PRIME])

    def test_large_prime_extension_exits_3(self, capsys):
        # case f lifts, but its extension of order 6p is past the order cap
        code, out, err = run(capsys, "cover", "--case", "f", "--prime", str(self.LARGE_PRIME))
        assert code == 3
        assert "exceeds order cap" in err
        assert "Traceback" not in err and out == ""


class TestCertify:
    def test_attained_genus(self, capsys):
        code, data, _ = run_json(capsys, "certify", "--genus", "24", "--json")
        assert code == 0
        cert = data["certificate"]
        assert cert["bound"] == 92
        assert cert["attained"] is True
        assert cert["discharge"]["complete"] is True
        assert data["lower_bound_only"] is False

    def test_catalog_genus_human(self, capsys):
        code, out, _ = run(capsys, "certify", "--genus", "16")
        assert code == 0
        assert "bound 360" in out
        assert "A6" in out
        assert "lower bound only" in out

    def test_plain_genus_marked_lower_bound(self, capsys):
        code, data, _ = run_json(capsys, "certify", "--genus", "100", "--json")
        assert code == 0
        assert data["lower_bound_only"] is True
        assert data["certificate"]["attained"] is False

    def test_genus_below_two_exits_2(self, capsys):
        code, _, err = run(capsys, "certify", "--genus", "1")
        assert code == 2

    def test_deterministic_json(self, capsys):
        _, out1, _ = run(capsys, "certify", "--genus", "24", "--json")
        _, out2, _ = run(capsys, "certify", "--genus", "24", "--json")
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ("certify", "--genus", "22"),
        ("certify", "--genus", "24"),
        ("catalog",),
    ], ids=["certify-22", "certify-24", "catalog"])
    def test_prints_without_replaying(self, capsys, monkeypatch, argv):
        # the command does not replay what it built; ske verify does
        def refuse(cert):
            raise AssertionError("genus certificate replayed in-process")

        with monkeypatch.context() as patch:
            patch.setattr("surfbound.bounds.verify_genus_certificate", refuse)
            code, data, _ = run_json(capsys, *argv, "--json")
        assert code == 0
        certs = data["certificates"] if "certificates" in data else [data["certificate"]]
        for cert in certs:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cert)))
            code, out, _ = run(capsys, "ske", "verify", "-")
            assert code == 0
            assert out.startswith(f"certificate ok: genus {cert['genus']}")

    def test_deep_ledger_fails_replay(self, capsys, monkeypatch):
        # the shape the former certify --genus 24 --deep --json printed
        _, data, _ = run_json(capsys, "certify", "--genus", "24", "--json")
        data["certificate"]["discharge"]["entries"][1]["facts"]["computed_lift_sets_empty"] = True
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
        code, out, _ = run(capsys, "ske", "verify", "-")
        assert code == 1
        assert out == ("verification failed: certificate states discharge.entries[1]"
                       ".facts.computed_lift_sets_empty true, recomputed absent\n")

    @pytest.mark.parametrize("argv", [
        ("certify", "--genus", "24"),
        ("attained", "--max", "100"),
        ("catalog",),
    ], ids=["certify", "attained", "catalog"])
    def test_deep_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--deep"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --deep" in capsys.readouterr().err


class TestAttained:
    def test_up_to_300(self, capsys):
        code, data, _ = run_json(capsys, "attained", "--max", "300", "--json")
        assert code == 0
        genera = [row["genus"] for row in data["genera"]]
        assert genera == [24, 48, 60, 84, 108, 168, 180, 228, 240, 264]
        assert all(row["complete"] for row in data["genera"])

    def test_max_is_bounded(self, capsys, monkeypatch):
        # checked before the loop over g: 10^8 ran past 10 s under a 1 GB limit
        code, out, err = run(capsys, "attained", "--max", "100000000")
        assert (code, out) == (2, "")
        assert err == "error: --max must be at most 1000000, got 100000000\n"
        monkeypatch.setattr("surfbound.bounds.attained_genera", lambda limit: [])
        assert run(capsys, "attained", "--max", "1000000")[:2] == (
            0, "no attained genera up to 1000000\n")

    def test_none_below_24(self, capsys):
        code, out, _ = run(capsys, "attained", "--max", "23")
        assert code == 0
        assert "no attained genera" in out

    def test_human_lines(self, capsys):
        code, out, _ = run(capsys, "attained", "--max", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert "genus   24" in lines[0] and "bound    92" in lines[0]

    def test_discharge_entries_present(self, capsys):
        code, data, _ = run_json(capsys, "attained", "--max", "24", "--json")
        entry_methods = [e["method"]
                         for e in data["genera"][0]["discharge"]["entries"]]
        assert "sylow-orbit-embedding" in entry_methods


class TestCatalog:
    def test_human_line_shape(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        lines = out.splitlines()
        assert [line[:5] for line in lines] == [f"g={g:>3}" for g in range(2, 24)]
        assert lines[14] == "g= 16  bound   360  via (3,3,4) -> A6"

    @pytest.mark.parametrize("argv", [("catalog",), ("certify", "--genus", "5")])
    def test_failed_witness_search_exits_1(self, capsys, monkeypatch, argv):
        # catalog reports an empty witness search as certify does
        monkeypatch.setattr(bounds, "search_ske", lambda *args, **kwargs: None)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("witness search failed: no epimorphism (")
        assert err.count("\n") == 1


class TestHostileArguments:
    # argv, named defect: each exits 2 with that defect and no traceback; the
    # five with N = 4,300 nines printed an integer past Python's int-to-str
    # limit and ended in a traceback
    N = "9" * 4300
    HOSTILE_ARGV = {
        "measure-order-zero": (("measure", "2,3,7", "--order", "0"),
                               "--order must be at least 1, got 0"),
        "measure-order-negative": (("measure", "2,3,7", "--order", "-5"),
                                   "--order must be at least 1, got -5"),
        # g - 1 = 10^25 + 7 has no prime factor up to 37
        "certify-genus": (("certify", "--genus", "10000000000000000000000008"),
                          "10000000000000000000000007 is past the Miller-Rabin witness range"),
        "cover-prime": (("cover", "--case", "a", "--prime", "10000000000000000000000009"),
                        "10000000000000000000000009 is past the Miller-Rabin witness range"),
        "check-primes": (("cover", "--check", "--primes", "99999999999999999999999989"),
                         "99999999999999999999999989 is past the Miller-Rabin witness range"),
        "certify-digits": (("certify", "--genus", N), "error: --genus has more than 1000 digits"),
        "measure-period-digits": (("measure", f"2,3,{N}"),
                                  "error: signature has more than 1000 digits"),
        "measure-genus-digits": (("measure", f"g{N}p2", "--order", "3"),
                                 "error: signature has more than 1000 digits"),
        "search-digits": (("ske", "search", "--signature", f"g{N}p2", "--group", "C2"),
                          "error: signature has more than 1000 digits"),
        # a descriptor's number of 4,300 eights made a kernel genus past the
        # int-to-str limit; the whole stderr, the descriptor cut at 60
        "search-cyclic-digits": (("ske", "search", "--signature", "g2p3",
                                  "--group", f"cyclic:{'8' * 4300}"),
                                 f"error: bad group descriptor 'cyclic:{'8' * 52}: n in"
                                 " cyclic:<n> has more than 1000 digits\n"),
        "search-dihedral-digits": (("ske", "search", "--signature", "g2p3",
                                    "--group", f"dihedral:{'8' * 4300}"),
                                   f"error: bad group descriptor 'dihedral:{'8' * 50}: n in"
                                   " dihedral:<n> has more than 1000 digits\n"),
        # a generator that is not a permutation was echoed whole, 17 kB here
        "search-perm-echo": (("ske", "search", "--signature", "2,3,7",
                              "--group", "perm:2:" + ",".join(map(str, range(3001)))),
                             "not a permutation of 0..1: (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,"
                             " 11, 12, 13, 14, 15, 16, 1\n"),
    }

    @pytest.mark.parametrize("variant", sorted(HOSTILE_ARGV))
    def test_exits_2_naming_the_defect(self, capsys, variant):
        argv, defect = self.HOSTILE_ARGV[variant]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert defect in err
        assert "Traceback" not in err and out == ""

    def test_digit_bound_is_inclusive(self, capsys):
        # a signature's digits count together, an option's alone
        sig, order = f"g{'9' * 998}p22", "9" * 1000
        code, out, _ = run(capsys, "measure", sig, "--order", order)
        assert code == 0 and f"signature      ({'9' * 998};22)\n" in out
        assert run(capsys, "measure", sig + "2", "--order", order)[0] == 2
        assert run(capsys, "measure", sig, "--order", order + "9")[0] == 2


class TestNumericArgumentFuzz:
    # every numeric option, {} where its value goes, and the two cap
    # variables, read before a small search runs
    OPTIONS = {
        "certify-genus": ("certify", "--genus", "{}"),
        "attained-max": ("attained", "--max", "{}"),
        "measure-order": ("measure", "2,3,7", "--order", "{}"),
        "cover-prime": ("cover", "--case", "a", "--prime", "{}"),
        "check-primes": ("cover", "--check", "--primes", "{}"),
    }
    CAPS = ("SURFBOUND_ORDER_CAP", "SURFBOUND_NODE_BUDGET")
    CAPPED = ("ske", "search", "--signature", "2,2,2,3", "--group", "D6", "--mode", "count")
    VALUES = ("-1", "0", "-0", "0x5", "1e3", "5_000", " 7", "+7", "\u0662\u0664", "",
              "9" * 1001)
    SAMPLES = 40
    # the refusal line: argparse's names the program and subcommand
    REFUSAL = re.compile(r"(surfbound[a-z ]*: )?error: .+")

    def spellings(self, name):
        # every value alone, then seeded samples of two or three of them
        # joined by a comma (a --primes list) or a space; never joined by
        # nothing, which could spell an --max that takes minutes
        rng = random.Random(f"numeric-{name}")
        joined = [rng.choice((",", " ")).join(rng.sample(self.VALUES, rng.choice((2, 3))))
                  for _ in range(self.SAMPLES)]
        return list(self.VALUES) + joined

    def misbehaviour(self, capsys, argv):
        """None when the run answers on stdout with exit 0, or refuses with
        exit 1, 2 or 3 and one error line, argparse's usage before it; else
        what it did."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            capsys.readouterr()
            return f"{argv!r:.80}: raised {exc!r:.80}"
        out, err = capsys.readouterr()
        lines = err.splitlines()
        if code == 0 and out and not err:
            return None
        if (code in (1, 2, 3) and not out and lines and self.REFUSAL.fullmatch(lines[-1])
                and all(line.startswith(("usage: ", " ")) for line in lines[:-1])):
            return None
        return f"{argv!r:.80}: exit {code}, {out + err!r:.120}"

    @pytest.mark.parametrize("name", sorted(OPTIONS))
    def test_option_answers_or_refuses(self, capsys, name):
        failures = [m for value in self.spellings(name)
                    if (m := self.misbehaviour(capsys, [part.replace("{}", value)
                                                        for part in self.OPTIONS[name]]))]
        assert failures == []

    @pytest.mark.parametrize("name", CAPS)
    def test_cap_answers_or_refuses(self, capsys, monkeypatch, name):
        failures = []
        for value in self.spellings(name):
            monkeypatch.setenv(name, value)
            if m := self.misbehaviour(capsys, self.CAPPED):
                failures.append(f"{name}={value!r:.40}: {m}")
        assert failures == []

    # every spelling signatures.decimal refuses, and every reader of an
    # integer in text: the options, a signature, a group descriptor (with {}
    # where the number goes) and the cap variables (None), which read an
    # empty value as unset
    REFUSED = ("5_000", " 7", "+7", "\u0662\u0664", "0x5", "1e3", "", "9" * 1001)
    READERS = dict(OPTIONS, **{
        "signature-period": ("measure", "2,3,{}"),
        "signature-genus": ("measure", "g{}p2"),
        "cyclic": ("ske", "search", "--signature", "2,2,2,3", "--group", "cyclic:{}"),
        "perm-image": ("ske", "search", "--signature", "2,8,8",
                       "--group", "perm:8:{},0,1,2,3,4,5,6"),
        **{name: None for name in CAPS},
    })

    def reading(self, monkeypatch, name, value):
        # the argv that gives value to the reader name
        if self.READERS[name] is None:
            monkeypatch.setenv(name, value)
            return self.CAPPED
        return [part.replace("{}", value) for part in self.READERS[name]]

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_every_reader_refuses_the_same_spellings(self, capsys, monkeypatch, name):
        failures = []
        for value in self.REFUSED:
            if value == "" and self.READERS[name] is None:
                continue
            code, out, err = run(capsys, *self.reading(monkeypatch, name, value))
            if not (code == 2 and out == "" and err.startswith("error: ")
                    and err.count("\n") == 1):
                failures.append(f"{value!r:.20}: exit {code}, {out + err!r:.100}")
        assert failures == []

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_every_reader_reads_a_leading_zero(self, capsys, monkeypatch, name):
        assert (run(capsys, *self.reading(monkeypatch, name, "07"))
                == run(capsys, *self.reading(monkeypatch, name, "7")))

    def test_the_grammar(self):
        # an optional '-' and 1 to 1,000 ASCII digits; range is the caller's
        for value in self.REFUSED + ("-", "--7", "7\n", "\u00b2"):
            with pytest.raises(signatures.NotDecimal, match="^count "):
                signatures.decimal("count", value)
        assert [signatures.decimal("count", v) for v in ("07", "0", "-0", "-12", "9" * 1000)] \
            == [7, 0, 0, -12, int("9" * 1000)]


class TestResourceCaps:
    def test_order_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SURFBOUND_ORDER_CAP", "100")
        code, _, err = run(capsys, "ske", "search", "--signature", "2,3,8",
                           "--group", "S8", "--mode", "count")
        assert code == 3
        assert "resource cap" in err

    def test_node_budget_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SURFBOUND_NODE_BUDGET", "5")
        code, _, err = run(capsys, "ske", "search", "--signature", "2,2,2,6",
                           "--group", "S3*D11", "--mode", "count")
        assert code == 3
        assert "resource cap" in err

    @pytest.mark.parametrize("value", [None, ""])
    def test_unset_or_empty_cap_is_its_default(self, monkeypatch, value):
        for name in signatures.CAPS:
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        assert signatures.resource_cap("SURFBOUND_ORDER_CAP") == 10 ** 6
        assert signatures.resource_cap("SURFBOUND_NODE_BUDGET") == 10 ** 9

    @pytest.mark.parametrize("name", sorted(signatures.CAPS))
    @pytest.mark.parametrize("value", ["0", "-3", "abc", "+7", "9" * 1001])
    def test_library_and_cli_refuse_alike(self, capsys, monkeypatch, name, value):
        # one reader: the CLI's error line is the library's refusal
        monkeypatch.setenv(name, value)
        with pytest.raises(signatures.NotDecimal) as info:
            signatures.resource_cap(name)
        assert run(capsys, "constants") == (2, "", f"error: {info.value}\n")

    @pytest.mark.parametrize("flag", ["--order-cap", "--node-budget"])
    def test_cap_flag_is_a_usage_error(self, capsys, flag):
        # the variables are the one input for each cap; no flag sets them
        for argv in ([flag, "100", "constants"], ["constants", f"{flag}=100"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind", "CDSA")
    def test_huge_group_certificate_exits_3(self, capsys, tmp_path, kind):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "type": "ske", "verifier_version": "1",
            "signature": {"genus": 0, "periods": [2, 2, 2, 2, 2]},
            "group": f"{kind}99999999999", "group_order": 4,
            "images": [[0]] * 5, "kernel_genus": 0,
        }))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == 3
        assert "resource cap" in err
        assert "Traceback" not in err and out == ""

    # signature, group, mode, exit code, expected text; the first ended in a
    # RecursionError, the other three in a MemoryError under the limit below
    DEEP_SEARCHES = {
        "g600": ("g600", "C2", "first", 0, "kernel genus 1199"),
        # within the node budget, but its slot lists alone pass the limit
        "slots-past-order-cap": ("g400000000", "C2", "first", 3,
                                 "resource cap: the slot count 800000000 of (400000000;)"
                                 " exceeds order cap 1000000\n"),
        "huge-genus": ("g99999999999999999", "C2", "count", 3,
                       "node budget 1000000000 exhausted searching (99999999999999999;) -> C2"),
        "huge-genus-no-order-2": ("g99999999999999999p2,2,2,2,5,5", "C5", "count", 0, "none"),
    }

    @staticmethod
    def run_limited(argv, mib):
        """The CLI in a child whose address space is limited to mib MiB."""
        limit = mib * 2 ** 20
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(surfbound.__file__)))
        env.pop("SURFBOUND_ORDER_CAP", None)
        env.pop("SURFBOUND_NODE_BUDGET", None)
        return subprocess.run(
            [sys.executable, "-m", "surfbound.cli", *argv],
            capture_output=True, text=True, env=env, timeout=30,
            # bounds the child alone, so a command that builds large lists fails fast
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))

    @pytest.mark.parametrize("variant", sorted(DEEP_SEARCHES))
    def test_deep_search_answers(self, variant):
        sig, group, mode, code, text = self.DEEP_SEARCHES[variant]
        proc = self.run_limited(("ske", "search", "--signature", sig, "--group", group,
                                 "--mode", mode), 800)
        assert proc.returncode == code, proc.stderr
        assert text in proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr

    # each ended in a MemoryError traceback with exit 1; the cover raised a
    # second MemoryError while main imported the layers that name failures
    OUT_OF_MEMORY = {
        "search": ("ske", "search", "--signature", "2,2,3,3", "--group", "C999999",
                   "--mode", "count"),
        "cover": ("cover", "--case", "g", "--prime", "1009"),
    }

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
    @pytest.mark.parametrize("variant", sorted(OUT_OF_MEMORY))
    def test_out_of_memory_exits_3(self, variant):
        proc = self.run_limited(self.OUT_OF_MEMORY[variant], 256)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "resource cap: out of memory\n")

    SEARCH_S7 = ("ske", "search", "--signature", "2,3,7", "--group", "S7")
    # variable, its value, command; each ended in a traceback or blamed the group
    BAD_CAPS = {
        "order-cap-certify": ("SURFBOUND_ORDER_CAP", "abc", ("certify", "--genus", "16")),
        "order-cap-cover": ("SURFBOUND_ORDER_CAP", "abc",
                            ("cover", "--case", "a", "--prime", "17")),
        "order-cap-catalog": ("SURFBOUND_ORDER_CAP", "abc", ("catalog",)),
        "order-cap-search": ("SURFBOUND_ORDER_CAP", "abc", SEARCH_S7),
        "node-budget-float": ("SURFBOUND_NODE_BUDGET", "1e9", SEARCH_S7),
        "order-cap-digit-limit": ("SURFBOUND_ORDER_CAP", "9" * 5000, ("constants",)),
    }

    @pytest.mark.parametrize("variant", sorted(BAD_CAPS))
    def test_malformed_cap_exits_2_naming_the_variable(self, capsys, monkeypatch, variant):
        name, value, argv = self.BAD_CAPS[variant]
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {name} must be a positive decimal integer")
        assert "Traceback" not in err and out == ""


class TestClosedStdout:
    # the reader has gone before the child starts: constants meets it in the
    # flush at exit, attained (24 KB, past the 8 KB stdout buffer) in print
    @pytest.mark.parametrize("argv", [
        ("constants",),
        ("attained", "--max", "20000"),
    ], ids=["constants", "search-all"])
    def test_reader_gone_exits_1_quietly(self, argv):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(surfbound.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "surfbound.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=30)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestParser:
    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["conjugate"])
        assert exc.value.code == 2

    # options that are gone: catalog certifies 2..23 (certify --genus for any
    # other genus), cover --check takes --primes, table reads the packaged file
    @pytest.mark.parametrize("argv", [
        ("catalog", "--genera", "3"),
        ("cover", "--check", "--labels", "a"),
        ("table", "--data", "t.txt"),
    ], ids=["catalog-genera", "cover-labels", "table-data"])
    def test_removed_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_certify_requires_genus_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "24"])
        assert exc.value.code == 2

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["measure", "2,3,7"])
        assert args.signature == "2,3,7"
