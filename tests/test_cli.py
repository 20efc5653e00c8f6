import io
import json
import os
import sys
import time

import pytest

from surfbound.cli import build_parser, main


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

    def test_corrupt_data_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "table.txt"
        bad.write_text("2 3 7 | 1/21 | 84 | verified-by-literature\nnot a row\n")
        code, _, err = run(capsys, "table", "--data", str(bad))
        assert code == 1
        assert "not a row" in err

    def test_wrong_stated_measure_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "table.txt"
        bad.write_text("2 3 7 | 1/20 | 84 | verified-by-literature\n")
        code, _, err = run(capsys, "table", "--data", str(bad))
        assert code == 1
        assert "recomputed 1/21" in err

    def test_missing_data_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "--data", str(tmp_path / "no.txt"))
        assert code == 2
        assert "cannot read" in err


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

    def test_all_mode_with_dedup(self, capsys):
        code, data, _ = run_json(capsys, "ske", "search", "--signature",
                                 "2,2,2,3", "--group", "dihedral:6",
                                 "--mode", "all", "--dedup", "--json")
        assert code == 0
        assert data["count"] == len(data["solutions"]) > 0

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

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "ske", "verify", str(tmp_path / "none.json"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "ske", "verify", str(path))
        assert code == 2

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
        "covector-too-long": ("covector", lambda v: v + [0], 1, "dimension"),
        "covector-float": ("covector", lambda v: [float(x) for x in v], 2, "covector entries"),
        "covector-string": ("covector", lambda v: [str(x) for x in v], 2, "covector entries"),
        "prime-string": ("prime", lambda v: str(v), 2, "prime must be an integer"),
        "prime-float": ("prime", lambda v: float(v), 2, "prime must be an integer"),
        "genus-string": ("cover_genus", lambda v: str(v), 2, "cover_genus must be"),
        "base-list": ("base", lambda v: [v], 2, "JSON object"),
    }

    @pytest.mark.parametrize("variant", sorted(HOSTILE_COVERS))
    def test_hostile_cover_field(self, capsys, tmp_path, variant):
        field, tamper, expected, defect = self.HOSTILE_COVERS[variant]
        _, data, _ = run_json(capsys, "cover", "--case", "d", "--prime", "5", "--json")
        doc = data["cover"]
        doc[field] = tamper(doc[field])
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == expected
        assert defect in (out if expected == 1 else err)

    @pytest.mark.parametrize("group", [5, ["C5"], None])
    def test_ske_group_not_a_string_exits_2(self, capsys, tmp_path, group):
        path = self._cert_file(capsys, tmp_path, "ske", "search",
                               "--signature", "2,3,8", "--group", "GL23", "--json")
        doc = json.loads(path.read_text())
        doc["group"] = group
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert "group must be a descriptor string" in err

    # the command each tampered ske certificate comes from, and the keys
    # that lead to it in the command's JSON output
    SKE_SOURCES = {
        "GL23": (("ske", "search", "--signature", "2,3,8", "--group", "GL23"),
                 ("certificate",)),
        "dihedral:6": (("certify", "--genus", "4"),
                       ("certificate", "witnesses", 0, "certificate")),
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
        "perm-true": ("GL23", "images",
                      lambda v: [[True if e == 1 else e for e in v[0]]] + v[1:], 2,
                      "not in group 'GL23'"),
        "perm-false": ("GL23", "images",
                       lambda v: [[False if e == 0 else e for e in v[0]]] + v[1:], 2,
                       "not in group 'GL23'"),
    }

    @pytest.mark.parametrize("variant", sorted(HOSTILE_SKE))
    def test_hostile_ske_field(self, capsys, tmp_path, variant):
        source, field, value, expected, defect = self.HOSTILE_SKE[variant]
        argv, keys = self.SKE_SOURCES[source]
        _, doc, _ = run_json(capsys, *argv, "--json")
        for key in keys:
            doc = doc[key]
        assert doc["group"] == source
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
        (("certify", "--genus", "2"), ("certificate", "witnesses", 1, "certificate")),
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

    # genus, path to the tampered field, value, named defect; the parent
    # read each of these loosely and printed "certificate ok"
    HOSTILE_GENUS = {
        "route-int": (22, ("witnesses", 1, "route"), 1, "unknown witness route 1"),
        "route-empty": (22, ("witnesses", 1, "route"), "", "unknown witness route ''"),
        "route-search": (22, ("witnesses", 1, "route"), "search",
                         "unknown witness route 'search'"),
        "route-object": (22, ("witnesses", 1, "route"), {}, "unknown witness route {}"),
        "discharge-zero": (22, ("discharge",), 0, "malformed certificate"),
        "discharge-false": (22, ("discharge",), False, "malformed certificate"),
        "discharge-object": (22, ("discharge",), {}, "malformed certificate"),
        "covered-empty-string": (24, ("discharge", "entries", 0, "bounds_covered"), "",
                                 "bounds_covered must be a list"),
        "covered-object": (24, ("discharge", "entries", 0, "bounds_covered"), {},
                           "bounds_covered must be a list"),
    }

    @pytest.mark.parametrize("variant", sorted(HOSTILE_GENUS))
    def test_hostile_genus_field_exits_2(self, capsys, tmp_path, variant):
        genus, keys, value, defect = self.HOSTILE_GENUS[variant]
        _, data, _ = run_json(capsys, "certify", "--genus", str(genus), "--json")
        doc = node = data["certificate"]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "genus.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ske", "verify", str(path))
        assert code == 2
        assert defect in err
        assert "Traceback" not in err and out == ""

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
        code, data, _ = run_json(capsys, "cover", "--check", "--labels", "f",
                                 "--primes", "7,11,19", "--json")
        assert code == 0
        assert len(data["reports"]) == 1
        assert data["reports"][0]["with_hyperplane"] == [7, 19]

    def test_check_with_case_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--check", "--case", "a",
                           "--prime", "2")
        assert code == 2
        assert "does not combine" in err

    def test_labels_without_check_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--case", "a", "--prime", "2",
                           "--labels", "f")
        assert code == 2

    def test_bad_primes_list_exits_2(self, capsys):
        code, _, err = run(capsys, "cover", "--check", "--primes", "7,x")
        assert code == 2

    def test_check_unknown_label_exits_2(self, capsys):
        code, out, err = run(capsys, "cover", "--check", "--labels", "az")
        assert code == 2
        assert out == ""
        assert "unknown cover case 'z'; have a b c d e f g" in err

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
        code, data, _ = run_json(capsys, "cover", "--check", "--labels", "abf",
                                 "--primes", str(self.LARGE_PRIME), "--json")
        assert code == 0
        assert data["ok"] is True
        assert {r["case"]: r["with_hyperplane"] for r in data["reports"]} == {
            "a": [], "b": [], "f": [self.LARGE_PRIME]}

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
        ("catalog", "--genera", "3,22"),
    ], ids=["certify-22", "certify-24", "catalog-3-22"])
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
        ("catalog", "--genera", "24"),
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
    def test_subset(self, capsys):
        code, data, _ = run_json(capsys, "catalog", "--genera", "2,5,10", "--json")
        assert code == 0
        bounds = {c["genus"]: c["bound"] for c in data["certificates"]}
        assert bounds == {2: 48, 5: 24, 10: 72}

    def test_human_line_shape(self, capsys):
        code, out, _ = run(capsys, "catalog", "--genera", "16")
        assert code == 0
        assert "g= 16" in out and "bound   360" in out and "ske-search" in out

    def test_bad_genus_exits_2(self, capsys):
        code, _, err = run(capsys, "catalog", "--genera", "1")
        assert code == 2


class TestHostileArguments:
    # argv, named defect: each exits 2 with that defect and no traceback
    HOSTILE_ARGV = {
        "measure-order-zero": (("measure", "2,3,7", "--order", "0"),
                               "--order must be at least 1, got 0"),
        "measure-order-negative": (("measure", "2,3,7", "--order", "-5"),
                                   "--order must be at least 1, got -5"),
        # g - 1 = 10^25 + 7 has no prime factor up to 37
        "certify-genus": (("certify", "--genus", "10000000000000000000000008"),
                          "10000000000000000000000007 is past the Miller-Rabin witness range"),
        "catalog-genus": (("catalog", "--genera", "3,10000000000000000000000008"),
                          "10000000000000000000000007 is past the Miller-Rabin witness range"),
        "cover-prime": (("cover", "--case", "a", "--prime", "10000000000000000000000009"),
                        "10000000000000000000000009 is past the Miller-Rabin witness range"),
        "check-primes": (("cover", "--check", "--primes", "99999999999999999999999989"),
                         "99999999999999999999999989 is past the Miller-Rabin witness range"),
    }

    @pytest.mark.parametrize("variant", sorted(HOSTILE_ARGV))
    def test_exits_2_naming_the_defect(self, capsys, variant):
        argv, defect = self.HOSTILE_ARGV[variant]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert defect in err
        assert "Traceback" not in err and out == ""


class TestResourceCaps:
    def test_order_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "--order-cap", "100", "ske", "search",
                           "--signature", "2,3,8", "--group", "S8",
                           "--mode", "count")
        assert code == 3
        assert "resource cap" in err

    def test_node_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "--node-budget", "5", "ske", "search",
                           "--signature", "2,2,2,6", "--group", "S3*D11",
                           "--mode", "all")
        assert code == 3
        assert "resource cap" in err

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

    SEARCH_S7 = ("ske", "search", "--signature", "2,3,7", "--group", "S7")
    # variable, its value or None to set it by flag, command; each exited 3
    # with "exceeds order cap -1", ended in a traceback, or blamed the group
    BAD_CAPS = {
        "order-cap-certify": ("SURFBOUND_ORDER_CAP", "abc", ("certify", "--genus", "16")),
        "order-cap-cover": ("SURFBOUND_ORDER_CAP", "abc",
                            ("cover", "--case", "a", "--prime", "17")),
        "order-cap-catalog": ("SURFBOUND_ORDER_CAP", "abc", ("catalog", "--genera", "3")),
        "order-cap-search": ("SURFBOUND_ORDER_CAP", "abc", SEARCH_S7),
        "node-budget-float": ("SURFBOUND_NODE_BUDGET", "1e9", SEARCH_S7),
        "order-cap-flag": ("SURFBOUND_ORDER_CAP", None, ("--order-cap", "-1") + SEARCH_S7),
        "node-budget-flag": ("SURFBOUND_NODE_BUDGET", None, ("--node-budget", "-1") + SEARCH_S7),
    }

    @pytest.mark.parametrize("variant", sorted(BAD_CAPS))
    def test_malformed_cap_exits_2_naming_the_variable(self, capsys, monkeypatch, variant):
        name, value, argv = self.BAD_CAPS[variant]
        if value is not None:
            monkeypatch.setenv(name, value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {name} must be a positive decimal integer")
        assert "Traceback" not in err and out == ""

    def test_env_restored_after_flag(self, capsys):
        assert "SURFBOUND_ORDER_CAP" not in os.environ
        run(capsys, "--order-cap", "100", "ske", "search",
            "--signature", "2,3,8", "--group", "S8", "--mode", "count")
        assert "SURFBOUND_ORDER_CAP" not in os.environ

    def test_env_flag_overrides_existing(self, capsys):
        os.environ["SURFBOUND_ORDER_CAP"] = "999999"
        try:
            code, _, _ = run(capsys, "--order-cap", "100", "ske", "search",
                             "--signature", "2,3,8", "--group", "S8",
                             "--mode", "count")
            assert code == 3
            assert os.environ["SURFBOUND_ORDER_CAP"] == "999999"
        finally:
            del os.environ["SURFBOUND_ORDER_CAP"]


class TestParser:
    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["conjugate"])
        assert exc.value.code == 2

    def test_certify_requires_genus_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "24"])
        assert exc.value.code == 2

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["measure", "2,3,7"])
        assert args.signature == "2,3,7"
