"""What one CLI process imports.

Every command runs in a fresh `python -S` child (no site hooks), which
records sys.modules after main() returns.  No command may pull in
dataclasses, and a command loads the covers and bounds layers only when it
uses them.  A search loads neither the linalg layer nor fractions; the table
commands, constants and measure load no layer but signatures, and a genus
certificate without a cover witness or a discharge ledger loads neither
linalg nor covers, to certify or to verify.  The attained genera load covers
for the discharge ledger's cover-congruence shield.  Importing the CLI loads
no layer at all.
"""

import json
import os
import subprocess
import sys

import pytest

import surfbound
from surfbound.bounds import certify_genus
from surfbound.covers import build_cover, case_by_label, case_certificate

SRC = os.path.dirname(os.path.dirname(os.path.abspath(surfbound.__file__)))

CHILD = """\
import json, sys
from surfbound.cli import main
rc = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "modules": sorted(sys.modules)}, fh)
"""

SEARCH = ("ske", "search", "--signature", "3,3,4", "--group", "A6", "--mode", "count")


def modules_after(tmp_path, *argv):
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SURFBOUND_ORDER_CAP", None)
    env.pop("SURFBOUND_NODE_BUDGET", None)
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, str(out), *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(out.read_text())
    assert result["rc"] == 0
    return set(result["modules"])


@pytest.fixture(scope="module")
def certificate_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("certs")
    certs = {"cover": build_cover(case_certificate(case_by_label("d")), 5),
             "genus": certify_genus(24),
             "genus5": certify_genus(5)}
    paths = {}
    for kind, cert in certs.items():
        paths[kind] = root / f"{kind}.json"
        paths[kind].write_text(json.dumps(cert.to_dict()))
    return paths


COVERS, BOUNDS = "surfbound.covers", "surfbound.bounds"
GROUPS, SKE = "surfbound.groups", "surfbound.ske"
LINALG, FRACTIONS = "surfbound.linalg", "fractions"
RESOURCES = "importlib.resources"
TABLE_ONLY = (GROUPS, SKE, LINALG, COVERS, FRACTIONS)


@pytest.mark.parametrize("argv, loaded, absent", [
    (("table", "--check"), (), (BOUNDS,) + TABLE_ONLY),
    (("measure", "2,3,7"), (), (COVERS, BOUNDS, RESOURCES, LINALG)),
    (SEARCH, (), (COVERS, BOUNDS, RESOURCES, LINALG, FRACTIONS)),
    (("constants",), (), (BOUNDS,) + TABLE_ONLY),
    (("cover", "--case", "d", "--prime", "5"), (COVERS,), (BOUNDS,)),
    (("ske", "verify", "{cover}"), (COVERS,), (BOUNDS,)),
    (("certify", "--genus", "22"), (COVERS, BOUNDS), ()),
    (("ske", "verify", "{genus}"), (COVERS, BOUNDS), ()),
    (("certify", "--genus", "5"), (BOUNDS, SKE), (LINALG, COVERS, FRACTIONS)),
    (("ske", "verify", "{genus5}"), (BOUNDS, SKE), (LINALG, COVERS, FRACTIONS)),
    (("attained", "--max", "30"), (BOUNDS, COVERS), ()),
], ids=["table", "measure", "search", "constants", "cover", "verify-cover",
        "certify", "verify-genus", "certify-search", "verify-genus-search", "attained"])
def test_command_loads_only_what_it_uses(tmp_path, certificate_files, argv, loaded, absent):
    modules = modules_after(tmp_path, *(a.format(**certificate_files) for a in argv))
    assert "surfbound.cli" in modules
    assert "dataclasses" not in modules
    for name in loaded:
        assert name in modules
    for name in absent:
        assert name not in modules


def test_importing_the_cli_loads_no_layer(tmp_path):
    out = tmp_path / "modules.json"
    child = ("import json, sys\nfrom surfbound.cli import main\n"
             "json.dump(sorted(sys.modules), open(sys.argv[1], 'w'))\n")
    subprocess.run([sys.executable, "-S", "-c", child, str(out)], check=True,
                   env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    loaded = {m for m in json.loads(out.read_text()) if m.split(".")[0] == "surfbound"}
    assert loaded == {"surfbound", "surfbound.cli"}
