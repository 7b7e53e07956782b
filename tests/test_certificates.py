import json
from dataclasses import replace
from pathlib import Path

import pytest

from indcert.certificates import (
    BUILTIN_IDS,
    PARAMETERIZED_IDS,
    PATCH_EDGE,
    PATCH_P22,
    PATCH_P32,
    MarkedPatch,
    PatchError,
    builtin_certificate,
    canonical_thm1_host,
    canonical_thm2_host,
    canonical_thm3_host,
    validate_patch,
)
from indcert.graphs import Graph, GraphError, graphs_equal_labeled
from indcert.moves import certificate_from_json

# The certificate library as committed: every static builtin, and each
# parameterized one at three values of n. Rewrite it with
# `PYTHONPATH=src python tests/test_certificates.py` when a certificate
# changes on purpose; its git diff is then the change.
LIBRARY = Path(__file__).parent / "data" / "certificates.json"
PARAMETERS = {"ch1": (1, 2, 5), "p4n-to-x": (3, 4, 10), "y-recursion": (4, 5, 10)}

HOSTS = [canonical_thm1_host, canonical_thm2_host, canonical_thm3_host]


@pytest.mark.parametrize("role, need", [(PATCH_EDGE, 2), (PATCH_P22, 4), (PATCH_P32, 6)])
def test_a_patch_needs_its_label_count(role, need):
    labels = tuple(f"x{i}" for i in range(need + 1))
    MarkedPatch(role, labels[:need])
    for wrong in (labels[:need - 1], labels):
        with pytest.raises(GraphError, match=f"needs {need} labels"):
            MarkedPatch(role, wrong)


@pytest.mark.parametrize("host, inside", zip(HOSTS, (1, 4, 7)))
def test_every_edge_of_a_canonical_patch_is_required(host, inside):
    g, patch = host()
    validate_patch(g, patch)
    edges = [(a, b) for a, b in g.edges if a in patch.labels and b in patch.labels]
    assert len(edges) == inside
    for a, b in edges:
        with pytest.raises(PatchError, match="patch edge .* is missing"):
            validate_patch(g.delete_edge(a, b), patch)


def test_relaxed_p22_leaves_only_the_a_side_vertical_optional():
    g, patch = canonical_thm2_host()
    a, abar, b, bbar = patch.labels
    relaxed = replace(patch, relaxed=True)
    validate_patch(g, relaxed)
    validate_patch(g.delete_edge(a, abar), relaxed)
    for x, y in ((b, bbar), (a, b), (abar, bbar)):
        with pytest.raises(PatchError, match="is missing"):
            validate_patch(g.delete_edge(x, y), relaxed)


@pytest.mark.parametrize("host", HOSTS[1:])
def test_an_extra_edge_inside_the_patch_is_rejected(host):
    g, patch = host()
    labels = patch.labels
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if not g.has_edge(a, b):
                with pytest.raises(PatchError, match="extra induced edge"):
                    validate_patch(g.add_edge(a, b), patch)


def library():
    for cert_id in BUILTIN_IDS:
        for n in PARAMETERS[cert_id] if cert_id in PARAMETERIZED_IDS else (None,):
            yield builtin_certificate(cert_id, n)


def write_library(path=LIBRARY):
    """One certificate per line, so that a changed certificate is a changed line."""
    lines = [
        f"{json.dumps(cert.name)}: {json.dumps(cert.to_json_dict(), separators=(',', ':'))}"
        for cert in library()
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_the_library_matches_its_committed_documents():
    committed = json.loads(LIBRARY.read_text(encoding="utf-8"))
    built = {cert.name: cert.to_json_dict() for cert in library()}
    assert list(built) == list(committed)
    for name, doc in built.items():
        assert doc == committed[name], name


def test_every_library_certificate_round_trips_through_json():
    # a document lists vertices sorted, so graphs compare label for label
    for cert in library():
        back = certificate_from_json(cert.to_json())
        assert (back.name, back.steps, back.note) == (cert.name, cert.steps, cert.note)
        assert graphs_equal_labeled(back.expected_final, cert.expected_final), cert.name
        if isinstance(cert.initial, Graph):
            assert graphs_equal_labeled(back.initial, cert.initial), cert.name
        else:
            assert back.initial == cert.initial, cert.name


if __name__ == "__main__":
    write_library()
