from dataclasses import replace

import pytest

from indcert.certificates import (
    PATCH_EDGE,
    PATCH_P22,
    PATCH_P32,
    MarkedPatch,
    PatchError,
    canonical_thm1_host,
    canonical_thm2_host,
    canonical_thm3_host,
    validate_patch,
)
from indcert.graphs import GraphError

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
