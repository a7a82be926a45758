"""Pinned digests of the degree-matched RMAT windows.

Every DES point, multinode study and tier-0 answer starts from one of
these windows, so their CSR arrays must stay byte-identical whatever
the generator and the CSR build do internally.  Each digest is a
SHA-256 over the dtype string and bytes of ``indptr``, ``indices`` and
``data``, in that order.
"""

import hashlib

import pytest

from repro.graphs.datasets import get_dataset

WINDOW_DIGESTS = {
    ("ddi", 1024):
        "36e5126574e9f9bf6f9f51e1627f8cffe0515ad4f359af9cc30539872d9746ae",
    ("ddi", 16384):
        "8418a0e5b1929883ca398b3532f4756bf521aab4add079ec26e445334c8e14e0",
    ("proteins", 1024):
        "48ce4e45694d9bc9b524cc8634fe75e2dea11eb8f9b445c0544d2c53606de72d",
    ("proteins", 16384):
        "4d8ab386a3f086b1770bb398d2d6f879e46e76d55584015b9ed9c4115538f803",
    ("arxiv", 1024):
        "351adfac6f5d2218ab2651120e8e40139a80a3c01f6ad81e6a71234222d594c1",
    ("arxiv", 16384):
        "f84290227a75fe484cdfb7ff07ccdbf139772dd0165fbd2511eab9f3417464b6",
    ("collab", 1024):
        "1530fb50d72e5aceee652a47fccc6f92510e35dab0a84a85de5e08d955cf15f7",
    ("collab", 16384):
        "fc628ebfc3ea9778142c5471725161f08f2fc3a1d55aa8ec0f85a43a8fb0799d",
    ("ppa", 1024):
        "aa2c05aa2894246865afe21c947b1398d7e5a4106209517747bbcdc391b82879",
    ("ppa", 16384):
        "24342db3f3c31048a4c9719905338037f979ad292889e0b7574b704da99b6e63",
    ("mag", 1024):
        "32a8c3057e983be8d003c5313ec3201a8989cf4204391c303c5947d64c4e0aeb",
    ("mag", 16384):
        "70e2513ba79bd0c170f95d64b4fbd1d047ae0c7fe929e85b9480a179d730213a",
    ("products", 1024):
        "2c24afcc9c8b74c4dd874494d11be9fe9459741ede0586a132fbc93d8c415895",
    ("products", 16384):
        "af71d737195184947ef927438e5d06cf209c95e70db31f92cd081fce3865d2f9",
    ("citation2", 1024):
        "7dbe07b131953b1f5ed917d05a31479b55f61ed4cf259283145ba0ce3493ee55",
    ("citation2", 16384):
        "7ddc4868465429921093c62f4c460cd04f2256ba500843ecec7678c25653d538",
    ("papers", 1024):
        "8275802e0bd76832af6ada0cd24178869efd85f3fb39591f9803e91e18aebe67",
    ("papers", 16384):
        "508f6cbfbd010b08f0a125116bd04f91cb75aae8bf55fbbb1d14118d87551352",
    ("power-16", 1024):
        "d238f727584af0b2c894228f2134e1c5c47c6e1fc468ec3ed188a6c87aacbece",
}


def window_digest(adj):
    digest = hashlib.sha256()
    for array in (adj.indptr, adj.indices, adj.data):
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "dataset,max_vertices", sorted(WINDOW_DIGESTS),
    ids=[f"{name}-{size}" for name, size in sorted(WINDOW_DIGESTS)],
)
def test_window_is_byte_identical(dataset, max_vertices):
    adj = get_dataset(dataset).materialize(max_vertices=max_vertices, seed=7)
    assert window_digest(adj) == WINDOW_DIGESTS[(dataset, max_vertices)]
