"""Pinned report bytes: the sha256 of each canonical report on a fixed corpus.

A refactor that means to leave every report as it was keeps these digests;
one that changes a report on purpose recomputes the digest it names.
"""
import hashlib
import random
from fractions import Fraction

import pytest

from conecert.exactalg import QPoly
from conecert.report import dumps_canonical
from conecert.scenarios import BUILTIN_SCENARIOS, run_scenario
from conecert.selftest import generate_cone_instance

GENERATED_SEED = 20260810
GENERATED_COUNT = 20


def _entry(x) -> "int | str":
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _cone_doc(matrix, cone: dict) -> dict:
    return {"schema_version": "1", "kind": "cone_dynamics",
            "payload": {"matrix": [[_entry(x) for x in row] for row in matrix], "cone": cone}}


def _companion_on_orthant(p: QPoly) -> dict:
    """The companion matrix of the monic p on the positive orthant, which it
    does not preserve; the report still lists p's roots."""
    c, n = p.monic().coeffs, p.degree
    matrix = [[1 if i == j + 1 else 0 for j in range(n - 1)] + [-c[i]] for i in range(n)]
    orthant = [[int(i == j) for j in range(n)] for i in range(n)]
    return _cone_doc(matrix, {"type": "polyhedral", "generators": orthant})


def _corpus() -> dict[str, dict]:
    docs = dict(BUILTIN_SCENARIOS)
    rng = random.Random(GENERATED_SEED)
    for i in range(GENERATED_COUNT):
        inst = generate_cone_instance(rng, 2 + i % 3)
        docs[f"generated-{i:02d}-{inst.kind}"] = _cone_doc(
            inst.matrix.to_rows(),
            {"type": "polyhedral", "generators": [[_entry(x) for x in g]
                                                  for g in inst.cone.generators]})
    docs["psd2"] = _cone_doc([[0, 0, 4], [0, 6, 0], [9, 0, 0]], {"type": "psd", "size": 2})
    docs["proper-span-swap"] = _cone_doc(
        [[0, 2], [2, 0]], {"type": "polyhedral", "generators": [[1, 1]]})
    # irrational-only on a proper span: t^2 - 3 on the span, t^2 - 2 transverse
    docs["proper-span-irrational"] = _cone_doc(
        [[0, 3, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]],
        {"type": "polyhedral", "generators": [[1, 0, 0, 0], [0, 1, 0, 0]]})
    # X -> B X B^T with B = [[2, 1], [1, 1]]: irrational-only, t^2 - 7t + 1
    docs["psd2-irrational"] = _cone_doc(
        [[4, 4, 1], [2, 3, 1], [1, 2, 1]], {"type": "psd", "size": 2})
    for name, endo in (("ns-irrational", [[2, 1], [1, 1]]),
                       ("ns-not-polarized", [[2, 0], [0, 3]])):
        docs[name] = {"schema_version": "1", "kind": "ns_example",
                      "payload": {"endomorphism": endo}}
    docs["degree"] = {"schema_version": "1", "kind": "degree_check",
                      "payload": {"dim_x": 2, "deg_f": 36, "dim_y": 1, "deg_g": 6,
                                  "invariant_subvariety_dim": 1}}
    docs["age"] = {"schema_version": "1", "kind": "age_check",
                   "payload": {"order": 3, "projective_m": 3, "scale_r": 2,
                               "abelian_weights": [1, 2]}}
    # real roots of different factors that share one isolation cell
    sqrt2, near = QPoly([-2, 0, 1]), QPoly([-200000001, 0, 10 ** 8])
    point = QPoly.linear_root(Fraction(7071, 5000))
    for name, p in (("tie-sqrt2-near", sqrt2 * near), ("tie-sqrt2-point", sqrt2 * point),
                    ("tie-sqrt2-near-point", sqrt2 * near * point)):
        docs[name] = _companion_on_orthant(p)
    return {name: dict(doc, name=name) for name, doc in docs.items()}


DIGESTS = {
    "age": "7be9e7fd39262aea83bf6ac230270f279078d0f53c58c78897307a1e1768baa4",
    "degree": "2198b19893c39c5e65ee77e3ec883673d87c4fa5991c74f9a13aa6f551f619e5",
    "ex-xu": "508269dda3d4866daa7413f37d45ad2cb7531c6bd924056daa27c0a1dd31744e",
    "ex-xu-4-3": "b698ad2e2b8e316ec662c22dec247e3aff28b780fcc67a1ab4b307d65f4cd8ad",
    "ex1": "1362b64065fc0250641527d44adb6c276cafe28016db7a6a0d204275b9820425",
    "ex2": "d99e994c93c4c34cd17d17ac5e5a7db1006bf88b7330f5bdac458f0923cd1c2e",
    "generated-00-polarized": "2761d62fb73cb15ba1f5b34abe57bd437ae26ba431500e2a55f099bcf043a84a",
    "generated-01-mismatched": "82b67582c01eacadd27bf408134349ea4aa19e65797fb6c3b9a259ba1ad11373",
    "generated-02-polarized": "9e3d89a7e04dffb72c20897252bec708bfb07de48b87e7c22d481d700325e69b",
    "generated-03-polarized": "1d725aeaabe2ebdd67f8e387a05558dd9c3fd0ace99d0825dceb8535a0b4e18a",
    "generated-04-polarized": "0f990d4bdabaa19d26cb2565d4a91ee898ed542a4e705cf9bc868ed6bd5ab43c",
    "generated-05-polarized": "384bd4652d598c75c6bab391e3bf18b5ccbaacb85042d109fe1da3b9a5f37fd5",
    "generated-06-polarized": "0799a13c4b2cf629b0194106d886f606a625905aad4669ffb85504a8927a173c",
    "generated-07-polarized": "1ce84fa687efda6fb625edfe54b8844f06452917f9ae93ecc45f437553f74fd0",
    "generated-08-polarized": "07a08f3173670f2848faf93c64136a01012473b9966705e8615a5a7497076d2e",
    "generated-09-mismatched": "5f006b484a5cd33f85ec09742adee007aef22e5dafa57aee1b9fb16e61bb1cd7",
    "generated-10-polarized": "3455cd56c16738b2721755d99278b53f2d87360515ee7b8147e66015b8530db3",
    "generated-11-polarized": "76423bbda7d6049846022975b25d93b0f46b599db3952473aca8d1152ab42279",
    "generated-12-irrational": "1e5d78266a92598cd1a1fd8b2160a35ec5dae9c0c5ba97e9a2e73c6e7aa1673b",
    "generated-13-mismatched": "5a9839dd7c7103ad98ee28d2231781a4bc28f957cb956e73eea90d64ada0503d",
    "generated-14-mismatched": "c276f1277f615cd017d00123ad3dd3d70f42fbbb1e24eba179de0f2ba522ba84",
    "generated-15-irrational": "b6a73d54a7586df857338e8f3d4fad85184a002ac232c8755a4dc0be54b14897",
    "generated-16-polarized": "94de1cf6f8a86b9708181e98eb6a718c513a9713ad2504790d9e115a7602f3eb",
    "generated-17-mismatched": "22b9c1b0a76414413ebf996bd51abedddbf93242dbbf6ab287d5f87637395ea5",
    "generated-18-irrational": "7d9c01b7edad20d268bd0342c33907fb8682565e5f4c195bb0288f85180dc441",
    "generated-19-mismatched": "fb6b8d2d3a357051f375c51c211c2a2edb8477c2da506938f38910d42a704ce9",
    "ns-irrational": "dfc0b4501d3f20473ed8283566a52db265603338e8dc3b30e5fcd86e8f0d47b2",
    "ns-not-polarized": "1da3dbcaff2789e94010a2945cae3d40fa75a804b4a7230765dbc0d15b561ec4",
    "proper-span-irrational": "cc5d4c6d209c159d8104fd78d399fa27c84dd95a4b9f46d789e2ea8b5fb41928",
    "proper-span-swap": "a23651941d89b846991ce9a613addbadb8e3a24a1e011a52b2cd4db1f42a0a3d",
    "psd2": "f5ae83a23bcd10e5ae24f11ad54996d6055f59ac40287039fc6e86d2754cec02",
    "psd2-irrational": "7ca4799937b72a762d65836e8497ad3711951c949cc80cf285ea5c297d6015ac",
    "tie-sqrt2-near": "c3f2ea5dfa2ac154af3ea929f72d159c18deacebee89ca5a0bed83af3826ed7a",
    "tie-sqrt2-near-point": "57202fb4e031bcf21acb3bb197774b6c088650ee64774cb2bcf931069d0712fe",
    "tie-sqrt2-point": "ae41994646eaa02df653921802c1934541847a8244f189b3b581ab903f3ac6ff",
}

CORPUS = _corpus()


def test_corpus_covers_every_generated_kind():
    kinds = {name.rsplit("-", 1)[1] for name in CORPUS if name.startswith("generated-")}
    assert kinds == {"polarized", "mismatched", "irrational"}
    assert CORPUS.keys() == DIGESTS.keys()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_report_digest(name):
    report = dumps_canonical(run_scenario(CORPUS[name], seed=3))
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[name], name
