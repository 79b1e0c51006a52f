"""Every curated local-model table, pinned entry for entry.

A table is serialized with its name, objects, generators, units, variables,
deformations, entries (inputs, output, printed coefficient, sign_unknown),
constraints, area and free symbols and offsets, all in their stored order,
and its SHA-256 is compared with a recorded digest.  A refactor of the
builders must leave every digest unchanged; a deliberate change to a table
re-records its digest.
"""

import hashlib
import json

import pytest

from tropmirror import ainf, dgcat, mf


def fingerprint(model) -> str:
    doc = {
        "name": model.name,
        "objects": list(model.objects),
        "generators": [[g.name, g.source, g.target, g.degree]
                       for g in model.generators.values()],
        "generator_keys": list(model.generators),
        "units": {k: list(v) for k, v in model.units.items()},
        "variables": {k: list(v) for k, v in model.variables.items()},
        "deformations": {k: dict(v) for k, v in model.deformations.items()},
        "entries": [[list(e.inputs), e.output, str(e.coeff), e.sign_unknown]
                    for e in model.entries],
        "constraints": {k: str(v) for k, v in model.constraints.items()},
        "area_symbols": list(model.area_symbols),
        "free_symbols": list(model.free_symbols),
        "offsets": {k: str(v) for k, v in model.offsets.items()},
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


TABLES = {
    "pants_strip": mf.pants_strip_model,
    "nonadjacent_strip": mf.nonadjacent_strip_model,
    **{f"winding_strip_m{m}{suffix}":
       (lambda m=m, exact=exact: mf.winding_strip_model(m, exact=exact))
       for m in range(5) for exact, suffix in ((False, ""), (True, "_exact"))},
    "infinite_edge_d3": mf.infinite_edge_model,
    "same_face_hom_d3": mf.same_face_hom_model,
    "different_face_hom_d3": mf.different_face_hom_model,
    "infinite_edge_q": mf.infinite_edge_q_model,
    "two_circle": dgcat._two_circle_model,
    **{name: (lambda name=name: ainf.load_model(name))
       for name in ("seidel_pants", "two_pants", "isotopy_pair", "circle_seidel")},
    "seidel_pants_exact": lambda: ainf.exact_reduce(ainf.load_model("seidel_pants")),
}

DIGESTS = {
    "circle_seidel": "d92338b6c477122a9abe58d219d45a72c93b9e9f562e9863762558023b6d36f2",
    "different_face_hom_d3": "469607cbea56109c2f56341781ef6cee5e8088041ffa7dd6b2638793feec096b",
    "infinite_edge_d3": "fd8e78b3cc07797749cb3641618ff6c13d026776c6027d81bd867088d2016529",
    "infinite_edge_q": "380e6f778088fd0c68cd8942f421c4adef9bdedfa76f66a492822ceee851f424",
    "isotopy_pair": "9292b34ada2c8b81dd057847372f657d0942214e1bc2eda97bf4fa52bc48acb9",
    "nonadjacent_strip": "755632bfe9ddd92affa59bd7610d011927c50d6f272913c8681899420d1cdf97",
    "pants_strip": "8332fe4f98bc3b88f10083247f8cb4d10cc5cdb9d171827bb7f192c58b7a043c",
    "same_face_hom_d3": "c0133480ee19d611134f54670c39b1d41cee60c271600d68f9ce6a3833834395",
    "seidel_pants": "b9af4affd20154fc80b7c925bb3d3937b375e532b5d2b5feac6ac6b8c7e58148",
    "seidel_pants_exact": "f5e66fa201e23f30e88dc9428de6fb2d638d96417f263e65db75170aa25fbd65",
    "two_circle": "2c4613b944a443a802ae2fb42e8735b02d10004070dac25e6a7cb840177d8ee6",
    "two_pants": "3e24a01b7b57c3b04394e06bae54630b8322dda71e4875dbec6a5fe4010b5ea4",
    "winding_strip_m0": "1e7ed3fee088bb0eb25a2ba87271d5ebadb20332e69ebd0a87d2dcfb0dcfa53e",
    "winding_strip_m0_exact": "33fdd60ee566f06933d4dff70222d65d8300edd0c863b327f680d0043f35a57d",
    "winding_strip_m1": "5cf1e424094e909e60f65c092e4853cd8c96ddd14aab05161de4f2312fd837fc",
    "winding_strip_m1_exact": "29063ae9859970c9107a66d77f376bb22a35ca57fd454f11cc452d620ca19316",
    "winding_strip_m2": "37e1b0bb384828f13e16a192cd5ec0d3e80c4082327161037bd6fdd8ac10a131",
    "winding_strip_m2_exact": "6bbc570b5dbc832294f95d20756bee85335c1c920a2378ee9f8e18d4bb078cf4",
    "winding_strip_m3": "dfd7793fed951980a2afcb942e178de628b83315c741665dfc49d2c6948cde3e",
    "winding_strip_m3_exact": "b782a06018449f8e9318217b626c8db30c7f4695bc70fc5e265569f2e70cd10b",
    "winding_strip_m4": "4974e436da32194282a5ba70e3eb6330712a7442065af3964a19d5cef5f6c4d0",
    "winding_strip_m4_exact": "1acd3287a1ceb618602576aff13142c330819ad03bcd466c62737069a373dd89",
}


@pytest.mark.parametrize("key", sorted(TABLES))
def test_table_digest(key):
    model = TABLES[key]()
    assert model.name == key
    assert fingerprint(model) == DIGESTS[key]
