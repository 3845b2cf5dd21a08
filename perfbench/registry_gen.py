"""Seeded registry-shaped instances and verdicts coded directly over their records.

An instance holds `drivers` independent drivers. Each driver has one vehicle,
one vehicle type, one license covering that type, one name and one birth
date; its vehicle has a seeded wheel count from {1, 2, 3, 4, 6} and a seeded
number of driving wheels that the sketch admits. A mutation then breaks
exactly one declaration, as the shipped registry mutations do:

- ``five-wheels``: one seeded vehicle gets five wheels;
- ``dup-identity``: one extra driver shares a seeded driver's name and date;
- ``unlicensed``: one seeded vehicle changes to a type no license covers.

The expected verdicts are computed from the records alone (counts per
vehicle, key tuples, license coverage), never through a pullback.
"""

from __future__ import annotations

import random

VARIANTS = ("valid", "five-wheels", "dup-identity", "unlicensed")
WHEEL_COUNTS = (1, 2, 3, 4, 6)
DRIVING_COUNTS = (1, 2, 4)

CARRIER_ARROWS = {
    "drives": ("Driver", "Vehicle"),
    "of": ("Vehicle", "VehType"),
    "lcdBy": ("Driver", "License"),
    "covers": ("License", "VehType"),
    "has": ("Vehicle", "Wheel"),
    "hasdr": ("Vehicle", "Wheel"),
    "name": ("Driver", "String"),
    "bdate": ("Driver", "Date"),
}
CARRIER_NODES = ("Date", "Driver", "License", "String", "VehType", "Vehicle", "Wheel")


def registry_records(rng: random.Random, drivers: int, variant: str) -> dict:
    """Node fibers and links ``(id, src, tgt)`` of one registry instance."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    nodes: dict[str, list[str]] = {n: [] for n in CARRIER_NODES}
    links: dict[str, list[tuple[str, str, str]]] = {a: [] for a in CARRIER_ARROWS}
    wheels = [rng.choice(WHEEL_COUNTS) for _ in range(drivers)]
    driving = [rng.choice([k for k in DRIVING_COUNTS if k <= w]) for w in wheels]
    target = rng.randrange(drivers)
    if variant == "five-wheels":
        wheels[target] = 5
    for i in range(drivers):
        d, v, t, lic = f"d{i}", f"v{i}", f"vt{i}", f"l{i}"
        nodes["Driver"].append(d)
        nodes["Vehicle"].append(v)
        nodes["VehType"].append(t)
        nodes["License"].append(lic)
        nodes["String"].append(f"name{i}")
        nodes["Date"].append(f"date{i}")
        links["drives"].append((f"dr{i}", d, v))
        links["of"].append((f"of{i}", v, t))
        links["lcdBy"].append((f"lc{i}", d, lic))
        links["covers"].append((f"cv{i}", lic, t))
        links["name"].append((f"nm{i}", d, f"name{i}"))
        links["bdate"].append((f"bd{i}", d, f"date{i}"))
        for j in range(wheels[i]):
            w = f"w{i}_{j}"
            nodes["Wheel"].append(w)
            links["has"].append((f"h{i}_{j}", v, w))
            if j < driving[i]:
                links["hasdr"].append((f"hd{i}_{j}", v, w))
    if variant == "dup-identity":
        nodes["Driver"].append("dX")
        links["name"].append(("nmX", "dX", f"name{target}"))
        links["bdate"].append(("bdX", "dX", f"date{target}"))
    elif variant == "unlicensed":
        nodes["VehType"].append("vtX")
        links["of"][target] = (f"of{target}", f"v{target}", "vtX")
    return {"nodes": nodes, "links": links}


def instance_json(records: dict) -> dict:
    """The records as a ``dcl`` instance file (kind ``instance``)."""
    nodes = [n for fiber in records["nodes"].values() for n in fiber]
    arrows = [
        {"id": link, "src": s, "tgt": t}
        for span in records["links"].values()
        for link, s, t in span
    ]
    return {
        "kind": "instance",
        "schema": {
            "nodes": list(CARRIER_NODES),
            "arrows": [
                {"id": a, "src": s, "tgt": t} for a, (s, t) in CARRIER_ARROWS.items()
            ],
        },
        "carrier": {"nodes": nodes, "arrows": arrows},
        "typing": {
            "nodes": {n: node for node, fiber in records["nodes"].items() for n in fiber},
            "arrows": {
                link: arrow
                for arrow, span in records["links"].items()
                for link, _, _ in span
            },
        },
    }


def _out_counts(records: dict, arrow: str) -> dict[str, int]:
    src_node = CARRIER_ARROWS[arrow][0]
    counts = {x: 0 for x in records["nodes"][src_node]}
    for _, s, _ in records["links"][arrow]:
        counts[s] += 1
    return counts


def expected_verdicts(records: dict) -> dict[str, bool]:
    """Declaration id of the shipped registry sketch -> whether it holds."""
    links = records["links"]
    pairs = {a: {(s, t) for _, s, t in span} for a, span in links.items()}
    licensed = all(
        any(
            (d, lic) in pairs["lcdBy"] and (lic, t) in pairs["covers"]
            for lic in records["nodes"]["License"]
        )
        for d, v in pairs["drives"]
        for v2, t in pairs["of"]
        if v == v2
    )
    keys = [
        (
            tuple(sorted(t for s, t in pairs["name"] if s == d)),
            tuple(sorted(t for s, t in pairs["bdate"] if s == d)),
        )
        for d in records["nodes"]["Driver"]
    ]
    return {
        "drives:[0..1]": all(c <= 1 for c in _out_counts(records, "drives").values()),
        "of:[1]": all(c == 1 for c in _out_counts(records, "of").values()),
        "has:[1..4,6]": all(
            c in (1, 2, 3, 4, 6) for c in _out_counts(records, "has").values()
        ),
        "hasdr:[1..2,4]": all(
            c in (1, 2, 4) for c in _out_counts(records, "hasdr").values()
        ),
        "hasdr-in-has:[sub]": pairs["hasdr"] <= pairs["has"],
        "licensed-drive:[sub4]": licensed,
        "driver-identity:[key]": len(set(keys)) == len(keys),
    }


# The one declaration each mutation is built to break.
BROKEN_BY = {
    "valid": None,
    "five-wheels": "has:[1..4,6]",
    "dup-identity": "driver-identity:[key]",
    "unlicensed": "licensed-drive:[sub4]",
}
