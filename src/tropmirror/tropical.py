"""Tropical curves, dual fans, and glued toric Calabi-Yau mirror charts.

A trivalent tropical curve in the plane determines a toric Calabi-Yau
surface mirror by gluing one chart Spec Lambda[x,y,z] per vertex along the
finite edges.  This module loads and validates curve documents, builds the
dual fan, computes the exact/immersed chart transitions and their cocycle
and potential checks, and runs the chart-covering algorithm with its
pairwise-overlap certificate, all in exact rational arithmetic.

Every rational -- a position, dual point, exact offset, affine length,
chart delta, shift or stratum-interval end -- is in the normal form of
:mod:`tropmirror.symbolic` (``symbolic._frac``): an ``int`` when integral,
otherwise a ``Fraction``, never a float.  Only an interval end may also be
``-inf`` or ``inf``.  A document value is read through its ``str``
(``_parse_rational``), so a JSON float keeps its decimal digits exactly, and
then normalized; a quotient is built as ``_frac(Fraction(a, b))``, since
``int / int`` would give a float.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key
from importlib import resources
from math import gcd, inf
from pathlib import Path

from .lpoly import LaurentPoly, MonomialMap
from .novikov import T
from .symbolic import _frac

NEG_INF = -inf
POS_INF = inf

LETTERS = ("x", "y", "z")


def _parse_rational(v) -> int | Fraction:
    """A document value as an exact rational in normal form."""
    return _frac(str(v))


def _show(pair) -> str:
    """A pair of rationals as ``(a, b)``, each printed by ``str`` (``-1/2``)."""
    return f"({pair[0]}, {pair[1]})"


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _rot(w):
    """Rotate a primitive direction; crossing an edge shifts the dual point by this."""
    return (w[1], -w[0])


def _primitive(w) -> bool:
    return (w[0], w[1]) != (0, 0) and gcd(abs(w[0]), abs(w[1])) == 1


def _angle_cmp(u, v) -> int:
    """Exact counterclockwise comparison of nonzero plane vectors from the +x axis."""

    def half(d):
        return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1

    if half(u) != half(v):
        return half(u) - half(v)
    c = _cross(u, v)
    return 0 if c == 0 else (-1 if c > 0 else 1)


# ---------------------------------------------------------------------------
# curve data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    id: str
    position: tuple  # two exact rationals in normal form
    edges: tuple  # three incident edge ids, binding local variables x, y, z


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple  # one or two vertex ids
    direction: tuple  # primitive outgoing direction at ends[0]
    a1: int | None = None
    a1_doc: int | None = None  # document value; a2 stays pinned to it under overrides

    @property
    def finite(self) -> bool:
        return len(self.ends) == 2


class CurveValidationError(ValueError):
    """Raised with the full list of violated invariants."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class TropicalCurve:
    def __init__(self, name, vertices, edges, anchor=None):
        self.name = name
        self.vertices = dict(vertices)
        self.edges = dict(edges)
        if anchor is None:
            anchor = {"edge": min(self.edges, default=None), "left": (0, 0)}
        self.anchor = anchor
        errors = self._validate()
        if not errors:
            errors += self._assign_dual_points()
        if errors:
            raise CurveValidationError(errors)
        self._build_faces()

    # -- basic accessors ----------------------------------------------------

    def direction_at(self, edge_id: str, vertex_id: str):
        e = self.edges[edge_id]
        if vertex_id == e.ends[0]:
            return e.direction
        if e.finite and vertex_id == e.ends[1]:
            return (-e.direction[0], -e.direction[1])
        raise KeyError(f"vertex {vertex_id} is not an end of edge {edge_id}")

    def letter(self, vertex_id: str, edge_id: str) -> str:
        return LETTERS[self.vertices[vertex_id].edges.index(edge_id)]

    def var(self, vertex_id: str, edge_id: str) -> str:
        return f"{vertex_id}.{self.letter(vertex_id, edge_id)}"

    def chart_vars(self, vertex_id: str):
        return tuple(f"{vertex_id}.{l}" for l in LETTERS)

    def affine_length(self, edge_id: str) -> int | Fraction:
        e = self.edges[edge_id]
        p1 = self.vertices[e.ends[0]].position
        p2 = self.vertices[e.ends[1]].position
        disp = (p2[0] - p1[0], p2[1] - p1[1])
        d = e.direction
        return _frac(Fraction(disp[0], d[0]) if d[0] else Fraction(disp[1], d[1]))

    def pairing(self, edge_id: str):
        """Pair the non-edge directions at the two ends of a finite edge.

        For the edge oriented ends[0] -> ends[1] with direction w, the
        direction alpha at ends[0] pairs with the unique beta at ends[1]
        such that alpha - beta = c*w; returns {"y": (a_edge, b_edge, c),
        "z": (a_edge, b_edge, c)} with "y" the pair on the left of w.
        The two c values sum to -2.
        """
        e = self.edges[edge_id]
        v1, v2 = e.ends
        w = e.direction
        out = {}
        for a_edge in self.vertices[v1].edges:
            if a_edge == edge_id:
                continue
            alpha = self.direction_at(a_edge, v1)
            side = "y" if _cross(w, alpha) > 0 else "z"
            for b_edge in self.vertices[v2].edges:
                if b_edge == edge_id:
                    continue
                beta = self.direction_at(b_edge, v2)
                diff = (alpha[0] - beta[0], alpha[1] - beta[1])
                if _cross(diff, w) == 0:
                    c = diff[0] // w[0] if w[0] else diff[1] // w[1]
                    out[side] = (a_edge, b_edge, c)
                    break
        return out

    def twist(self, edge_id: str) -> int:
        """d^e for the stored orientation: the pairing constant on the right of w."""
        return self.pairing(edge_id)["z"][2]

    def a2(self, edge_id: str) -> int:
        e = self.edges[edge_id]
        base = e.a1 if e.a1_doc is None else e.a1_doc
        return base + self.twist(edge_id)

    def exact_offset(self, vertex_id: str, edge_id: str) -> int | Fraction:
        """x_ex = T^offset * x with offset = -(v, (a,b))."""
        v = self.vertices[vertex_id]
        return _frac(-_dot(self.direction_at(edge_id, vertex_id), v.position))

    # -- validation -----------------------------------------------------------

    def _validate(self):
        errors = []
        if not self.edges:
            errors.append("curve: no edges")
        elif self.anchor["edge"] not in self.edges:
            errors.append(f"anchor: edge {self.anchor['edge']} does not exist")
        for vid, v in self.vertices.items():
            if len(v.edges) != 3 or len(set(v.edges)) != 3:
                errors.append(f"vertex {vid}: not trivalent")
                continue
            dirs = []
            for eid in v.edges:
                e = self.edges.get(eid)
                if e is None or vid not in e.ends:
                    errors.append(f"vertex {vid}: edge {eid} missing or not incident")
                    continue
                dirs.append(self.direction_at(eid, vid))
            if len(dirs) != 3:
                continue
            for d in dirs:
                if not _primitive(d):
                    errors.append(f"vertex {vid}: direction {d} not primitive")
            total = (sum(d[0] for d in dirs), sum(d[1] for d in dirs))
            if total != (0, 0):
                errors.append(f"vertex {vid}: unbalanced, directions sum to {total}")
            for i in range(3):
                for j in range(i + 1, 3):
                    if abs(_cross(dirs[i], dirs[j])) != 1:
                        errors.append(
                            f"vertex {vid}: directions {dirs[i]}, {dirs[j]} do not "
                            "span a unit dual triangle"
                        )
        for eid, e in self.edges.items():
            if e.finite:
                if e.a1 is None:
                    errors.append(f"edge {eid}: finite edge missing a1")
                p1 = self.vertices[e.ends[0]].position
                p2 = self.vertices[e.ends[1]].position
                disp = (p2[0] - p1[0], p2[1] - p1[1])
                if _cross(disp, e.direction) != 0 or _dot(disp, e.direction) <= 0:
                    errors.append(
                        f"edge {eid}: displacement {_show(disp)} is not a positive "
                        f"multiple of direction {e.direction}"
                    )
            else:
                v = self.vertices[e.ends[0]]
                if _dot(e.direction, v.position) < 0:
                    errors.append(
                        f"edge {eid}: infinite edge fails positivity "
                        f"(v,(a,b)) = {_dot(e.direction, v.position)} < 0"
                    )
        return errors

    # -- dual points, faces, fan ------------------------------------------------

    def _sorted_dirs(self, vid):
        """Incident edges in counterclockwise order of their outgoing directions."""
        v = self.vertices[vid]
        return sorted(
            v.edges, key=cmp_to_key(lambda a, b: _angle_cmp(
                self.direction_at(a, vid), self.direction_at(b, vid)))
        )

    def _gap_nodes(self, vid):
        """Gaps (angular sectors) at a vertex, keyed by the edge starting the sector."""
        order = self._sorted_dirs(vid)
        return [(order[i], order[(i + 1) % 3]) for i in range(3)]

    def _assign_dual_points(self):
        # Nodes are (vertex, start_edge); the gap starting at edge e is the
        # face on the left of the outgoing dart along e.  Within a vertex,
        # dual(left of w) = dual(right of w) + rot(w); across a finite edge
        # the left gap at one end is the right gap at the other.
        self._gaps = {vid: self._gap_nodes(vid) for vid in self.vertices}
        start_of = {}
        end_of = {}
        for vid, gaps in self._gaps.items():
            for s, t in gaps:
                start_of[(vid, s)] = (vid, s)
                end_of[(vid, t)] = (vid, s)
        points = {}
        errors = []

        def setp(node, p):
            if node in points:
                if points[node] != p:
                    errors.append(
                        f"dual triangulation inconsistent at {node}: "
                        f"{_show(points[node])} vs {_show(p)}"
                    )
                return []
            points[node] = p
            return [node]

        aedge = self.edges[self.anchor["edge"]]
        left = tuple(_parse_rational(c) for c in self.anchor["left"])
        queue = setp((aedge.ends[0], self.anchor["edge"]), left)
        while queue:
            vid, start = queue.pop()
            p = points[(vid, start)]
            w = self.direction_at(start, vid)
            r = _rot(w)
            # the gap ending at `start` sits on the right of the dart (vid, start)
            queue += setp(end_of[(vid, start)], (p[0] - r[0], p[1] - r[1]))
            # the gap starting at the sector's closing edge: step around the vertex
            _, closing = next(g for g in self._gaps[vid] if g[0] == start)
            wc = self.direction_at(closing, vid)
            rc = _rot(wc)
            queue += setp((vid, closing), (p[0] + rc[0], p[1] + rc[1]))
            # across the edge: left gap here is the right gap at the far end
            e = self.edges[start]
            if e.finite:
                other = e.ends[1] if vid == e.ends[0] else e.ends[0]
                # right gap of the dart (other, -w) = gap ending at `start` there
                queue += setp(end_of[(other, start)], p)
        for vid in self.vertices:
            for s, _ in self._gaps[vid]:
                if (vid, s) not in points:
                    errors.append(f"dual point unreachable at ({vid}, {s})")
        self._dual_points = points
        return errors

    def _build_faces(self):
        # Union gaps across finite edges into faces, keyed by dual point.
        faces = {}
        for (vid, start), p in self._dual_points.items():
            faces.setdefault(p, []).append((vid, start))
        self._faces = faces
        bounded = {}
        for p, nodes in faces.items():
            ok = True
            for vid, s in nodes:
                t = next(g[1] for g in self._gaps[vid] if g[0] == s)
                for eid in (s, t):
                    if not self.edges[eid].finite:
                        ok = False
            if ok:
                bounded[p] = nodes
        self._bounded_faces = bounded

    def faces(self):
        return dict(self._faces)

    def bounded_faces(self):
        return dict(self._bounded_faces)

    def face_boundary(self, point):
        """Counterclockwise boundary darts (vertex, edge) of a bounded face."""
        point = tuple(_parse_rational(c) for c in point)
        if point not in self._bounded_faces:
            where = ",".join(str(c) for c in point)
            raise ValueError(f"face {where} is not bounded" if point in self._faces
                             else f"no face with dual point {where}")
        return sorted(self._bounded_faces[point])

    def face_vertices(self, point):
        return sorted({vid for vid, _ in self.face_boundary(point)})


@dataclass(frozen=True)
class Fan:
    rays: tuple  # (a, b, 1) triples
    cones: dict  # vertex id -> tuple of rays


def dual_fan(curve: TropicalCurve) -> Fan:
    rays = sorted({(p[0], p[1], 1) for p in curve._dual_points.values()})
    cones = {}
    for vid in curve.vertices:
        pts = [curve._dual_points[(vid, s)] for s, _ in curve._gaps[vid]]
        cones[vid] = tuple(sorted((p[0], p[1], 1) for p in pts))
    return Fan(tuple(rays), cones)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_curve(document, a1_overrides=None) -> TropicalCurve:
    """Load a curve from a dict, a path, or a shipped curve name."""
    if isinstance(document, (str, Path)):
        path = Path(document)
        try:
            if path.suffix == ".json" and path.exists():
                text = path.read_text()
            else:
                text = resources.files("tropmirror.curves").joinpath(
                    f"{document}.json").read_text()
        except OSError as err:
            raise CurveValidationError(
                [f"curve {str(document)!r}: no such JSON file or shipped curve "
                 f"({type(err).__name__})"]) from err
        try:
            doc = json.loads(text)
        except ValueError as err:
            raise CurveValidationError([f"curve {str(document)!r}: invalid JSON: {err}"]) from err
    else:
        doc = document
    vertices, edges, errors = _parse_document(doc, a1_overrides or {})
    if errors:
        raise CurveValidationError(errors)
    return TropicalCurve(doc.get("name", "curve"), vertices, edges, doc.get("anchor"))


def _pair(values, convert) -> tuple:
    out = tuple(convert(v) for v in values)
    if len(out) != 2:
        raise ValueError(f"needs two entries, got {len(out)}")
    return out


def _integer(v) -> int:
    # int() would truncate a JSON float such as 1.5 without complaint
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _ids(values) -> tuple:
    out = tuple(values)
    if not all(isinstance(v, str) for v in out):
        raise TypeError("ids must be strings")
    return out


DOCUMENT_KEYS = ("anchor", "edges", "name", "vertices")
VERTEX_KEYS = ("edges", "position")
EDGE_KEYS = ("a1", "direction", "ends")
ANCHOR_KEYS = ("edge", "left")


def _known_keys(spec, keys, what):
    """Raise ValueError on the first key of the JSON object ``spec`` not in ``keys``."""
    unknown = sorted(set(spec) - set(keys), key=str) if isinstance(spec, dict) else []
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; {what} takes only {', '.join(keys)}")


def _parse_document(doc, overrides: dict):
    """Vertices, edges and the structural errors of a curve document.

    A malformed entry (a missing key, a value of the wrong shape or type,
    a key other than ``DOCUMENT_KEYS``, ``VERTEX_KEYS``, ``EDGE_KEYS`` or
    ``ANCHOR_KEYS`` at its level) becomes an error line instead of an
    exception; so does an a1 override that names no finite edge.
    """
    if not isinstance(doc, dict):
        return {}, {}, [f"curve document: expected a JSON object, got {type(doc).__name__}"]
    errors = [f"curve document: {key!r} must be a JSON object"
              for key in ("vertices", "edges") if not isinstance(doc.get(key), dict)]
    if not isinstance(doc.get("name", ""), str):
        errors.append("curve document: 'name' must be a string")

    def parse(where, build):
        try:
            return build()
        except KeyError as err:
            errors.append(f"{where}: missing {err.args[0]!r}")
        except (TypeError, ValueError, AttributeError, ZeroDivisionError) as err:
            errors.append(f"{where}: malformed ({err})")
        return None

    parse("curve document", lambda: _known_keys(doc, DOCUMENT_KEYS, "a curve document"))
    if errors:
        return {}, {}, errors

    vertices = {}
    for vid, spec in doc["vertices"].items():
        def build_vertex():
            _known_keys(spec, VERTEX_KEYS, "a vertex")
            return Vertex(vid, _pair(spec["position"], _parse_rational), _ids(spec["edges"]))
        vertex = parse(f"vertex {vid}", build_vertex)
        if vertex is not None:
            vertices[vid] = vertex
    edges = {}
    for eid, spec in doc["edges"].items():
        def build_edge():
            a1_doc = spec.get("a1")
            _known_keys(spec, EDGE_KEYS, "an edge")
            a1 = overrides.get(eid, a1_doc)
            ends = _ids(spec["ends"])
            if len(ends) not in (1, 2):
                raise ValueError(f"needs one or two ends, got {len(ends)}")
            return Edge(
                eid, ends, _pair(spec["direction"], _integer),
                _integer(a1) if a1 is not None else None,
                _integer(a1_doc) if a1_doc is not None else None,
            )
        edge = parse(f"edge {eid}", build_edge)
        if edge is not None:
            edges[eid] = edge
    for eid, edge in sorted(edges.items()):
        errors += [f"edge {eid}: end {v!r} is not a vertex" for v in edge.ends if v not in vertices]
    anchor = doc.get("anchor")
    if anchor is not None:
        parse("anchor", lambda: (_known_keys(anchor, ANCHOR_KEYS, "an anchor"),
                                 _ids([anchor["edge"]]), _pair(anchor["left"], _parse_rational)))
    errors += [f"a1 override {eid!r}: names no finite edge" for eid in sorted(overrides)
               if eid not in edges or not edges[eid].finite]
    return vertices, edges, errors


def conifold_curve(k: int) -> TropicalCurve:
    """Two-vertex curve gluing to O(-k) + O(k-2) over P^1 (a2 - a1 = k - 2)."""
    d = k - 2
    doc = {
        "name": f"conifold_k{k}",
        "vertices": {
            "v1": {"position": [0, 0], "edges": ["e", "y1", "z1"]},
            "v2": {"position": [0, 1], "edges": ["e", "y2", "z2"]},
        },
        "edges": {
            "e": {"ends": ["v1", "v2"], "direction": [0, 1], "a1": 0},
            "y1": {"ends": ["v1"], "direction": [-1, -d - 2]},
            "z1": {"ends": ["v1"], "direction": [1, d + 1]},
            "y2": {"ends": ["v2"], "direction": [1, 1]},
            "z2": {"ends": ["v2"], "direction": [-1, 0]},
        },
        "anchor": {"edge": "e", "left": [0, 0]},
    }
    return load_curve(doc)


# ---------------------------------------------------------------------------
# transitions, cocycles, potential
# ---------------------------------------------------------------------------


def _split_area(curve, edge_id):
    """(A, A_y) = ((w, disp), (beta, disp)) for the edge direction w, its
    displacement disp and the direction beta at ends[1] paired on the y
    side: the geometric split, which the exact offsets absorb."""
    e = curve.edges[edge_id]
    p1 = curve.vertices[e.ends[0]].position
    p2 = curve.vertices[e.ends[1]].position
    disp = (p2[0] - p1[0], p2[1] - p1[1])
    _, b_edge, _ = curve.pairing(edge_id)["y"]
    return (_frac(_dot(e.direction, disp)),
            _frac(_dot(curve.direction_at(b_edge, e.ends[1]), disp)))


def _unimodular_inverse(M):
    """Inverse of a 3x3 integer matrix of determinant +-1: det times its adjugate."""
    (a, b, c), (d, e, f), (g, h, i) = M
    adj = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if det not in (1, -1):
        raise ValueError("monomial map is not invertible over the integers")
    return [[det * x for x in row] for row in adj]


def edge_exponents(d: int) -> tuple:
    """The exponent rows of a finite edge's transition, d = a2 - a1.

    The rows are the far chart's edge, y-side and z-side variables over
    the near chart's: x2 = x1^{-1}, y2 = x1^{d+2} y1, z2 = x1^{-d} z1.
    ``transition_map`` and ``mf.glue_edge`` both read them here.
    """
    return ((-1, 0, 0), (d + 2, 1, 0), (-d, 0, 1))


def transition_map(curve, edge_id, exact) -> MonomialMap:
    """Express the far chart's variables in the near chart's variables.

    For the stored orientation ends[0] -> ends[1] the map has source the
    ends[1] chart and target the ends[0] chart, with the rows of
    ``edge_exponents`` placed through ``curve.pairing`` and Novikov factors
    T^{-A}, T^{A_y}, T^{A-A_y} of the geometric split ``_split_area`` in
    immersed mode.  This is the one builder of a chart map from the
    curve; ``atlas`` holds the exact maps in both orientations.
    """
    e = curve.edges[edge_id]
    if not e.finite:
        raise ValueError(f"edge {edge_id} is infinite")
    v1, v2 = e.ends
    pairs = curve.pairing(edge_id)
    if exact:
        units = (1, 1, 1)
    else:
        A, Ay = _split_area(curve, edge_id)
        units = (T(-A), T(Ay), T(A - Ay))
    ay_edge, by_edge, _ = pairs["y"]
    az_edge, bz_edge, _ = pairs["z"]
    near = [curve.var(v1, eid) for eid in (edge_id, ay_edge, az_edge)]
    far = [curve.var(v2, eid) for eid in (edge_id, by_edge, bz_edge)]
    rows = edge_exponents(curve.a2(edge_id) - e.a1)
    table = {v: (u, dict(zip(near, row))) for v, u, row in zip(far, units, rows)}
    return MonomialMap.build(curve.chart_vars(v2), curve.chart_vars(v1), table)


def offset_rescaling(curve, vertex_id, sign=1) -> MonomialMap:
    """Diagonal map var -> T^{sign*offset} var relating immersed and exact charts."""
    names = curve.chart_vars(vertex_id)
    table = {}
    for eid, name in zip(curve.vertices[vertex_id].edges, names):
        off = curve.exact_offset(vertex_id, eid)
        table[name] = (T(sign * off), {name: 1})
    return MonomialMap.build(names, names, table)


def absorbs_offsets(curve, edge_id, atlas) -> bool:
    """Whether exact-offset rescaling turns the immersed transition exact."""
    e = curve.edges[edge_id]
    imm = transition_map(curve, edge_id, exact=False)
    d2 = offset_rescaling(curve, e.ends[1], sign=1)
    d1 = offset_rescaling(curve, e.ends[0], sign=-1)
    return d2.compose(imm).compose(d1) == atlas.maps[(edge_id, e.ends[1])]


@dataclass(frozen=True)
class Atlas:
    """The exact chart maps of one curve, each built once.

    ``maps`` sends (finite edge, vertex) to the edge's exact transition
    with source the chart at that vertex.  ``matrices`` express each
    chart's exact variables in those of the anchor edge's first end, and
    ``inverses`` are their inverses.
    """

    maps: dict
    matrices: dict
    inverses: dict


def atlas(curve) -> Atlas:
    """Build each finite edge's exact transition once, with its inverse,
    and compose them along the spanning tree from the anchor's chart."""
    maps = {}
    for eid, e in sorted(curve.edges.items()):
        if e.finite:
            fwd = transition_map(curve, eid, exact=True)
            rows = tuple(map(tuple, _unimodular_inverse(fwd.rows)))
            maps[(eid, e.ends[1])] = fwd
            # exact units are 1, so the inverse keeps them
            maps[(eid, e.ends[0])] = MonomialMap(fwd.target, fwd.source, fwd.units, rows)
    base = curve.edges[curve.anchor["edge"]].ends[0]
    matrices = {base: [[int(i == j) for j in range(3)] for i in range(3)]}
    parent, _ = _spanning_tree(curve, base)
    for w, (u, eid) in parent.items():
        matrices[w] = _mat_mul(maps[(eid, w)].rows, matrices[u])
    return Atlas(maps, matrices, {v: _unimodular_inverse(M) for v, M in matrices.items()})


def _spanning_tree(curve, root):
    """Breadth-first spanning tree of the finite edges from ``root``.

    Each vertex visits its finite edges in sorted order.  Returns (parent,
    non_tree): parent maps each reached vertex but the root, in the order
    reached, to (parent vertex, tree edge); non_tree lists the other finite
    edges in the order met.
    """
    incident = {v: [] for v in curve.vertices}
    for eid in sorted(curve.edges):
        if curve.edges[eid].finite:
            for v in curve.edges[eid].ends:
                incident[v].append(eid)
    parent = {}
    tree_edges = set()
    non_tree = []
    queue = [root]
    for v in queue:
        for eid in incident[v]:
            a, b = curve.edges[eid].ends
            other = b if v == a else a
            if other == root or other in parent:
                if eid not in tree_edges and eid not in non_tree:
                    non_tree.append(eid)
                continue
            parent[other] = (v, eid)
            tree_edges.add(eid)
            queue.append(other)
    return parent, non_tree


def cocycle_check(curve, atlas) -> dict:
    """Compose the ``atlas`` transitions around every independent cycle of the curve."""
    parent, non_tree = _spanning_tree(curve, sorted(curve.vertices)[0])
    cycles = []
    for eid in non_tree:
        a, b = curve.edges[eid].ends
        path_a = _tree_path(parent, a)
        path_b = _tree_path(parent, b)
        common = [v for v in path_a if v in path_b][0]
        up = path_a[: path_a.index(common) + 1]  # a .. common
        down = list(reversed(path_b[: path_b.index(common) + 1]))  # common .. b
        steps = [(parent[u][1], u) for u in up[:-1]]
        steps += [(parent[w][1], u) for u, w in zip(down, down[1:])]
        steps.append((eid, b))  # close the cycle along the non-tree edge
        composite = None
        for step_edge, u in steps:
            # each map has source = chart at u, target = the next chart;
            # folding forward expresses the start chart in itself at the end
            m = atlas.maps[(step_edge, u)]
            composite = m if composite is None else composite.compose(m)
        ident = composite.is_identity()
        cycles.append({
            "edges": [s[0] for s in steps],
            "identity": ident,
            "residual": None if ident else str(composite),
        })
    return {"ok": all(c["identity"] for c in cycles), "cycles": cycles}


def _tree_path(parent, v):
    path = [v]
    while path[-1] in parent:
        path.append(parent[path[-1]][0])
    return path


def potential(curve, vertex_id) -> LaurentPoly:
    """W = x*y*z in the chart at a vertex (exact and immersed agree)."""
    names = curve.chart_vars(vertex_id)
    return LaurentPoly.monomial(names, (1, 1, 1))


def global_potential_check(curve, atlas, exact=True) -> dict:
    """W = xyz of each finite edge's far chart pulls back to the near chart's
    W, through the exact transition of ``atlas`` or the immersed one."""
    edges = {}
    for eid in sorted(curve.edges):
        e = curve.edges[eid]
        if not e.finite:
            continue
        mm = atlas.maps[(eid, e.ends[1])] if exact else transition_map(curve, eid, exact=False)
        w2 = potential(curve, e.ends[1])
        edges[eid] = mm.substitute(w2) == potential(curve, e.ends[0])
    return {"ok": all(edges.values()), "edges": edges}


# ---------------------------------------------------------------------------
# charts, strata, covering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A vertex chart with an accumulated stack of deformations.

    Each deformation is (letter, shift): it lowers the valuation bound of
    the named variable by the shift and raises the other two by it.  The
    deltas and the hash are computed once, at construction; ``deltas()``
    returns that one dict, which callers only read.
    """

    vertex: str
    deformations: tuple = ()

    def __post_init__(self):
        d = dict.fromkeys(LETTERS, 0)
        for letter, shift in self.deformations:
            for l in LETTERS:
                d[l] += shift if l != letter else -shift
        object.__setattr__(self, "_deltas", {l: _frac(v) for l, v in d.items()})
        object.__setattr__(self, "_hash", hash((self.vertex, self.deformations)))

    def __hash__(self):
        return self._hash

    @property
    def label(self) -> str:
        tags = "".join(f"~{letter}[{shift}]" for letter, shift in self.deformations)
        return f"S({self.vertex}){tags}"

    def deltas(self) -> dict:
        return self._deltas

    def deformed(self, letter, shift) -> "Chart":
        return Chart(self.vertex, self.deformations + ((letter, _frac(shift)),))


def _mat_mul(A, B):
    """The product of two 3x3 integer matrices."""
    cols = tuple(zip(*B))
    return [[a0 * b0 + a1 * b1 + a2 * b2 for b0, b1, b2 in cols] for a0, a1, a2 in A]


def _stratum_rows(curve, atlas) -> dict:
    """Binding constraints of every vertex chart on every edge stratum.

    Maps (vertex, edge) to None when the chart never meets the stratum, else
    to a list of (letter, m, offset): the constraint reads
    delta_letter + offset <= m * tau, from the chart matrices of ``atlas``.
    """
    # every chart in the chart of each edge's first end, one product per pair
    firsts = {e.ends[0] for e in curve.edges.values()}
    relative = {(vid, u): _mat_mul(atlas.matrices[vid], atlas.inverses[u])
                for u in firsts for vid in curve.vertices}
    offsets = {vid: [curve.exact_offset(vid, eid) for eid in cv.edges]
               for vid, cv in curve.vertices.items()}
    table = {}
    for eid, e in curve.edges.items():
        u = e.ends[0]
        idx = curve.vertices[u].edges.index(eid)
        for vid in curve.vertices:
            N = relative[(vid, u)]
            rows = []
            for s in range(3):
                vanish = [N[s][j] for j in range(3) if j != idx]
                if any(c < 0 for c in vanish):
                    rows = None
                    break
                if not any(c > 0 for c in vanish):
                    rows.append((LETTERS[s], N[s][idx], offsets[vid][s]))
            table[(vid, eid)] = rows
    return table


def stratum_interval(chart, rows):
    """Closed interval of an edge stratum covered by a chart, or None.

    The stratum of an edge is parameterized by the valuation tau of the
    reference chart's exact edge variable; the other two reference
    variables vanish there.  ``rows`` are the chart vertex's constraints on
    the stratum, as ``_stratum_rows`` gives them.
    """
    if rows is None:
        return None
    deltas = chart.deltas()
    lo, hi = NEG_INF, POS_INF
    for letter, m, offset in rows:
        rhs = deltas[letter] + offset
        if m > 0:
            lo = max(lo, _frac(Fraction(rhs, m)))
        elif m < 0:
            hi = min(hi, _frac(Fraction(rhs, m)))
        elif rhs > 0:
            return None
    if lo > hi:
        return None
    return (lo, hi)


def required_interval(curve, edge_id):
    e = curve.edges[edge_id]
    return (NEG_INF, POS_INF) if e.finite else (0, POS_INF)


def _covers(intervals, required):
    lo, hi = required
    ivals = sorted(i for i in intervals if i is not None)
    covered = None
    for a, b in ivals:
        if covered is None:
            if a > lo:
                return False
            covered = b
        elif a <= covered:
            covered = max(covered, b)
    if covered is None:
        return False
    return covered >= hi


def covering_certificate(curve, charts, atlas) -> dict:
    """Exact coverage and pairwise-only-overlap certificate for a chart list."""
    table = _OverlapTable(curve, _stratum_rows(curve, atlas))
    for chart in charts:
        table.add(chart)
    return table.certificate()


def _fmt_end(v):
    if v == NEG_INF:
        return "-inf"
    if v == POS_INF:
        return "inf"
    return str(v)


def _ring(curve, face_point):
    """Clockwise vertex ring around a bounded face."""
    verts = curve.face_vertices(face_point)
    n = len(verts)
    cx = _frac(Fraction(sum(curve.vertices[v].position[0] for v in verts), n))
    cy = _frac(Fraction(sum(curve.vertices[v].position[1] for v in verts), n))
    rel = {}
    for v in verts:
        x, y = curve.vertices[v].position
        rel[v] = (x - cx, y - cy)
    return sorted(verts, key=cmp_to_key(lambda a, b: -_angle_cmp(rel[a], rel[b])))


def _edge_between(curve, u, w):
    for eid in curve.vertices[u].edges:
        if curve.edges[eid].finite and set(curve.edges[eid].ends) == {u, w}:
            return eid
    return None


@cache
def _shifts() -> tuple:
    """Deformation shifts n/d, 1 <= d <= 4, 1 <= n <= 400, smallest first."""
    return tuple(sorted({_frac(Fraction(n, d)) for d in range(1, 5) for n in range(1, 401)}))


def covering_collection(curve, atlas):
    """Build a chart collection covering the critical strata with pairwise overlaps.

    Starts with undeformed charts at vertices touching an infinite edge,
    then walks the bounded faces in increasing order of their dual point,
    deforming each ring chart toward its clockwise predecessor with the
    smallest shift of ``_shifts()`` that keeps a genuine overlap and
    creates no triple overlap.  That walk leaves a finite edge that borders
    no bounded face (the conifold's) uncovered, so a stretched chart -- the
    winding-strip chart of Section 8 in tropical terms -- is added across
    it, deformed from the edge's first end by the edge length plus 1/2.
    The strata come from the chart matrices of ``atlas``.  Every chart is
    added to one ``_OverlapTable`` as it is placed, and the certificate is
    read from that table once, after the last chart.
    Returns (charts, certificate).

    A placement does not walk all of ``_shifts()``.  Each end of a
    candidate's interval on the shared stratum is a max or min of lines in
    the shift h, so overlapping the predecessor with nonempty interior is a
    conjunction of linear inequalities in h.  ``_shift_range`` solves them
    in exact arithmetic for a closed range [L, U] that every passing shift
    lies in; the shifts in it are then tried smallest first with the exact
    test.  Every shift below L fails the overlap test, so the first shift
    accepted is the first admissible one of all of ``_shifts()``, and an
    empty range is a failed placement.  Each candidate is tested only
    against the table's pairwise intersections, that is, only in the
    triples that contain it.
    """
    placed = _OverlapTable(curve, _stratum_rows(curve, atlas))
    at = placed.at
    for vid in sorted(curve.vertices, key=lambda v: (curve.vertices[v].position, v)):
        if any(not curve.edges[e].finite for e in curve.vertices[vid].edges):
            placed.add(Chart(vid))
    failures = []
    for point in sorted(curve.bounded_faces()):
        ring = _ring(curve, point)
        start = min([v for v in ring if at[v]] or ring,
                    key=lambda v: (curve.vertices[v].position, v))
        i0 = ring.index(start)
        ring = ring[i0:] + ring[:i0]
        pre_face = {v for v in ring if at[v]}
        for pos in list(range(1, len(ring))) + [0]:
            v = ring[pos]
            prev_v = ring[pos - 1]
            shared = _edge_between(curve, v, prev_v)
            if shared is None:
                continue
            if at[v] and shared not in placed.triples and placed.covers(shared):
                continue
            if not at[prev_v]:
                continue
            base = at[v][-1] if at[v] else Chart(v)
            prev_chart = at[prev_v][0] if prev_v in pre_face else at[prev_v][-1]
            chart = _place(placed, base, curve.letter(v, shared), prev_chart, shared)
            if chart is None:
                failures.append({"face": [str(c) for c in point], "vertex": v,
                                 "edge": shared})
            else:
                placed.add(chart)
    # the gaps are read before any stretched chart is added
    gaps = [eid for eid in sorted(curve.edges)
            if curve.edges[eid].finite and not placed.covers(eid)]
    for eid in gaps:
        vid = curve.edges[eid].ends[0]
        placed.add(Chart(vid).deformed(curve.letter(vid, eid),
                                       curve.affine_length(eid) + Fraction(1, 2)))
    cert = placed.certificate()
    if failures:
        cert["ok"] = False
        cert["failures"] = failures
    return placed.charts, cert


class _OverlapTable:
    """The charts placed on a curve, numbered in placement order, with their
    intervals, nonempty pairwise intersections and triples sharing a point
    on every edge stratum, kept as each chart is added.

    A triple shares a point exactly when its last chart meets the
    intersection of the other two, so ``add`` finds each triple as its
    last chart arrives.  Charts are only ever added, so an edge in
    ``triples`` stays there.  The covering certificate is read from the
    table (``certificate``).  ``rows`` are the curve's stratum rows, as
    ``_stratum_rows`` gives them; each chart's interval on each stratum is
    computed once.
    """

    def __init__(self, curve, rows):
        self.curve = curve
        self.rows = rows
        self.interval = cache(lambda chart, eid: stratum_interval(chart, rows[(chart.vertex, eid)]))
        self.charts = []
        self.at = {vid: [] for vid in curve.vertices}  # charts by vertex, in placement order
        self.intervals = {eid: [] for eid in curve.edges}  # (chart number, nonempty interval)
        self.pairs = {eid: [] for eid in curve.edges}  # (i, j, nonempty intersection), i < j
        self.triples = {}  # edge -> (i, j, k) of the triples sharing a point there

    def add(self, chart):
        k = len(self.charts)
        self.charts.append(chart)
        self.at[chart.vertex].append(chart)
        for eid, ivs in self.intervals.items():
            iv = self.interval(chart, eid)
            if iv is None:
                continue
            pairs = self.pairs[eid]
            met = [(i, j, k) for i, j, (lo, hi) in pairs if max(lo, iv[0]) <= min(hi, iv[1])]
            if met:
                self.triples.setdefault(eid, []).extend(met)
            pairs += [(i, k, (max(lo, iv[0]), min(hi, iv[1]))) for i, (lo, hi) in ivs
                      if max(lo, iv[0]) <= min(hi, iv[1])]
            ivs.append((k, iv))

    def covers(self, eid) -> bool:
        """Whether the charts' intervals cover the edge's required interval."""
        return _covers([iv for _, iv in self.intervals[eid]],
                       required_interval(self.curve, eid))

    def overlaps(self, vertex):
        """The nonempty pairwise intersections on the edge strata that a
        chart at ``vertex`` can meet, by edge."""
        return {eid: [iv for _, _, iv in pairs] for eid, pairs in self.pairs.items()
                if pairs and self.rows[(vertex, eid)] is not None}

    def certificate(self) -> dict:
        """Exact coverage and pairwise-only-overlap certificate of the charts
        added: each edge's intervals in chart order, its triples by (i, j, k)."""
        labels = [c.label for c in self.charts]
        strata = []
        for eid in sorted(self.intervals):
            triples = sorted(self.triples.get(eid, ()))
            strata.append({
                "edge": eid,
                "covered": self.covers(eid),
                "intervals": [{"chart": labels[n], "lo": _fmt_end(lo), "hi": _fmt_end(hi)}
                              for n, (lo, hi) in self.intervals[eid]],
                "triple_overlaps": [[labels[n] for n in t] for t in triples],
            })
        ok = all(s["covered"] and not s["triple_overlaps"] for s in strata)
        return {"ok": ok, "strata": strata}


def _place(placed, base, letter, prev_chart, shared):
    """``base`` deformed along ``letter`` by the smallest admissible shift, or
    None, given the ``_OverlapTable`` of the charts ``placed`` so far."""
    interval = placed.interval
    prev_iv = interval(prev_chart, shared)
    lo, hi = _shift_range(placed.rows[(base.vertex, shared)], base, letter, prev_iv)
    shifts = _shifts()
    tried = shifts[bisect_left(shifts, lo):bisect_right(shifts, hi)]
    if not tried or placed.triples:
        return None  # no shift overlaps, or three placed charts already share a point
    overlaps = placed.overlaps(base.vertex)
    for h in tried:
        cand = base.deformed(letter, h)
        if _admissible(interval, cand, prev_iv, shared, overlaps):
            return cand
    return None


def _shift_range(rows, base, letter, prev_iv):
    """Closed range (L, U) holding every shift h at which ``base`` deformed
    along ``letter`` by h overlaps ``prev_iv`` with nonempty interior.

    ``rows`` are the base vertex's rows on the shared stratum.  Each row
    reads c + s*h <= m*tau with c = delta + offset of the base chart and
    s = -1 on ``letter``, +1 on the other two, so the candidate's lower end
    is the max of the lines (s/m)*h + c/m over rows with m > 0, its upper
    end the min over rows with m < 0, and a row with m = 0 needs
    c + s*h <= 0.  The overlap holds exactly when every lower line (and the
    predecessor's finite lower end) lies below every upper line (and the
    predecessor's finite upper end); each such pair bounds h on one side.
    Strict bounds are returned closed, so the range may still hold shifts
    that fail, never miss one that passes.  L > U when no shift can pass.
    """
    empty = (POS_INF, NEG_INF)
    if rows is None or prev_iv is None:
        return empty
    deltas = base.deltas()
    lower = [(0, prev_iv[0])] if prev_iv[0] != NEG_INF else []
    upper = [(0, prev_iv[1])] if prev_iv[1] != POS_INF else []
    lo, hi = NEG_INF, POS_INF
    for l, m, offset in rows:
        slope = -1 if l == letter else 1
        const = _frac(deltas[l] + offset)
        if m == 0:
            if slope > 0:
                hi = min(hi, -const)
            else:
                lo = max(lo, const)
        else:
            (lower if m > 0 else upper).append((_frac(Fraction(slope, m)),
                                                _frac(Fraction(const, m))))
    for a, b in lower:
        for c, d in upper:
            # a*h + b < c*h + d
            if a > c:
                hi = min(hi, _frac(Fraction(d - b, a - c)))
            elif a < c:
                lo = max(lo, _frac(Fraction(d - b, a - c)))
            elif b >= d:
                return empty
    return lo, hi


def _meets(intervals, iv):
    """Whether the closed interval ``iv`` shares a point with one of ``intervals``."""
    return any(max(lo, iv[0]) <= min(hi, iv[1]) for lo, hi in intervals)


def _admissible(interval, cand, prev_iv, shared, overlaps):
    """Whether ``cand`` overlaps ``prev_iv`` on the shared stratum with nonempty
    interior and meets none of the placed charts' pairwise ``overlaps``."""
    new_iv = interval(cand, shared)
    if new_iv is None or max(new_iv[0], prev_iv[0]) >= min(new_iv[1], prev_iv[1]):
        return False
    for eid, pairs in overlaps.items():
        iv = interval(cand, eid)
        if iv is not None and _meets(pairs, iv):
            return False
    return True


def cone_image(curve, chart, atlas) -> dict:
    """Projected valuation cone of a chart: apex and rays in the plane.

    The chart region in global exact-valuation coordinates is
    {V : M V >= delta + offset} for M the chart's matrix in ``atlas``; its
    apex is M^{-1}(delta + offset) and its rays the columns of M^{-1}.
    Projection drops the last base coordinate.
    """
    Minv = atlas.inverses[chart.vertex]
    deltas = chart.deltas()
    cv = curve.vertices[chart.vertex]
    rhs = [deltas[LETTERS[s]] + curve.exact_offset(chart.vertex, cv.edges[s])
           for s in range(3)]
    apex = [_frac(sum(Minv[i][j] * rhs[j] for j in range(3))) for i in range(3)]
    keep = [0, 1]
    rays = []
    for j in range(3):
        ray = tuple(Minv[i][j] for i in keep)
        if ray != (0, 0) and ray not in rays:
            rays.append(ray)
    return {"apex": tuple(apex[i] for i in keep), "rays": rays}


# ---------------------------------------------------------------------------
# divisor data for faces
# ---------------------------------------------------------------------------


def divisor_data(curve, face_point, windings) -> list:
    """Divisor coefficients sum_e (a2^e + m^e) {z_e = 0} around a bounded face.

    ``windings`` maps each finite edge adjacent to the face to its winding
    integer m^e; z_e is labelled by the primitive direction of the edge
    along the counterclockwise boundary of the face.
    """
    out = []
    for vid, eid in curve.face_boundary(face_point):
        m = windings[eid]
        out.append({
            "edge": eid,
            "direction": curve.direction_at(eid, vid),
            "n": curve.affine_length(eid),
            "a2": curve.a2(eid),
            "coefficient": curve.a2(eid) + m,
        })
    return sorted(out, key=lambda r: r["edge"])


def line_bundle_degree(curve, face_point, windings):
    """k with m^e = k n^e - a2^e for every edge of the face, or None."""
    ks = {_frac(Fraction(row["coefficient"], row["n"]))
          for row in divisor_data(curve, face_point, windings)}
    if len(ks) == 1:
        k = ks.pop()
        if type(k) is int:
            return k
    return None
