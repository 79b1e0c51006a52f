"""Tropical curves, dual fans, and glued toric Calabi-Yau mirror charts.

A trivalent tropical curve in the plane determines a toric Calabi-Yau
surface mirror by gluing one chart Spec Lambda[x,y,z] per vertex along the
finite edges.  This module loads and validates curve documents, builds the
dual fan, computes the exact/immersed chart transitions and their cocycle
and potential checks, and runs the chart-covering algorithm with its
pairwise-overlap certificate, all in exact rational arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from importlib import resources
from math import gcd, inf
from pathlib import Path

from .lpoly import LaurentPoly, MonomialMap
from .novikov import T, as_series

NEG_INF = -inf
POS_INF = inf

LETTERS = ("x", "y", "z")


def _frac(v) -> Fraction:
    return Fraction(str(v))


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
    position: tuple  # (Fraction, Fraction)
    edges: tuple  # three incident edge ids, binding local variables x, y, z


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple  # one or two vertex ids
    direction: tuple  # primitive outgoing direction at ends[0]
    a1: int | None = None
    a2_override: int | None = None
    ay_override: Fraction | None = None
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
            first = sorted(self.edges)[0]
            anchor = {"edge": first, "left": (Fraction(0), Fraction(0))}
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

    def affine_length(self, edge_id: str) -> Fraction:
        e = self.edges[edge_id]
        p1 = self.vertices[e.ends[0]].position
        p2 = self.vertices[e.ends[1]].position
        disp = (p2[0] - p1[0], p2[1] - p1[1])
        d = e.direction
        return disp[0] / d[0] if d[0] else disp[1] / d[1]

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
        if e.a2_override is not None:
            return e.a2_override
        base = e.a1 if e.a1_doc is None else e.a1_doc
        return base + self.twist(edge_id)

    def exact_offset(self, vertex_id: str, edge_id: str) -> Fraction:
        """x_ex = T^offset * x with offset = -(v, (a,b))."""
        v = self.vertices[vertex_id]
        return -Fraction(_dot(self.direction_at(edge_id, vertex_id), v.position))

    # -- validation -----------------------------------------------------------

    def _validate(self):
        errors = []
        if self.anchor["edge"] not in self.edges:
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
                        f"edge {eid}: displacement {disp} is not a positive "
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
                        f"{points[node]} vs {p}"
                    )
                return []
            points[node] = p
            return [node]

        aedge = self.edges[self.anchor["edge"]]
        left = tuple(Fraction(str(c)) for c in self.anchor["left"])
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
                far = self._gaps[other]
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
            edges_touched = set()
            ok = True
            for vid, s in nodes:
                t = next(g[1] for g in self._gaps[vid] if g[0] == s)
                for eid in (s, t):
                    if not self.edges[eid].finite:
                        ok = False
                    edges_touched.add(eid)
            if ok:
                bounded[p] = nodes
        self._bounded_faces = bounded

    def faces(self):
        return dict(self._faces)

    def bounded_faces(self):
        return dict(self._bounded_faces)

    def face_boundary(self, point):
        """Counterclockwise boundary darts (vertex, edge) of a bounded face."""
        point = tuple(Fraction(str(c)) for c in point)
        return sorted(self._bounded_faces[point])

    def face_vertices(self, point):
        return sorted({vid for vid, _ in self.face_boundary(point)})


@dataclass(frozen=True)
class Fan:
    rays: tuple  # (a, b, 1) triples
    cones: dict  # vertex id -> tuple of rays


def dual_fan(curve: TropicalCurve) -> Fan:
    rays = sorted({(p[0], p[1], Fraction(1)) for p in curve._dual_points.values()})
    cones = {}
    for vid in curve.vertices:
        pts = [curve._dual_points[(vid, s)] for s, _ in curve._gaps[vid]]
        cones[vid] = tuple(sorted((p[0], p[1], Fraction(1)) for p in pts))
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


def _parse_document(doc, overrides: dict):
    """Vertices, edges and the structural errors of a curve document.

    A malformed entry (a missing key, a value of the wrong shape or type)
    becomes an error line instead of an exception; so does an a1 override
    that names no finite edge.
    """
    if not isinstance(doc, dict):
        return {}, {}, [f"curve document: expected a JSON object, got {type(doc).__name__}"]
    errors = [f"curve document: {key!r} must be a JSON object"
              for key in ("vertices", "edges") if not isinstance(doc.get(key), dict)]
    if errors:
        return {}, {}, errors

    def parse(where, build):
        try:
            return build()
        except KeyError as err:
            errors.append(f"{where}: missing {err.args[0]!r}")
        except (TypeError, ValueError, AttributeError, ZeroDivisionError) as err:
            errors.append(f"{where}: malformed ({err})")
        return None

    vertices = {}
    for vid, spec in doc["vertices"].items():
        vertex = parse(f"vertex {vid}", lambda: Vertex(
            vid, _pair(spec["position"], _frac), _ids(spec["edges"])))
        if vertex is not None:
            vertices[vid] = vertex
    edges = {}
    for eid, spec in doc["edges"].items():
        def build():
            a1_doc = spec.get("a1")
            a1 = overrides.get(eid, a1_doc)
            areas = spec.get("areas", {})
            ends = _ids(spec["ends"])
            if len(ends) not in (1, 2):
                raise ValueError(f"needs one or two ends, got {len(ends)}")
            return Edge(
                eid, ends, _pair(spec["direction"], _integer),
                _integer(a1) if a1 is not None else None,
                _integer(spec["a2"]) if "a2" in spec else None,
                _frac(areas["Ay"]) if "Ay" in areas else None,
                _integer(a1_doc) if a1_doc is not None else None,
            )
        edge = parse(f"edge {eid}", build)
        if edge is not None:
            edges[eid] = edge
    for eid, edge in sorted(edges.items()):
        errors += [f"edge {eid}: end {v!r} is not a vertex" for v in edge.ends if v not in vertices]
    anchor = doc.get("anchor")
    if anchor is not None:
        parse("anchor", lambda: (_ids([anchor["edge"]]), _pair(anchor["left"], _frac)))
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


def _split_area(curve, edge_id, split):
    """(A, A_y) cylinder-area split for an immersed-mode transition."""
    e = curve.edges[edge_id]
    p1 = curve.vertices[e.ends[0]].position
    p2 = curve.vertices[e.ends[1]].position
    disp = (p2[0] - p1[0], p2[1] - p1[1])
    A = Fraction(_dot(e.direction, disp))
    if e.ay_override is not None:
        return A, e.ay_override
    if split == "geometric":
        _, b_edge, _ = curve.pairing(edge_id)["y"]
        return A, Fraction(_dot(curve.direction_at(b_edge, e.ends[1]), disp))
    if split == "half":
        return A, A / 2
    raise ValueError(f"unknown area split {split!r}")


def _invert(mm: MonomialMap) -> MonomialMap:
    n = len(mm.source)
    M = [[Fraction(0)] * n for _ in range(n)]
    units = []
    for i, src in enumerate(mm.source):
        img = mm.image_of(src)
        exps, unit = img.single_term()
        for j, e in enumerate(exps):
            M[i][j] = Fraction(e)
        units.append(unit)
    N = _mat_inv(M)
    table = {}
    for j, tgt in enumerate(mm.target):
        # tgt = prod_i src_i^{N_ji} * prod_i unit_i^{-N_ji}
        unit = as_series(1)
        exps = {}
        for i, src in enumerate(mm.source):
            c = N[j][i]
            if c.denominator != 1:
                raise ValueError("monomial map is not invertible over the integers")
            c = int(c)
            if c:
                exps[src] = c
                u = units[i].inv() if c > 0 else units[i]
                for _ in range(abs(c)):
                    unit = unit * u
        table[tgt] = (unit, exps)
    return MonomialMap.build(mm.target, mm.source, table)


def transition_map(curve, edge_id, exact=True, split="half", reverse=False) -> MonomialMap:
    """Express the far chart's variables in the near chart's variables.

    For the stored orientation ends[0] -> ends[1] the map has source the
    ends[1] chart and target the ends[0] chart: x2 = x1^{-1},
    y2 = x1^{a2-a1+2} y1, z2 = x1^{a1-a2} z1, with Novikov factors
    T^{-A}, T^{A_y}, T^{A_z} in immersed mode.  ``reverse`` inverts.
    """
    e = curve.edges[edge_id]
    if not e.finite:
        raise ValueError(f"edge {edge_id} is infinite")
    v1, v2 = e.ends
    d_used = curve.a2(edge_id) - e.a1
    pairs = curve.pairing(edge_id)
    x1 = curve.var(v1, edge_id)
    if exact:
        ux = uy = uz = 1
    else:
        A, Ay = _split_area(curve, edge_id, split)
        ux, uy, uz = T(-A), T(Ay), T(A - Ay)
    table = {curve.var(v2, edge_id): (ux, {x1: -1})}
    ay_edge, by_edge, _ = pairs["y"]
    az_edge, bz_edge, _ = pairs["z"]
    table[curve.var(v2, by_edge)] = (uy, {x1: d_used + 2, curve.var(v1, ay_edge): 1})
    table[curve.var(v2, bz_edge)] = (uz, {x1: -d_used, curve.var(v1, az_edge): 1})
    mm = MonomialMap.build(curve.chart_vars(v2), curve.chart_vars(v1), table)
    return _invert(mm) if reverse else mm


def offset_rescaling(curve, vertex_id, sign=1) -> MonomialMap:
    """Diagonal map var -> T^{sign*offset} var relating immersed and exact charts."""
    names = curve.chart_vars(vertex_id)
    table = {}
    for eid, name in zip(curve.vertices[vertex_id].edges, names):
        off = curve.exact_offset(vertex_id, eid)
        table[name] = (T(sign * off), {name: 1})
    return MonomialMap.build(names, names, table)


def absorbs_offsets(curve, edge_id, split="geometric") -> bool:
    """Whether exact-offset rescaling turns the immersed transition exact."""
    e = curve.edges[edge_id]
    imm = transition_map(curve, edge_id, exact=False, split=split)
    d2 = offset_rescaling(curve, e.ends[1], sign=1)
    d1 = offset_rescaling(curve, e.ends[0], sign=-1)
    rescaled = d2.compose(imm).compose(d1)
    exact = transition_map(curve, edge_id, exact=True)
    return all(
        rescaled.image_of(v) == exact.image_of(v) for v in rescaled.source
    )


def _step_map(curve, edge_id, src_vertex, exact=True, split="half"):
    """Transition with source the chart at ``src_vertex``."""
    e = curve.edges[edge_id]
    return transition_map(
        curve, edge_id, exact=exact, split=split, reverse=(src_vertex != e.ends[1])
    )


def cocycle_check(curve, exact=True, split="half") -> dict:
    """Compose the transitions around every independent cycle of the curve."""
    incident = {v: [] for v in curve.vertices}
    for eid in sorted(curve.edges):
        if curve.edges[eid].finite:
            for v in curve.edges[eid].ends:
                incident[v].append(eid)
    root = sorted(curve.vertices)[0]
    parent = {}  # vertex -> (parent vertex, tree edge)
    seen = {root}
    queue = [root]
    tree_edges = set()
    non_tree = []
    while queue:
        v = queue.pop(0)
        for eid in incident[v]:
            a, b = curve.edges[eid].ends
            other = b if v == a else a
            if other in seen:
                if eid not in tree_edges and eid not in non_tree:
                    non_tree.append(eid)
                continue
            seen.add(other)
            parent[other] = (v, eid)
            tree_edges.add(eid)
            queue.append(other)
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
            m = _step_map(curve, step_edge, u, exact=exact, split=split)
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


def global_potential_check(curve, exact=True, split="half") -> dict:
    edges = {}
    for eid in sorted(curve.edges):
        e = curve.edges[eid]
        if not e.finite:
            continue
        mm = transition_map(curve, eid, exact=exact, split=split)
        w2 = potential(curve, e.ends[1])
        edges[eid] = mm.substitute(w2) == potential(curve, e.ends[0])
    return {"ok": all(edges.values()), "edges": edges}


# ---------------------------------------------------------------------------
# charts, strata, covering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A vertex chart with an accumulated stack of deformations.

    Each deformation is (letter, shift, style): style "tilde" lowers the
    valuation bound of the named variable by the shift and raises the other
    two by it; style "prime" lowers it by twice the shift.
    """

    vertex: str
    deformations: tuple = ()

    @property
    def label(self) -> str:
        mark = {"tilde": "~", "prime": "'"}
        tags = "".join(
            f"{mark[style]}{letter}[{shift}]" for letter, shift, style in self.deformations
        )
        return f"S({self.vertex}){tags}"

    def deltas(self):
        d = {l: Fraction(0) for l in LETTERS}
        for letter, shift, style in self.deformations:
            drop = 2 * shift if style == "prime" else shift
            for l in LETTERS:
                d[l] += shift if l != letter else -drop
        return d

    def deformed(self, letter, shift, style="tilde") -> "Chart":
        return Chart(self.vertex, self.deformations + ((letter, Fraction(shift), style),))


def _mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def _mat_inv(M):
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [c / pv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def chart_matrices(curve) -> dict:
    """Integer matrices expressing each chart's exact variables in base-chart ones."""
    base = curve.edges[curve.anchor["edge"]].ends[0]
    mats = {base: [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]}
    queue = [base]
    finite = [e for e in sorted(curve.edges) if curve.edges[e].finite]
    while queue:
        u = queue.pop(0)
        for eid in finite:
            e = curve.edges[eid]
            if u not in e.ends:
                continue
            w = e.ends[1] if u == e.ends[0] else e.ends[0]
            if w in mats:
                continue
            mm = _step_map(curve, eid, w, exact=True)
            E = [[Fraction(0)] * 3 for _ in range(3)]
            for i, name in enumerate(curve.chart_vars(w)):
                exps, _ = mm.image_of(name).single_term()
                for j, c in enumerate(exps):
                    E[i][j] = Fraction(c)
            mats[w] = _mat_mul(E, mats[u])
            queue.append(w)
    return mats


def _stratum_rows(curve, vertex_id, edge_id, matrices):
    """Binding constraints of a vertex chart on an edge stratum, cached.

    Returns None when the chart never meets the stratum, else a list of
    (letter, m, a): the constraint reads delta_letter - a <= m * tau.
    """
    cache = curve.__dict__.setdefault("_stratum_rows", {})
    key = (vertex_id, edge_id)
    if key in cache:
        return cache[key]
    e = curve.edges[edge_id]
    u = e.ends[0]
    idx = curve.vertices[u].edges.index(edge_id)
    N = _mat_mul(matrices[vertex_id], _mat_inv(matrices[u]))
    cv = curve.vertices[vertex_id]
    rows = []
    for s in range(3):
        vanish = [N[s][j] for j in range(3) if j != idx]
        if any(c < 0 for c in vanish):
            rows = None
            break
        if any(c > 0 for c in vanish):
            continue
        a = Fraction(_dot(curve.direction_at(cv.edges[s], vertex_id), cv.position))
        rows.append((LETTERS[s], N[s][idx], a))
    cache[key] = rows
    return rows


def stratum_interval(curve, chart, edge_id, matrices):
    """Closed interval of the stratum covered by a chart, or None.

    The stratum of an edge is parameterized by the valuation tau of the
    reference chart's exact edge variable; the other two reference
    variables vanish there.
    """
    rows = _stratum_rows(curve, chart.vertex, edge_id, matrices)
    if rows is None:
        return None
    deltas = chart.deltas()
    lo, hi = NEG_INF, POS_INF
    for letter, m, a in rows:
        rhs = deltas[letter] - a
        if m > 0:
            lo = max(lo, rhs / m)
        elif m < 0:
            hi = min(hi, rhs / m)
        elif rhs > 0:
            return None
    if lo > hi:
        return None
    return (lo, hi)


def required_interval(curve, edge_id):
    e = curve.edges[edge_id]
    return (NEG_INF, POS_INF) if e.finite else (Fraction(0), POS_INF)


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


def _triple_violations(per_chart):
    """Chart triples with a common point on the stratum."""
    items = [(label, iv) for label, iv in per_chart if iv is not None]
    bad = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            for k in range(j + 1, len(items)):
                lo = max(items[i][1][0], items[j][1][0], items[k][1][0])
                hi = min(items[i][1][1], items[j][1][1], items[k][1][1])
                if lo <= hi:
                    bad.append((items[i][0], items[j][0], items[k][0]))
    return bad


def covering_certificate(curve, charts, matrices=None) -> dict:
    """Exact coverage and pairwise-only-overlap certificate for a chart list."""
    matrices = matrices or chart_matrices(curve)
    strata = []
    ok = True
    for eid in sorted(curve.edges):
        per_chart = [
            (c.label, stratum_interval(curve, c, eid, matrices)) for c in charts
        ]
        covered = _covers([iv for _, iv in per_chart], required_interval(curve, eid))
        triples = _triple_violations(per_chart)
        ok = ok and covered and not triples
        strata.append({
            "edge": eid,
            "covered": covered,
            "intervals": [
                {"chart": label, "lo": _fmt_end(iv[0]), "hi": _fmt_end(iv[1])}
                for label, iv in per_chart if iv is not None
            ],
            "triple_overlaps": [list(t) for t in triples],
        })
    return {"ok": ok, "strata": strata}


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
    cx = sum(curve.vertices[v].position[0] for v in verts) / n
    cy = sum(curve.vertices[v].position[1] for v in verts) / n

    def rel(v):
        p = curve.vertices[v].position
        return (p[0] - cx, p[1] - cy)

    return sorted(verts, key=cmp_to_key(lambda a, b: -_angle_cmp(rel(a), rel(b))))


def _edge_between(curve, u, w):
    for eid in curve.vertices[u].edges:
        if curve.edges[eid].finite and set(curve.edges[eid].ends) == {u, w}:
            return eid
    return None


def covering_collection(curve, style="tilde"):
    """Build a chart collection covering the critical strata with pairwise overlaps.

    Starts with undeformed charts at vertices touching an infinite edge,
    then walks the bounded faces in increasing order of their dual point,
    deforming each ring chart toward its clockwise predecessor with the
    smallest shift n/d (1 <= d <= 4, 1 <= n <= 400) that keeps a genuine
    overlap and creates no triple overlap.  Returns (charts, certificate).
    """
    matrices = chart_matrices(curve)
    charts = []
    for vid in sorted(curve.vertices, key=lambda v: (curve.vertices[v].position, v)):
        if any(not curve.edges[e].finite for e in curve.vertices[vid].edges):
            charts.append(Chart(vid))
    shifts = sorted(
        {Fraction(n, d) for d in range(1, 5) for n in range(1, 401)}
    )
    failures = []
    for point in sorted(curve.bounded_faces()):
        ring = _ring(curve, point)
        with_chart = [v for v in ring if any(c.vertex == v for c in charts)] or ring
        start = min(with_chart, key=lambda v: (curve.vertices[v].position, v))
        i0 = ring.index(start)
        ring = ring[i0:] + ring[:i0]
        pre_face = {v: [c for c in charts if c.vertex == v] for v in ring}
        for pos in list(range(1, len(ring))) + [0]:
            v = ring[pos]
            prev_v = ring[pos - 1]
            shared = _edge_between(curve, v, prev_v)
            if shared is None:
                continue
            existing_here = [c for c in charts if c.vertex == v]
            if existing_here and _stratum_settled(curve, charts, shared, matrices):
                continue
            base = existing_here[-1] if existing_here else Chart(v)
            letter = curve.letter(v, shared)
            if pre_face.get(prev_v):
                prev_chart = pre_face[prev_v][0]
            else:
                cands = [c for c in charts if c.vertex == prev_v]
                if not cands:
                    continue
                prev_chart = cands[-1]
            placed = False
            for h in shifts:
                cand = base.deformed(letter, h, style)
                if _admissible(curve, charts, cand, prev_chart, shared, matrices):
                    charts.append(cand)
                    placed = True
                    break
            if not placed:
                failures.append({"face": [str(c) for c in point], "vertex": v,
                                 "edge": shared})
    cert = covering_certificate(curve, charts, matrices)
    if failures:
        cert = dict(cert)
        cert["ok"] = False
        cert["failures"] = failures
    return charts, cert


def _stratum_settled(curve, charts, edge_id, matrices):
    per_chart = [(c.label, stratum_interval(curve, c, edge_id, matrices)) for c in charts]
    return (
        _covers([iv for _, iv in per_chart], required_interval(curve, edge_id))
        and not _triple_violations(per_chart)
    )


def _admissible(curve, charts, cand, prev_chart, shared, matrices):
    new_iv = stratum_interval(curve, cand, shared, matrices)
    prev_iv = stratum_interval(curve, prev_chart, shared, matrices)
    if new_iv is None or prev_iv is None:
        return False
    if max(new_iv[0], prev_iv[0]) >= min(new_iv[1], prev_iv[1]):
        return False  # overlap must have nonempty interior
    trial = charts + [cand]
    for eid in curve.edges:
        per_chart = [(c.label, stratum_interval(curve, c, eid, matrices)) for c in trial]
        if _triple_violations(per_chart):
            return False
    return True


def cone_image(curve, chart, matrices=None) -> dict:
    """Projected valuation cone of a chart: apex and rays in the plane.

    The chart region in global exact-valuation coordinates is
    {V : M V >= delta - a}; its apex is M^{-1}(delta - a) and its rays the
    columns of M^{-1}.  Projection drops the last base coordinate.
    """
    matrices = matrices or chart_matrices(curve)
    M = matrices[chart.vertex]
    Minv = _mat_inv(M)
    deltas = chart.deltas()
    cv = curve.vertices[chart.vertex]
    rhs = []
    for s in range(3):
        a = Fraction(_dot(curve.direction_at(cv.edges[s], chart.vertex), cv.position))
        rhs.append(deltas[LETTERS[s]] - a)
    apex = [sum(Minv[i][j] * rhs[j] for j in range(3)) for i in range(3)]
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
    ks = set()
    for row in divisor_data(curve, face_point, windings):
        k = Fraction(row["coefficient"], 1) / row["n"]
        ks.add(k)
    if len(ks) == 1:
        k = ks.pop()
        if k.denominator == 1:
            return int(k)
    return None
