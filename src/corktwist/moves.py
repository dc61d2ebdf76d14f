"""Budgeted Reidemeister search for unknot certificates.

A component of a front is projected to its knot shadow: a combinatorial
planar map with one 4-valent vertex per self-crossing, counterclockwise
end order read from the crossing's sign, and an over/under bit per
vertex.  On that map the search applies reducing kink and bigon
moves (R1 down, R2 down) and finger moves (R2 up) that push one edge of
a face across another, capped at two crossings above the starting
diagram.  The search is best-first by crossing count, ties by depth then
insertion order, deterministic: every reduction is tried before any
finger move, so a garland of k kinks is certified in k expansions.  It
builds only what it reads: the result of a move, and a state's list of
finger moves, are built when their queue entry is popped, states are
deduplicated by canonical code as they are popped, and a state's
canonical code is derived on first use.  A move's result is derived
from its parent: per-dart tables are copied, the orientation (the set of
darts the strand arrives at) loses the removed darts or gains the new
ones, and only the faces through the rewired darts are walked again,
with the full walk's planarity check.  A shadow built from a front is
checked by the full walk.  A finger move builds one splice, and a
mirrored second splice only when the mates of its two darts share a
face, which is when it is planar; the removal that would undo a finger
move gives back its parent, and the search never queues it.  Finger
moves are listed once per R2 ascent and orbit of the shadow's
automorphisms: a move is keyed by its two edges and the edge that goes
over, the first spelling of a key builds every ascent of that key, the
starts that tie the canonical code give candidate maps, each is checked
against the map before it is used, and a move whose key an
earlier-listed move, or a checked automorphism's image of one, already
has would only rebuild that move's children.  A component with more
than MAX_SEARCH_CROSSINGS self-crossings is not searched, and no shadow
is built for it.

Reaching the crossingless diagram proves the component unknotted and the
move list becomes the certificate.  Everything else is reported as
inconclusive: there is no primitive R3 (a finger move followed by a
bigon removal plays that role when the cap allows it), so an exhausted
queue never demonstrates knottedness.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from . import front as front_mod

# the unknot search's state budget and recorded seed when a caller gives none
DEFAULT_BUDGET, DEFAULT_SEED = 2000, 0

# The most self-crossings a search may start from.  At the default budget,
# searches from eight random polygon fronts of 91 to 98 crossings spent their
# 2,000 states in 0.4-1.0 s, and garland k = 100 was certified in 0.03-0.05 s
# (one core of an Intel Xeon); past the bound a component is not searched.
MAX_SEARCH_CROSSINGS = 100


class _Vertex(NamedTuple):
    ends: tuple[int, int, int, int]  # dart ids, counterclockwise
    over_parity: int  # 0: strand through slots 0 and 2 is over; 1: slots 1 and 3


class ShadowError(ValueError):
    pass


class Shadow:
    """A knot diagram as a combinatorial map.

    Darts are edge ends; theta swaps the two ends of each edge; each
    vertex lists its four darts counterclockwise.  A dart is read as
    "arriving at this vertex along its edge", so the strand continues
    through the opposite slot.  Per-dart tables (vertex, opposite end,
    next counterclockwise end, over bit), faces and the orientation are
    derived once, at construction: by the full walk in
    `Shadow(vertices, theta)`, or from the parent for the result of a move
    (`_derive`).  The orientation is the set of darts that the strand
    arrives at when walked from min(theta); it fixes every crossing's
    sign.  The canonical code is derived at most once, on first use, and
    the vertex labels when first asked for.  A shadow is never changed
    afterwards.
    """

    def __init__(self, vertices: dict[int, _Vertex], theta: dict[int, int]):
        self.vertices = dict(vertices)
        self.theta = dict(theta)
        self._vertex: dict[int, int] = {}
        self._opp: dict[int, int] = {}
        self._ccw: dict[int, int] = {}
        self._over: dict[int, bool] = {}
        self._add_tables(self.vertices)
        self._arrivals, self._faces = self._validate()
        self._code: tuple | None = None
        self._labels: dict[int, int] = {}
        self._ties: tuple[int, ...] = ()  # the starts that give the code, least first

    def _add_tables(self, vertices: dict[int, _Vertex]) -> None:
        """Record each dart's vertex, opposite end, next counterclockwise end and over bit."""
        vertex, opp, ccw, over = self._vertex, self._opp, self._ccw, self._over
        for vid, ((a, b, c, d), over_parity) in vertices.items():
            vertex[a] = vertex[b] = vertex[c] = vertex[d] = vid
            opp[a], opp[b], opp[c], opp[d] = c, d, a, b
            ccw[a], ccw[b], ccw[c], ccw[d] = b, c, d, a
            over[a] = over[c] = over_parity == 0
            over[b] = over[d] = over_parity == 1

    def _derive(
        self,
        theta: dict[int, int],
        arrivals: frozenset[int],
        touched: set[int],
        dead: set[int] = frozenset(),
        added: dict[int, _Vertex] | None = None,
    ) -> "Shadow":
        """The shadow that this one becomes when the vertices `dead` go, the
        vertices `added` come and the edge pairing becomes `theta`, along
        whose strand one direction arrives at `arrivals`.  A set without
        min(theta) is turned round, to the full walk's direction.

        `touched` holds every dart of each face of this shadow that meets a
        dart whose mate or vertex changes.  Every other face is kept as it
        is, in its place; only the touched darts and the new ones are
        walked.  The planarity check is the full walk's: n + 2 faces.
        """
        child = object.__new__(Shadow)
        child.vertices = dict(self.vertices)
        child.theta = theta
        child._vertex, child._opp = dict(self._vertex), dict(self._opp)
        child._ccw, child._over = dict(self._ccw), dict(self._over)
        for vid in dead:
            for e in child.vertices.pop(vid).ends:
                del child._vertex[e], child._opp[e], child._ccw[e], child._over[e]
        new_darts: list[int] = []
        if added:
            child.vertices.update(added)
            child._add_tables(added)
            for v in added.values():
                new_darts += v.ends
        kept = [face for face in self._faces if face[0] not in touched]
        walked = child._walk_faces(sorted([d for d in touched if d in theta] + new_darts))
        faces = sorted(kept + walked)
        if len(faces) != len(child.vertices) + 2:
            raise ShadowError("map is not planar")
        if min(theta) not in arrivals:
            arrivals = frozenset([child._opp[e] for e in arrivals])
        child._arrivals, child._faces = arrivals, faces
        child._code, child._labels, child._ties = None, {}, ()
        return child

    # -- structure ------------------------------------------------------------

    def crossing_count(self) -> int:
        return len(self.vertices)

    def strand_orbit(self, start: int) -> list[int]:
        """The arrival darts along the strand from `start`."""
        theta, opp = self.theta, self._opp
        out = [start]
        cur = theta[opp[start]]
        while cur != start:
            out.append(cur)
            cur = theta[opp[cur]]
        return out

    def _walk_faces(self, starts: list[int]) -> list[tuple[int, ...]]:
        """The faces through `starts`, in order of their first dart.  A face
        lies to the right of each of its darts, and each face starts at its
        least dart when `starts` is sorted and holds whole faces."""
        theta, ccw = self.theta, self._ccw
        done: set[int] = set()
        faces: list[tuple[int, ...]] = []
        for start in starts:
            if start in done:
                continue
            cycle = [start]
            cur = ccw[theta[start]]
            while cur != start:
                cycle.append(cur)
                cur = ccw[theta[cur]]
            done.update(cycle)
            faces.append(tuple(cycle))
        return faces

    def _faces_through(self, darts) -> set[int]:
        """Every dart of the faces through `darts`."""
        theta, ccw = self.theta, self._ccw
        out: set[int] = set()
        for cur in darts:
            while cur not in out:
                out.add(cur)
                cur = ccw[theta[cur]]
        return out

    def _validate(self) -> tuple[frozenset[int], list[tuple[int, ...]]]:
        """Check for one closed planar strand; return its arrivals from min(theta), its faces."""
        n = len(self.vertices)
        if self.theta.keys() != self._vertex.keys():
            raise ShadowError("edge pairing and vertex ends disagree")
        for a, b in self.theta.items():
            if a == b or self.theta[b] != a:
                raise ShadowError("edge pairing is not a free involution")
        if n == 0:
            return frozenset(), []
        orbit = self.strand_orbit(min(self.theta))
        if len(orbit) != 2 * n:
            raise ShadowError("not a single closed strand")
        faces = self._walk_faces(sorted(self.theta))
        if len(faces) != n + 2:
            raise ShadowError("map is not planar")
        return frozenset(orbit), faces

    def _least_rotation(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The least rotation of the partner-gap word over both directions,
        and the start darts that give it, least first.

        Walked from a start dart, each position reads 4 * gap + 2 * over +
        (sign > 0): gap is how many steps ahead the other visit to the same
        crossing lies, over is the dart's over bit and sign is the
        crossing's, +1 when the next counterclockwise end after the over
        arrival is the under arrival.  The word names no crossing, so two
        starts give equal words exactly when their signed Gauss codes are
        equal up to relabelling.  One walk from min(theta) fills the word at
        each crossing's second visit; walked the other way, from the
        opposite ends, the word is the same entries reversed with gap
        replaced by 2n - gap.  A least rotation opens with the least entry,
        so only the positions that hold it are compared.
        """
        theta, opp, ccw, vertex, over = self.theta, self._opp, self._ccw, self._vertex, self._over
        n2 = len(theta) // 2  # the strand's length 2n: two visits per crossing
        last = n2 - 1
        darts: list[int] = []
        word, back = [0] * n2, [0] * n2  # back[last - j]: the j-th dart's opposite end
        first: dict[int, int] = {}  # vertex -> position of its first visit
        cur = min(theta)
        for j in range(n2):
            darts.append(cur)
            i = first.setdefault(vertex[cur], j)
            if i != j:
                e = darts[i]
                bits = 2 + (ccw[e] == cur) if over[e] else ccw[cur] == e  # e's over, sign
                gap = 4 * (j - i)
                word[i], back[last - i] = gap + bits, 4 * n2 - gap + bits
                word[j], back[last - j] = 4 * n2 - gap + (bits ^ 2), gap + (bits ^ 2)
            cur = theta[opp[cur]]
        least = min(min(word), min(back))
        forward, backward = word * 2, back * 2
        rotations = [(forward[i:i + n2], darts[i]) for i, x in enumerate(word) if x == least]
        rotations += [
            (backward[k:k + n2], opp[darts[last - k]]) for k, x in enumerate(back) if x == least
        ]
        code = min(rotations)[0]
        ties = [start for rotation, start in rotations if rotation == code]
        ties.sort()
        return tuple(code), tuple(ties)

    def canonical_code(self) -> tuple[int, ...]:
        """Least partner-gap word over all starts and both directions."""
        if self._code is None:
            self._code, self._ties = self._least_rotation() if self.vertices else ((), ())
        return self._code

    def vertex_label(self, vid: int) -> int:
        """Stable label of a vertex: the order of first visits along the
        strand walked from the least start that gives the canonical code."""
        if not self.vertices:
            raise ShadowError("empty shadow")
        if not self._labels:
            self.canonical_code()
            labels, vertex = self._labels, self._vertex
            for e in self.strand_orbit(self._ties[0]):
                labels.setdefault(vertex[e], len(labels))
        return self._labels[vid]

    def automorphisms(self) -> list[dict[int, int]]:
        """Non-identity dart maps that preserve theta, the vertex rotations
        and the over bits.

        Each start that ties the canonical code gives a candidate: the i-th
        arrival dart of the least start's strand walk goes to the i-th of
        the tied one, and exit darts follow through the opposite slot.  A
        tie is not trusted; a candidate is kept only once it is checked.
        """
        self.canonical_code()
        if len(self._ties) < 2:
            return []
        base = self.strand_orbit(self._ties[0])
        out = []
        for start in self._ties[1:]:
            sigma: dict[int, int] = {}
            for a, b in zip(base, self.strand_orbit(start)):
                sigma[a], sigma[self._opp[a]] = b, self._opp[b]
            if self._is_automorphism(sigma):
                out.append(sigma)
        return out

    def _is_automorphism(self, sigma: dict[int, int]) -> bool:
        """sigma commutes with theta, carries each vertex's ends to another
        vertex's ends in the same counterclockwise order, and keeps over bits."""
        theta, ccw, over = self.theta, self._ccw, self._over
        return all(
            sigma[theta[d]] == theta[image]
            and sigma[ccw[d]] == ccw[image]
            and over[d] == over[image]
            for d, image in sigma.items()
        )

    # -- reducing moves -------------------------------------------------------

    def _without(self, dead: set[int]) -> "Shadow":
        """Remove vertices and splice the strand straight through them."""
        if len(dead) == len(self.vertices):
            return Shadow({}, {})
        theta, opp = self.theta, self._opp
        gone = {e for vid in dead for e in self.vertices[vid].ends}
        spliced = dict(theta)
        for e in gone:
            del spliced[e]
        for e in gone:
            a = theta[e]
            if a not in gone:  # a's mate goes: follow the strand on to the next survivor
                mate = e
                while mate in gone:
                    mate = theta[opp[mate]]
                spliced[a] = mate
        # a face through a rewired dart a steps from a to an end of a removed vertex
        return self._derive(spliced, self._arrivals - gone, self._faces_through(gone), dead=dead)

    def kink_sites(self) -> list[int]:
        """Vertices carrying a loop edge between adjacent slots."""
        theta, ccw = self.theta, self._ccw
        out = []
        for vid, v in sorted(self.vertices.items()):
            for e in v.ends:
                if theta[e] == ccw[e]:
                    out.append(vid)
                    break
        return out

    def bigon_sites(self) -> list[tuple[int, int]]:
        """Vertex pairs joined by a two-sided face with one strand over twice."""
        out = []
        for face in self._faces:
            if len(face) != 2:
                continue
            e1, e2 = face
            v1 = self._vertex[e1]
            v2 = self._vertex[e2]
            if v1 == v2:
                continue
            if self._over[e1] == self._over[self.theta[e1]]:
                pair = tuple(sorted((v1, v2)))
                if pair not in out:
                    out.append(pair)
        return out

    def remove_kink(self, vid: int) -> "Shadow":
        if vid not in set(self.kink_sites()):
            raise ShadowError(f"vertex {vid} carries no kink")
        return self._without({vid})

    def remove_bigon(self, v1: int, v2: int) -> "Shadow":
        if tuple(sorted((v1, v2))) not in self.bigon_sites():
            raise ShadowError(f"vertices {v1}, {v2} bound no removable bigon")
        return self._without({v1, v2})

    # -- the finger move ------------------------------------------------------

    def finger_moves(self) -> list[tuple[int, int, bool]]:
        """Candidate (pushed side, crossed side, over) triples."""
        out = []
        for face in self._faces:
            for x in face:
                for y in face:
                    if y == x or y == self.theta[x]:
                        continue
                    out.append((x, y, True))
                    out.append((x, y, False))
        return out

    def finger_orbits(self) -> list[tuple[int, int, bool]]:
        """The finger moves, in order, once per R2 ascent and orbit.

        A move's key is its two edges, each named min(d, theta[d]), and the
        edge whose strand goes over.  finger_moves spells one key up to
        four times: (x, y, over), reversed as (y, x, not over), and both
        again from the second face the two edges share.  push_finger builds
        the ascent through every face they share, so the first spelling
        builds every child of its key, and a later one would only rebuild
        them.  push_finger reads only theta, the vertex ends and fresh ids,
        so the image of a move under an automorphism gives children with
        the same canonical codes in the same order as the move itself.  A
        move is listed only if no earlier-listed move, and no automorphism
        image of one, has its key.
        """
        theta, maps = self.theta, self.automorphisms()

        def key(x: int, y: int, over: bool) -> tuple[frozenset[int], int]:
            ex, ey = min(x, theta[x]), min(y, theta[y])
            return frozenset((ex, ey)), ex if over else ey

        listed, covered = [], set()
        for move in self.finger_moves():
            x, y, over = move
            spelled = key(x, y, over)
            if spelled in covered:
                continue
            listed.append(move)
            covered.add(spelled)
            covered.update(key(m[x], m[y], over) for m in maps)
        return listed

    def push_finger(self, x: int, y: int, over: bool) -> list["Shadow"]:
        """Push the edge of side x across the edge of side y.

        A face lies to the right of each of its darts, so along the face
        the edges of x and y run in opposite directions: walking from x to
        its mate, the finger first crosses y's edge at Q, the new crossing
        nearer y's mate, and comes back through P.  That fixes the order
        of the splice.  P and Q are numbered one and two past the largest
        vertex.  Pushed into the face, the finger gives P and Q the
        rotations of the first splice below.  The second mirrors both
        rotations: the same finger pushed through the face on the other
        side of both edges.  It is built only when the mates of x and y
        share a face, which is when it is planar; the oracle tests in
        tests/test_moves.py check both, against the full walk, on every
        finger move of the states they cover.  The other six combinations
        of rotations and crossing order are not built; the eight-splice
        oracle checks, on every finger move of the states the exhausted
        pinned searches expand, of each pinned start and the states one
        finger move from it, and of a sample of their finger children,
        that all eight give the same children in the same order as these
        two.

        Each splice is derived from this shadow: only the faces through x,
        y and their mates are walked again, and a splice that is not a
        planar map is dropped.  In either splice P and Q bound a two-sided
        face whose finger side passes over at both ends, or under at both,
        so they bound a removable bigon, and removing it restores this
        diagram exactly: every kept splice is a genuine Reidemeister 2
        ascent.  The mirrored splice is dropped when its code equals the
        first's.
        """
        splices = self._finger_splices(x, y, over)
        if len(splices) == 2 and splices[0].canonical_code() == splices[1].canonical_code():
            splices.pop()
        return splices

    def _finger_splices(self, x: int, y: int, over: bool) -> list["Shadow"]:
        """The planar splices of push_finger, before the second is compared with the first."""
        if y == x or y == self.theta[x]:
            raise ShadowError("finger needs two distinct edges")
        xp = self.theta[x]
        yp = self.theta[y]
        fresh = max(self.theta) + 1
        b_y, f_a, b_q, f_t, c_p, g_t, c_y2, g_a = range(fresh, fresh + 8)
        pv = max(self.vertices) + 1
        qv = pv + 1
        parity = 1 if over else 0
        theta = dict(self.theta)
        # y's edge becomes y - P - Q - yp; the finger x - Q - P - xp
        for a, b in ((x, g_a), (g_t, f_t), (f_a, xp), (y, b_y), (b_q, c_p), (c_y2, yp)):
            theta[a] = b
            theta[b] = a
        arrivals = self._arrivals
        finger = (g_a, f_t) if xp in arrivals else (f_a, g_t)  # strand x, Q, P, xp or back
        crossed = (b_y, c_p) if yp in arrivals else (c_y2, b_q)  # y, P, Q, yp or back
        arrivals = arrivals.union(finger, crossed)
        mates = self._faces_through([xp])
        mirrored = yp in mates
        touched = mates | self._faces_through([x] if mirrored else [x, yp])
        splices = []
        for p_ends, q_ends in (
            ((b_y, f_a, b_q, f_t), (c_p, g_a, c_y2, g_t)),  # finger pushed into the face
            ((b_y, f_t, b_q, f_a), (c_p, g_t, c_y2, g_a)),  # mirrored
        )[: 2 if mirrored else 1]:
            added = {pv: _Vertex(p_ends, parity), qv: _Vertex(q_ends, parity)}
            try:
                splices.append(self._derive(theta, arrivals, touched, added=added))
            except ShadowError:
                continue
        return splices


# -- building the shadow from a front ----------------------------------------


def shadow_of_component(
    d: front_mod.FrontDiagram, comp: str, crossings: list[front_mod.Crossing] | None = None
) -> Shadow:
    """The shadow of component `comp`: vertex i is its i-th self-crossing in
    d.crossings(), which `crossings` gives when the caller has them, and its
    darts 4 * i + slot run counterclockwise from east.

    The ends of a crossing run counterclockwise over-out, under-out,
    over-in, under-in when its sign is +1, and over-out, under-in, over-in,
    under-out when it is -1.  Slot 0 is the end at or above the x-axis that
    follows one below it.  The strand meets the crossings in the order of
    (segment index, t/den), where t/den and t'/den' differ by at least
    1/m for m the square of the largest den, so t * m // den orders them.
    """
    if crossings is None:
        crossings = [c for c in d.crossings() if c.over_component == comp == c.under_component]
    if not crossings:
        return Shadow({}, {})
    vertices: dict[int, _Vertex] = {}
    exit_, entry = {}, {}  # (crossing, 0 over or 1 under) -> dart
    for i, c in enumerate(crossings):
        uy, vy = c.over_dir[1], c.under_dir[1]
        # (y, over or under, out) of each end, counterclockwise from over-out
        if c.sign > 0:
            ring = ((uy, 0, True), (vy, 1, True), (-uy, 0, False), (-vy, 1, False))
        else:
            ring = ((uy, 0, True), (-vy, 1, False), (-uy, 0, False), (vy, 1, True))
        first = next(k for k in range(4) if ring[k - 1][0] < 0 <= ring[k][0])
        for k, (_, strand, out) in enumerate(ring):
            (exit_ if out else entry)[i, strand] = 4 * i + (k - first) % 4
        vertices[i] = _Vertex((4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3), first % 2)
    m = max(c.over_at[3] for c in crossings) ** 2
    visits = sorted(
        (at[1], at[2] * m // at[3], i, strand)
        for i, c in enumerate(crossings)
        for strand, at in enumerate((c.over_at, c.under_at))
    )
    theta: dict[int, int] = {}
    for (*_, i, r), (*_, j, s) in zip(visits, visits[1:] + visits[:1]):
        a, b = exit_[i, r], entry[j, s]
        theta[a], theta[b] = b, a
    return Shadow(vertices, theta)


# -- search -------------------------------------------------------------------


def search_unknot(start: Shadow, budget: int) -> dict:
    """Best-first move search; returns moves on success, else diagnostics.

    The queue is a heap keyed on (crossings, depth, order): best-first by
    the crossing count of the entry's result, ties by depth then insertion
    order, so runs are deterministic and every R1 or R2 descent is popped
    before any finger move.  Orders are unique, so no Shadow is compared.

    Only popped states are built.  A queue entry holds a state, or a
    parent and a deferred move whose crossing count is known before its
    result is built: ("kink", v) gives one crossing fewer, ("bigon", v1, v2)
    two fewer, and ("fingers",), every finger move of the parent, two more.
    A popped deferred entry whose result is not one state is replaced by
    what it stands for, in its place in the order: ("fingers",) by one
    ("finger", x, y, over) entry per R2 ascent and orbit of finger moves
    under the parent's checked automorphisms, and each of those by its
    children.  A popped state whose code was seen before is skipped, so the
    states expanded, and the budget that counts them, are those of a
    search that queued every child as it was generated and dropped the
    repeated ones.  A move left out of the list spells the ascent of an
    earlier-listed move again, or of an automorphism's image of one, so its
    children have the codes of children popped before it and would have
    been skipped.  A finger child's entry records its new crossings,
    and the removal of the bigon between them is not queued: it gives back
    the parent exactly, whose code is seen.  The record sits on the entry,
    not on the Shadow, so a search that starts at a finger child still
    removes that bigon.  The goal check stays at generation: a removal is
    the goal when it removes every crossing, and a finger child always has
    at least two.  A removal is applied without asking the state for its
    sites again, since they were read off that same state.
    """
    if start.crossing_count() == 0:
        return {"found": True, "moves": [], "expanded": 0, "queue_emptied": False}
    cap = start.crossing_count() + 2
    seen: set[tuple] = set()
    # (crossings, depth, place, state, path, deferred move, bigon undoing a finger move)
    heap: list[tuple] = [(start.crossing_count(), 0, (0,), start, (), None, None)]
    order = itertools.count(1)
    expanded = 0
    while heap:
        crossings, depth, place, state, path, move, undo = heapq.heappop(heap)
        if move is not None:
            kind, *sites = move
            if kind in ("fingers", "finger"):
                if kind == "fingers":
                    stand_ins = [(state, path, ("finger", *f), None) for f in state.finger_orbits()]
                else:
                    n, over = state.crossing_count(), sites[2]
                    child_path = path + (
                        f"push {'over' if over else 'under'} finger, {n} to {n + 2} crossings",
                    )
                    pv = max(state.vertices) + 1  # push_finger's P; Q is pv + 1
                    stand_ins = [
                        (child, child_path, None, (pv, pv + 1))
                        for child in state.push_finger(*sites)
                    ]
                for j, entry in enumerate(stand_ins):
                    heapq.heappush(heap, (crossings, depth, place + (j,), *entry))
                continue
            state = state._without(set(sites))
        code = state.canonical_code()
        if code in seen:
            continue
        seen.add(code)
        if expanded >= budget:
            return {
                "found": False,
                "moves": None,
                "expanded": expanded,
                "queue_emptied": False,
            }
        expanded += 1
        removals = [
            (f"remove kink at crossing {state.vertex_label(vid)}", ("kink", vid))
            for vid in state.kink_sites()
        ] + [
            (
                f"remove bigon between crossings {state.vertex_label(v1)} and {state.vertex_label(v2)}",
                ("bigon", v1, v2),
            )
            for v1, v2 in state.bigon_sites()
            if (v1, v2) != undo
        ]
        for describe, removal in removals:
            if len(removal) - 1 == crossings:  # removes every crossing
                return {
                    "found": True,
                    "moves": list(path) + [describe],
                    "expanded": expanded,
                    "queue_emptied": False,
                }
            heapq.heappush(heap, (
                crossings - (len(removal) - 1), depth + 1, (next(order),),
                state, path + (describe,), removal, None,
            ))
        if crossings + 2 <= cap:
            heapq.heappush(
                heap, (crossings + 2, depth + 1, (next(order),), state, path, ("fingers",), None)
            )
    return {"found": False, "moves": None, "expanded": expanded, "queue_emptied": True}


def unknot_certificate(
    d: front_mod.FrontDiagram, comp: str, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
) -> dict:
    """Try to certify that a component is an unknot.

    The verdict is "unknot" only when a move sequence to the crossingless
    diagram was found; it is never "knotted", because the move set is
    deliberately small.  A component over a 1-handle, or with more than
    MAX_SEARCH_CROSSINGS self-crossings, is not searched and stays
    "inconclusive", with the reason in the note.  The seed is recorded for
    report stability; the search itself is deterministic.
    """
    report = {
        "component": comp,
        "budget": budget,
        "seed": seed,
        "verdict": "inconclusive",
        "moves": None,
        "self_crossings": None,
        "expanded": 0,
        "note": None,
    }
    if d.handle_passes(comp) > 0:
        report["note"] = (
            "component runs over a 1-handle; its knot type in the handlebody "
            "is outside the move search"
        )
        return report
    own = [c for c in d.crossings() if c.over_component == comp == c.under_component]
    report["self_crossings"] = len(own)
    if len(own) > MAX_SEARCH_CROSSINGS:  # refused before any map is built
        report["note"] = (
            f"self-crossing count {len(own)} exceeds the "
            f"{MAX_SEARCH_CROSSINGS} a search may start from"
        )
        return report
    outcome = search_unknot(shadow_of_component(d, comp, own), budget)
    report["expanded"] = outcome["expanded"]
    if outcome["found"]:
        report["verdict"] = "unknot"
        report["moves"] = outcome["moves"]
    elif outcome["queue_emptied"]:
        report["note"] = "move set exhausted below the crossing cap without reduction"
    else:
        report["note"] = "search budget exhausted"
    return report
