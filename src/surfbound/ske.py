"""Surface-kernel epimorphism verification and search.

A map from the group with signature (g; m_1, ..., m_k) onto a finite group G,
given by the images of the 2g hyperbolic and k elliptic generators, has
torsion-free (surface) kernel exactly when

  * every elliptic image has order exactly m_j,
  * the long relation [a_1,b_1]...[a_g,b_g] c_1 ... c_k maps to the identity,
  * the images generate G.

verify_ske checks these three conditions exactly and packages the result as
a certificate, whose kernel genus is 1 + |G| * q.  search_ske enumerates
image tuples by backtracking over conjugacy-class and centralizer-orbit
representatives, solving the last elliptic generator from the long relation
instead of searching it.  The backtracking is one stream of weighted
solutions in canonical order; each search mode consumes that stream, within
the node budget SURFBOUND_NODE_BUDGET that signatures.resource_cap reads.

Image tuples are indexed by the generator numbering of signatures.relators,
hyperbolic generators first (a_1, b_1, ..., a_g, b_g), then elliptic ones in
signature order; evaluate reads a relator under such a tuple.

A certificate is its inputs.  Each certificate type has one Schema (SKE
here, COVER in covers, GENUS in bounds): read decodes a document's inputs
by it, a verifier rebuilds the record from them, and write prints the
rebuild by it for replay to compare with the document, once.
"""

import json
from typing import NamedTuple

from .groups import DihedralGroup, _check_order, construct, element_data, element_from_data
from .signatures import Signature, kernel_genus, long_relator, resource_cap

VERIFIER_VERSION = "1"


class OrderNotPreserved(ValueError):
    """An elliptic generator image has the wrong order."""


class LongRelationFails(ValueError):
    """The images do not satisfy the long relation."""


class NotSurjective(ValueError):
    """The images generate a proper subgroup."""


class SearchSpaceTooLarge(RuntimeError):
    """The backtracking search exhausted its node budget."""


class SkeCertificate(NamedTuple):
    """A surface-kernel epimorphism, replayable from its signature, its
    images and the group verify_ske checked it in or read decoded it in,
    written as its descriptor; group_order and kernel_genus are derived."""

    signature: Signature
    images: tuple
    group: object
    verifier_version: str = VERIFIER_VERSION

    @property
    def group_order(self):
        return self.group.order

    @property
    def kernel_genus(self):
        return kernel_genus(self.signature, self.group.order)

    def to_dict(self):
        return write(SKE, self)

    @staticmethod
    def from_dict(data):
        """The record of an ske certificate's inputs (read by SKE)."""
        return read(SKE, data)


class Schema(NamedTuple):
    """How a record is written as a JSON object: the value of its "type" key
    (None if it has none), the type of each input and derived key, which is
    the record's attribute of that name, and build, which makes the record
    from the decoded inputs alone.  A type is int, str, list (of elements),
    object (any JSON value), [t] a list of t's, (None, t) null or a t, or a schema."""

    tag: object
    inputs: dict
    derived: dict
    build: object = None


def read(schema, data, path=""):
    """The record schema.build makes of data's inputs, an input of a nested
    schema read by it first.  Every key the schema names is type-checked,
    but only the inputs are decoded; a key it does not name is left to the
    comparison with the rebuild.  KeyError names a missing key by its path,
    TypeError a mistyped value, ValueError a value that does not decode."""
    if type(data) is not dict:
        raise TypeError(f"{path or 'certificate'} must be a JSON object, got {data!r:.60}")
    at = f"{path}." if path else ""
    if schema.tag is not None and data.get("type") != schema.tag:
        raise ValueError(f"{at}type must be {schema.tag!r}, got {data.get('type')!r:.60}")
    inputs = {}
    for key, kind in {**schema.inputs, **schema.derived}.items():
        if key not in data:
            raise KeyError(at + key)
        value = _typed(kind, data[key], at + key)
        if key in schema.inputs:
            inputs[key] = value
    return schema.build(**inputs) if schema.build else None


_NOUNS = {int: "an integer", str: "a string", list: "a list"}


def _typed(kind, value, path):
    if isinstance(kind, Schema):
        return read(kind, value, path)
    if type(kind) is tuple:
        return None if value is None else _typed(kind[1], value, path)
    if isinstance(kind, list):
        return tuple(_typed(kind[0], v, f"{path}[{i}]")
                     for i, v in enumerate(_typed(list, value, path)))
    if kind is not object and type(value) is not kind:
        raise TypeError(f"{path} must be {_NOUNS[kind]}, got {value!r:.60}")
    return value


def write(schema, record):
    """The JSON object of record by schema, read's inverse: each key the
    schema names is written from record's attribute of that name."""
    data = {key: _written(kind, getattr(record, key))
            for key, kind in {**schema.inputs, **schema.derived}.items()}
    return data if schema.tag is None else dict(data, type=schema.tag)


def _written(kind, value):
    if isinstance(kind, Schema):
        return write(kind, value)
    if type(kind) is tuple:
        return None if value is None else _written(kind[1], value)
    if isinstance(kind, list):
        return [_written(kind[0], v) for v in value]
    if kind is list:
        return [element_data(v) for v in value]
    # a group is written as its descriptor, which construct reads
    return getattr(value, "descriptor", value) if kind is str else value


def _signature(genus, periods):
    sig = Signature(genus, periods)
    if sig.periods != periods:
        raise ValueError(f"periods must be sorted, got {list(periods)!r:.60}")
    return sig


def _ske_inputs(signature, group, images, verifier_version):
    built = construct(group)
    return SkeCertificate(signature, tuple(element_from_data(built, x) for x in images), built,
                          verifier_version)


SKE = Schema("ske",
             {"signature": Schema(None, {"genus": int, "periods": [int]}, {}, _signature),
              "group": str, "images": list, "verifier_version": str},
             {"group_order": int, "kernel_genus": int}, _ske_inputs)


def evaluate(group, word, images):
    """The element a word of (generator, 1 or -1) names when generator s maps to images[s]."""
    w = group.identity
    for s, sign in word:
        w = group.mul(w, images[s] if sign == 1 else group.inv(images[s]))
    return w


def verify_ske(sig, group, images):
    """Check a generator assignment and return its certificate.

    Raises OrderNotPreserved / LongRelationFails / NotSurjective on the
    three defect types, NonIntegralGenus if |G| is incompatible with the
    signature.  Only group-protocol operations are used, so parametric
    groups of astronomically large order verify in O(1) arithmetic per step.
    """
    images = tuple(images)
    g, periods = sig.genus, sig.periods
    k = len(periods)
    if len(images) != 2 * g + k:
        raise ValueError(
            f"{sig} needs {2 * g + k} generator images, got {len(images)}"
        )
    for x in images:
        if not group.contains(x):
            raise ValueError(f"image {x!r} is not an element of {group.descriptor!r}")
    for j, (c, m) in enumerate(zip(images[2 * g:], periods), start=1):
        actual = group.element_order(c)
        if actual != m:
            raise OrderNotPreserved(f"elliptic generator {j} must map to an element"
                                    f" of order {m}, image has order {actual}")
    if evaluate(group, long_relator(sig), images) != group.identity:
        raise LongRelationFails(f"long relation image is not the identity for {sig}")
    if not group.generates(images):
        raise NotSurjective(f"images generate a proper subgroup of {group.descriptor!r}")
    # NonIntegralGenus here, not when the certificate's kernel_genus is read
    kernel_genus(sig, group.order)
    return SkeCertificate(sig, images, group)


def verify_certificate(cert):
    """Replay a certificate's inputs in the group it holds; returns the
    rebuilt record, which replay compares with what the certificate states."""
    if cert.verifier_version != VERIFIER_VERSION:
        raise ValueError(
            f"unsupported verifier_version {cert.verifier_version!r:.60}, "
            f"this verifier replays version {VERIFIER_VERSION!r}"
        )
    return verify_ske(cert.signature, cert.group, cert.images)


def replay(verify, cert, stated):
    """verify's rebuild of cert, a record read from the JSON document stated,
    once stated is found to be that rebuild's document (check_recorded)."""
    fresh = verify(cert)
    check_recorded(stated, fresh.to_dict())
    return fresh


def check_recorded(stated, rebuilt):
    """ValueError unless the JSON document a certificate states and the one
    rebuilt from its inputs have the same canonical JSON (1 is not true, 2
    not 2.0), naming the first value that differs by its path through objects
    with the same keys and lists of the same length, else the first key only
    one object has: a key the rebuild lacks is refused at any depth."""
    path, value, other = "", stated, rebuilt
    while _canonical(value) != _canonical(other):
        if isinstance(value, dict) and isinstance(other, dict) and value.keys() == other.keys():
            steps = [(f"{path}.{key}" if path else key, value[key], other[key]) for key in value]
        elif isinstance(value, list) and isinstance(other, list) and len(value) == len(other):
            steps = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(value, other))]
        elif isinstance(value, dict) and isinstance(other, dict):
            key = min(value.keys() ^ other.keys(), key=str)
            path = f"{path}.{key}" if path else key
            shown = [_canonical(v[key]) if key in v else "absent" for v in (value, other)]
            raise ValueError(f"certificate states {path} {shown[0]:.80}, "
                             f"recomputed {shown[1]:.80}")
        else:
            name, show = (path.replace("_", " "), repr) if path in rebuilt else (path, _canonical)
            raise ValueError(f"certificate states {name} {show(value):.80}, "
                             f"recomputed {show(other):.80}")
        path, value, other = next(s for s in steps if _canonical(s[1]) != _canonical(s[2]))


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def search_ske(sig, group, mode="first", dedup=False):
    """Backtracking search for surface-kernel epimorphisms onto a finite group.

    mode 'first' returns the first image tuple under the canonical iteration
    order (or None), 'count' the number of epimorphisms.  With dedup=True,
    'count' counts them up to simultaneous conjugation instead.  The images
    of a solution generate G, so only the centre Z(G) fixes it: every
    conjugacy orbit of solutions has exactly |G : Z(G)| members.

    Searched slots: elliptic generators (rarest candidate class first), then
    hyperbolic ones; the final elliptic generator is solved from the long
    relation rather than searched.  The canonical order is lexicographic in
    the group's element index, slot by slot.

    The solution set is closed under simultaneous conjugation, so slot 0
    runs over one representative per conjugacy class and slot 1 over one
    representative per orbit of that representative's centralizer; each
    representative is the least-index member of its class or orbit.  A
    solution found there stands for |class| * |orbit| solutions, and the
    canonical-first member of every conjugacy orbit of solutions is one of
    those found.  The search is one stream of (images, weight) pairs, in
    canonical order, and each mode consumes it: 'first' takes its head,
    which stops the search there; 'count' adds the weights and, with dedup,
    divides by |G : Z(G)|.  So dedup costs nothing in 'first', and at most
    2 |G| len(generators) products for |Z(G)| in 'count'.

    Each element's order is computed once, |G| element_order calls in one
    pass; that table gives the candidates of every period and checks the
    solved last image at each leaf.  A leaf then asks generates about the
    searched images alone, since the solved one is a word in them.

    Classes and orbits are found by BFS under a generating set, the
    group's generators or at most log2 |C(r)| generators of C(r), so each
    slot-0 or slot-1 candidate costs that many conjugations, and each
    non-central slot-0 representative at most 2|G| + 2|C(r)| log2 |C(r)|
    products to find the generators of C(r).  The cut pays off when
    classes are large and centralizers small; where the centre is large it
    saves little, and in an abelian group, where every class and orbit is
    one element, it tries as many nodes as a search without it.

    A node is one assignment to one slot: a class representative in slot 0,
    an orbit representative in slot 1, or a candidate element in any deeper
    slot.  Each costs one node against the budget, SURFBOUND_NODE_BUDGET as
    signatures.resource_cap reads it; exceeding it raises
    SearchSpaceTooLarge.  The slots are stored, so more of them than the
    order cap (SURFBOUND_ORDER_CAP) raises OrderCapExceeded before the
    search starts.

    Raises NotAdmissible immediately for a signature of measure <= 0, and
    NonIntegralGenus when |G| is incompatible with the signature (no
    surface kernel of that index can exist); kernel_genus checks both.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"unknown search mode {mode!r}")
    kernel_genus(sig, group.order)
    budget = resource_cap("SURFBOUND_NODE_BUDGET")
    elements, index = tuple(group.elements), group.index
    orders = [group.element_order(e) for e in elements]
    g, periods = sig.genus, sig.periods
    k = len(periods)
    by_order = {m: tuple(e for e, o in zip(elements, orders) if o == m)
                for m in set(periods)}
    exhausted = f"node budget {budget} exhausted searching {sig} -> {group.descriptor}"
    # both known before the O(g) slot lists exist: a searched period with
    # no element of its order sorts first and leaves the walk no node, and
    # the first path assigns every slot before its leaf
    if any(not by_order[m] for m in periods[:-1]):
        return None if mode == "first" else 0
    nslots = max(k - 1, 0) + 2 * g
    if nslots > budget:
        raise SearchSpaceTooLarge(exhausted)
    _check_order(f"the slot count {nslots} of {sig}", [nslots])
    searched_ell = sorted(range(k - 1) if k else [],
                          key=lambda j: (len(by_order[periods[j]]), j))
    # an admissible signature always leaves at least two searched slots,
    # each the number of its generator in the relators' numbering: the
    # searched generators are 0 .. nslots - 1, and the last elliptic
    # image, if any, is solved at each leaf
    slots = [2 * g + j for j in searched_ell] + list(range(2 * g))
    candidates = [by_order[periods[j]] for j in searched_ell] + [elements] * (2 * g)
    images = [None] * (2 * g + k)
    head = long_relator(sig)[:-1]
    nodes = 0

    def assign(pos, cand):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchSpaceTooLarge(exhausted)
        images[slots[pos]] = cand

    def leaf():
        # the long relator is its head times its last letter: c_k, solved
        # as the head's inverse, or without periods b_g^-1, so b_g must be
        # the head
        w = evaluate(group, head, images)
        if periods:
            images[-1] = group.inv(w)
            if orders[index[images[-1]]] != periods[-1]:
                return None
        elif w != images[-1]:
            return None
        # the solved last image is a word in the searched ones, so they
        # generate what all the images generate
        if not group.generates(images[:nslots]):
            return None
        return tuple(images)

    def below(top):
        # depth first over the slots from top on, one iterator of candidates
        # per slot on a stack: a generator frame per slot would pass the
        # recursion limit near a thousand slots
        stack, pos = [], top
        while True:
            if pos == len(slots):
                found = leaf()
                if found is not None:
                    yield found
            else:
                stack.append(iter(candidates[pos]))
            cand = _END
            while stack and (cand := next(stack[-1], _END)) is _END:
                stack.pop()
            if cand is _END:
                return
            pos = top + len(stack)
            assign(pos - 1, cand)

    def stream():
        # a central representative (class of size 1) has C(r) = G, whose
        # orbits are the conjugacy classes: found once and shared
        central = None
        for r, class_size in _orbits(group, candidates[0], group.generators):
            assign(0, r)
            if class_size == 1:
                if central is None:
                    central = list(_orbits(group, candidates[1], group.generators))
                orbits = central
            else:
                orbits = _orbits(group, candidates[1],
                                 _centralizer_generators(group, r, class_size))
            for s, orbit_size in orbits:
                assign(1, s)
                for found in below(2):
                    yield found, class_size * orbit_size

    if mode == "first":
        return next(stream(), (None,))[0]
    count = sum(weight for _, weight in stream())
    # with dedup, divide by |G : Z(G)|, Z(G) being the classes of one element
    return (count * sum(size == 1 for _, size in _orbits(group, elements, group.generators))
            // len(elements) if dedup else count)


_END = object()


def _orbits(group, candidates, gens):
    # (least-index member, size) of each orbit among the candidates of
    # the subgroup the gens generate, acting by conjugation, in index
    # order; an orbit is found by BFS under the gens, so every candidate
    # costs len(gens) conjugations
    index, elements = group.index, group.elements
    gens = [(x, group.inv(x)) for x in gens]
    seen = bytearray(len(elements))
    for r in candidates:
        if seen[index[r]]:
            continue
        seen[index[r]] = 1
        members = [r]
        for y in members:
            for x, xinv in gens:
                i = index[group.mul(group.mul(x, y), xinv)]
                if not seen[i]:
                    seen[i] = 1
                    members.append(elements[i])
        yield r, len(members)


def _centralizer_generators(group, r, class_size):
    # at most log2 |C(r)| generators of the centralizer of r, whose order
    # is |G| / class_size: an element of C(r) outside the subgroup the
    # earlier ones generate at least doubles it; the subgroup is
    # rebuilt by BFS after each, and the scan stops once it is all of
    # C(r), so the cost is at most 2|G| + 2|C(r)| log2 |C(r)| products
    index, elements = group.index, group.elements
    order = len(elements) // class_size
    gens = []
    inside = bytearray(len(elements))
    members = [elements[index[group.identity]]]
    inside[index[members[0]]] = 1
    for h in elements:
        if len(members) == order:
            break
        if inside[index[h]] or group.mul(h, r) != group.mul(r, h):
            continue
        gens.append(h)
        for y in members:
            for x in gens:
                i = index[group.mul(y, x)]
                if not inside[i]:
                    inside[i] = 1
                    members.append(elements[i])
    return gens


# the dihedral family's signature: measure pi, so not a table row
DIHEDRAL_SIGNATURE = Signature(0, (2, 2, 2, 2, 2))


def dihedral_witness_ske(g):
    """Certified epimorphism from the quintuple-involution signature onto the
    dihedral group of order 4(g-1), with surface kernel of genus exactly g.

    Verification is O(1) word arithmetic in the parametric dihedral backend,
    so this stays instant for astronomically large g.
    """
    if g < 2:
        raise ValueError(f"need genus >= 2, got {g}")
    n = 2 * (g - 1)
    group = DihedralGroup(n)
    images = (
        (1 % n, 1),
        (0, 1),
        ((g - 2) % n, 1),
        (0, 1),
        ((g - 1) % n, 0),
    )
    return verify_ske(DIHEDRAL_SIGNATURE, group, images)
