"""Seeded job lists for the benchmark's three workloads.

Nothing here imports ipkit.  Specs are built as small tuples and rendered and
evaluated by this module, sequence sources are expanded here, and every job
carries the exit codes its generator knows by construction.  The program
under test only ever sees the generated argv and the files written for it.

A workload is a list of rounds.  Every round has the same fixed slots (job
families and size classes); the seed draws the parameters inside each slot.
Runs execute whole rounds, so the job mix, and with it the share of jobs
that fail for the known defect, is the same in every run.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from math import comb

WORKLOADS = ("search-nodes", "search-certify", "structure")
# Job families that run ``ipkit search``.
SEARCH_FAMILIES = ("parity", "node-limit", "found")

# Python refuses int -> str conversion past this many decimal digits.
STR_DIGIT_LIMIT = 4300

# Placeholder for the per-run work directory inside argv.
WORK = "{work}"


@dataclass
class Job:
    """One CLI invocation with the verdict its generator knows in advance."""

    id: str
    family: str
    argv: list
    expect: frozenset
    files: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)
    known_defect: bool = False
    # ("tamper", id of the search job whose document is copied, kind)
    prepare: tuple | None = None

    def resolved_argv(self, work: str) -> list:
        return [a.replace(WORK, work) for a in self.argv]


# -- set expressions ---------------------------------------------------------
# ("mod", m, r) | ("geq", k) | ("range", lo, hi) | ("not", s) | ("and", s...)
# | ("or", s...)


def render(spec) -> str:
    """The concrete syntax, in the canonical form ipkit's renderer also uses."""
    op = spec[0]
    if op == "mod":
        return f"mod({spec[1]},{spec[2]})"
    if op == "geq":
        return f"geq({spec[1]})"
    if op == "range":
        return f"range({spec[1]},{spec[2]})"
    if op == "not":
        return f"not({render(spec[1])})"
    return f"{op}(" + ",".join(render(c) for c in spec[1:]) + ")"


def member(spec, v: int) -> bool:
    op = spec[0]
    if op == "mod":
        return v % spec[1] == spec[2]
    if op == "geq":
        return v >= spec[1]
    if op == "range":
        return spec[1] <= v <= spec[2]
    if op == "not":
        return not member(spec[1], v)
    if op == "and":
        return all(member(c, v) for c in spec[1:])
    if op == "or":
        return any(member(c, v) for c in spec[1:])
    raise ValueError(f"unknown spec node {op!r}")


# -- sequences and value sets -------------------------------------------------


def source_terms(source: str, files: dict) -> tuple:
    """Expand nat:N, fib:N, pow:b:N, or file:{work}/NAME (NAME in ``files``)."""
    kind, _, rest = source.partition(":")
    if kind == "nat":
        return tuple(range(1, int(rest) + 1))
    if kind == "fib":
        terms = [1, 1]
        while len(terms) < int(rest):
            terms.append(terms[-1] + terms[-2])
        return tuple(terms[: int(rest)])
    if kind == "pow":
        base, count = rest.split(":")
        b = int(base)
        return tuple(b**k for k in range(1, int(count) + 1))
    if kind == "file":
        name = rest.rsplit("/", 1)[-1]
        return tuple(
            int(line) for line in files[name].splitlines() if line.strip() and not line.startswith("#")
        )
    raise ValueError(f"unknown source {source!r}")


def fold_sums(ys) -> set:
    acc: set = set()
    for y in ys:
        acc |= {t + y for t in acc}
        acc.add(y)
    return acc


def fold_products(ys) -> set:
    acc: set = set()
    for y in ys:
        acc |= {s * y for s in acc}
        acc.add(y)
    return acc


def decimal_digits(v: int) -> int:
    """Decimal digit count of v >= 1, exact, without int -> str conversion."""
    d = max(1, int(v.bit_length() * 0.30102999566398120))
    while 10**d <= v:
        d += 1
    while d > 1 and 10 ** (d - 1) > v:
        d -= 1
    return d


# -- block counts (closed form, canonical enumeration of ipkit.search) ---------


def blocks_ending_at(lo: int, top: int, max_block: int) -> int:
    return sum(comb(top - lo, s - 1) for s in range(1, max_block + 1))


def blocks_in(lo: int, hi: int, max_block: int) -> int:
    return sum(blocks_ending_at(lo, top, max_block) for top in range(lo, hi + 1))


def two_block_systems(window: int, max_block: int) -> int:
    return sum(
        blocks_ending_at(1, t, max_block) * blocks_in(t + 1, window, max_block)
        for t in range(1, window + 1)
    )


# -- generators ----------------------------------------------------------------


class _Builder:
    """Draws distinct jobs for one run; a repeated job is redrawn."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set = set()
        self.round = 0
        self.slot = 0

    def distinct(self, draw):
        for _ in range(1000):
            job = draw()
            key = hashlib.sha256(
                repr((job.family, job.argv, sorted(job.files.items()))).encode()
            ).hexdigest()
            if key not in self.seen:
                self.seen.add(key)
                return job
        raise RuntimeError("could not draw a distinct job")

    def job_id(self, family: str) -> str:
        self.slot += 1
        return f"r{self.round}.{self.slot}.{family}"

    def log_uniform_int(self, lo: int, hi: int) -> int:
        """An integer whose decimal length is drawn uniformly from [lo, hi] digits."""
        digits = self.rng.randint(lo, hi)
        return self.rng.randrange(10 ** (digits - 1), 10**digits)


def _file_source(b: _Builder, name: str, count: int, hi: int):
    values = [b.rng.randint(1, hi) for _ in range(count)]
    text = "# seeded sequence\n\n" + "".join(f"{v}\n" for v in values)
    return f"file:{WORK}/{name}", {name: text}


def _search_source(b: _Builder, kind: str, window: int, tag: str):
    """A sequence source of at least ``window`` terms: (source, files)."""
    if kind == "nat":
        return f"nat:{window + b.rng.randint(0, 40)}", {}
    if kind == "fib":
        return f"fib:{window + b.rng.randint(0, 20)}", {}
    if kind == "pow":
        base = max(3, b.log_uniform_int(1, 6) | 1)  # odd: odd-size blocks have odd sums
        return f"pow:{base}:{window + b.rng.randint(0, 10)}", {}
    return _file_source(b, f"seq_{tag}.txt", window + b.rng.randint(0, 20), 10**6)


# (window, source kind) per parity slot; stage-2 work grows like window^5.
# A round holds 22 jobs.  The 4 node-limit jobs and the three smallest
# parity windows cost least and fill the lowest 7; the eight window-20
# slots, which cost nearly the same, fill the next 8, so the median falls in
# the middle of their cluster; the four window-24 slots, the most costly,
# fill the top 4 and hold the 90th percentile in theirs.
PARITY_SLOTS = ((15, "pow"), (17, "fib"), (18, "file")) + ((20, "nat"),) * 8 \
    + ((21, "file"), (22, "nat"), (23, "fib")) + ((24, "nat"),) * 4
PARITY_HEAVY = 20
NODE_LIMIT_BANDS = tuple((lo, lo + 250) for lo in range(4000, 5000, 250))


def _parity_job(b: _Builder, window: int, kind: str) -> Job:
    """Exhausts: any two odd block sums add up to an even one (exit 1)."""

    def draw():
        odd = ("not", ("mod", 2, 0))
        if window >= PARITY_HEAVY:
            # the largest windows carry most of the round's time; a spec that
            # admits nearly the same blocks in every draw keeps runs comparable
            spec = ("and", odd, ("geq", b.rng.randint(2, 9)))
        else:
            extra = b.rng.choice(
                [None, ("geq", b.rng.randint(2, 9)), ("not", ("mod", b.rng.choice((3, 5, 7)), 0)),
                 ("range", 1, 10**b.rng.randint(6, 12))]
            )
            spec = odd if extra is None else ("and", *b.rng.sample([odd, extra], 2))
        jid = b.job_id("parity")
        source, files = _search_source(b, kind, window, jid)
        max_block = 3
        limit = blocks_in(1, window, max_block) + two_block_systems(window, max_block) + 1
        argv = ["search", "--seq", source, "--spec", render(spec),
                "--depth", str(b.rng.randint(2, 8)), "--window", str(window),
                "--max-block", str(max_block), "--node-limit", str(limit)]
        return Job(jid, "parity", argv, frozenset({1}), files,
                   {"source": source, "spec": spec, "window": window, "max_block": max_block})

    return b.distinct(draw)


def _node_limit_job(b: _Builder, band: tuple) -> Job:
    """Stops at the node limit (exit 3).

    The spec excludes multiples of a prime p and the depth is at least p, so
    by the pigeonhole principle on prefix sums mod p no block system exists.
    The limit is below the number of stage-1 candidates, so the search cannot
    finish exhausting the space first either.
    """

    def draw():
        p = b.rng.choice((5, 7))
        a, c = b.rng.sample((2, 3, 4, 6, 8, 9), 2)
        base = b.rng.choice(
            [("mod", a, 0), ("or", ("mod", a, 0), ("mod", c, 0)), ("geq", b.rng.randint(2, 20))]
        )
        spec = ("and", base, ("not", ("mod", p, 0)))
        window = b.rng.randint(40, 45)
        limit = b.rng.randint(*band)
        assert limit < blocks_in(1, window, 3)
        jid = b.job_id("node-limit")
        kind = b.rng.choice(("nat", "file"))
        if kind == "nat":
            source, files = f"nat:{window + b.rng.randint(0, 40)}", {}
        else:
            source, files = _file_source(b, f"seq_{jid}.txt", window, 10**4)
        argv = ["search", "--seq", source, "--spec", render(spec),
                "--depth", str(b.rng.randint(p, p + 8)), "--window", str(window),
                "--max-block", "3", "--node-limit", str(limit)]
        return Job(jid, "node-limit", argv, frozenset({3}), files,
                   {"source": source, "spec": spec, "window": window, "max_block": 3})

    return b.distinct(draw)


def _search_nodes_round(b: _Builder) -> list:
    jobs = [_parity_job(b, w, k) for w, k in PARITY_SLOTS]
    jobs += [_node_limit_job(b, band) for band in NODE_LIMIT_BANDS]
    b.rng.shuffle(jobs)
    return jobs


# search-certify: (source kind, depth) per found-search slot; the cost of a
# found search roughly doubles with each unit of depth.  Of the round's 20
# jobs, 8 cost less than the three verify jobs of depth-16 documents, which
# cost nearly the same, and 9 cost more, so the median falls in the middle
# of that cluster; the three depth-18 searches, the most costly, hold the
# 90th percentile.
CERTIFY_SLOTS = (("nat", 8), ("nat", 11), ("nat", 16), ("nat", 16), ("nat", 16),
                 ("nat", 18), ("nat", 18), ("nat", 18), ("pow", 9))
TAMPER_KINDS = ("fs", "ys", "spec")
# the documents that get a tampered copy: small, so the rejected verify
# costs about the same in every round
TAMPER_DEPTHS = (8, 11)


def _found_job(b: _Builder, kind: str, depth: int) -> Job:
    """A search that must succeed (exit 0).

    Over nat the spec contains every multiple of p (or m) inside the window,
    so the singleton blocks {p}, {2p}, ... form a solution; over pow:b the
    spec contains every multiple of q with q dividing b, so every block
    system is one.
    """

    def draw():
        jid = b.job_id("found")
        if kind == "nat":
            p = b.rng.choice((5, 7, 11, 13))
            # past depth 15 the certificate size, and with it the memory peak
            # of the whole run, varies several-fold with the spec family;
            # deep slots keep to multiples of 6
            if depth <= 15 and b.rng.random() < 0.5:
                spec = ("and", ("geq", b.rng.randint(1, p)), ("not", ("mod", p, b.rng.randint(1, p - 1))))
                step = p
            elif depth <= 15:
                m = b.rng.choice((2, 3, 4, 6))
                spec = ("mod", m, 0) if b.rng.random() < 0.5 else ("and", ("mod", m, 0), ("geq", b.rng.randint(1, m)))
                step = m
            else:
                spec, step = ("and", ("mod", 6, 0), ("geq", b.rng.randint(1, 6))), 6
            window = b.rng.randint(max(depth * step, 150), 300)
            source = f"nat:{window + b.rng.randint(0, 50)}"
        else:
            q = b.rng.choice((2, 3, 5, 7))
            base = q * b.rng.randint(1, 40)
            spec = ("and", ("geq", b.rng.randint(1, q)), ("not", ("mod", q, b.rng.randint(1, q - 1)))) \
                if q > 2 else ("mod", q, 0)
            window = depth + b.rng.randint(0, 10)
            source = f"pow:{base}:{window + b.rng.randint(0, 5)}"
        limit = 1_000_000
        argv = ["search", "--seq", source, "--spec", render(spec), "--depth", str(depth),
                "--window", str(window), "--node-limit", str(limit),
                "--json", f"{WORK}/cert_{jid}.json"]
        return Job(jid, "found", argv, frozenset({0}), {},
                   {"source": source, "spec": spec, "depth": depth, "window": window,
                    "max_block": 4, "node_limit": limit, "doc": f"cert_{jid}.json"})

    return b.distinct(draw)


def _search_certify_round(b: _Builder) -> list:
    searches = [_found_job(b, kind, depth) for kind, depth in CERTIFY_SLOTS]
    b.rng.shuffle(searches)
    verifies = []
    for s in searches:
        jid = b.job_id("verify")
        verifies.append(Job(jid, "verify", ["verify", "--cert", f"{WORK}/{s.truth['doc']}"],
                            frozenset({0}), {}, {"doc": s.truth["doc"], "search": s.id}))
    tamper_sources = [s for s in searches if s.truth["depth"] in TAMPER_DEPTHS]
    for s, kind in zip(tamper_sources, b.rng.sample(TAMPER_KINDS, 2)):
        jid = b.job_id("tampered")
        name = f"tampered_{jid}.json"
        verifies.append(Job(jid, "tampered", ["verify", "--cert", f"{WORK}/{name}"],
                            frozenset({1}), {}, {"doc": name, "search": s.id, "kind": kind},
                            prepare=("tamper", s.id, kind)))
    b.rng.shuffle(verifies)
    return searches + verifies


# refute mod(m,0) with depth >= m (no witness exists): (m, depth, bound range);
# exhausting the bounded space costs roughly bound^depth.  The ranges hold
# about 560 distinct jobs, enough for the rounds of the fastest run.
REFUTE_NONE = ((3, 3, (60, 220)), (3, 4, (60, 170)), (4, 4, (40, 100)), (4, 5, (30, 70)),
               (5, 5, (30, 62)), (6, 6, (25, 52)), (7, 7, (20, 42)), (3, 5, (20, 120)))
HINDMAN_SLOTS = ((2, 4), (3, 4))
# A round holds 26 jobs.  The 10 refute, hindman and listing jobs mostly take
# a few ms and fill the lowest two fifths; the six tables of order 13, which
# cost nearly the same, fill the next quarter, so the median falls in the
# middle of their cluster; the five of order 17, the most costly, fill the
# top fifth and hold the 90th percentile in theirs.
SEMIGROUP_ORDERS = ((13, 13),) * 6 + ((14, 14), (14, 14), (15, 15), (16, 16), (16, 16)) + ((17, 17),) * 5


def _refute_job(b: _Builder, exists: bool) -> Job:
    """A witness avoiding mod(m,0) exists iff depth < m: terms = 1 (mod m) keep
    every subset sum off 0 (mod m) below m terms, while m terms always have a
    run of consecutive prefix sums that agree mod m."""

    def draw():
        if exists:
            # the lexicographic search is slow to reach its first witness
            # when depth is m - 1, so stay at m - 2 or below
            m = b.rng.randint(4, 9)
            depth = b.rng.randint(2, min(m - 2, 5))
            bound = b.rng.randint((depth - 1) * m + 1, 400)
        else:
            m, depth, bounds = b.rng.choice(REFUTE_NONE)
            bound = b.rng.randint(*bounds)
        jid = b.job_id("refute")
        argv = ["refute", "--spec", render(("mod", m, 0)), "--depth", str(depth), "--bound", str(bound)]
        return Job(jid, "refute", argv, frozenset({1 if depth >= m else 0}), {},
                   {"m": m, "depth": depth, "bound": bound})

    return b.distinct(draw)


def _hindman_job(b: _Builder, palette: int, depth: int) -> Job:
    def draw():
        n = b.rng.randint(200, 400)
        colors = [b.rng.randrange(palette) for _ in range(n)]
        jid = b.job_id("hindman")
        name = f"coloring_{jid}.txt"
        lines = [f"{v} {c}\n" for v, c in enumerate(colors, start=1)]
        b.rng.shuffle(lines)
        argv = ["hindman", "--coloring", f"{WORK}/{name}", "--depth", str(depth)]
        return Job(jid, "hindman", argv, frozenset({0, 1}), {name: "# seeded coloring\n" + "".join(lines)},
                   {"colors": colors, "depth": depth})

    return b.distinct(draw)


# -- finite semigroups, built and relabeled here ------------------------------


def _relabel(table, rng):
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def _mult_mod(n):
    return [[(a * b) % n for b in range(n)] for a in range(n)]


def _group_times_band(k, rows, cols):
    """Cyclic group C_k times the rectangular band rows x cols (completely simple)."""
    elems = [(g, i, j) for g in range(k) for i in range(rows) for j in range(cols)]
    index = {e: n for n, e in enumerate(elems)}
    return [[index[((g + h) % k, i, l)] for (h, _, l) in elems] for (g, i, _) in elems]


def _transformations(gens, cap):
    """Close self-maps under composition (right multiplication by generators)."""
    elems = list(dict.fromkeys(gens))
    index = {e: i for i, e in enumerate(elems)}
    i = 0
    while i < len(elems):
        f = elems[i]
        for g in gens:
            h = tuple(g[f[x]] for x in range(len(f)))  # x -> g(f(x))
            if h not in index:
                if len(elems) >= cap:
                    return None
                index[h] = len(elems)
                elems.append(h)
        i += 1
    return [[index[tuple(g[f[x]] for x in range(len(f)))] for g in elems] for f in elems]


def _semigroup_table(b: _Builder, lo: int, hi: int):
    """A randomly relabeled table of order in [lo, hi], from one of three families."""
    family = b.rng.choice(("mult-mod", "group-band", "transformations"))
    if family == "mult-mod":
        return _relabel(_mult_mod(b.rng.randint(lo, hi)), b.rng)
    if family == "group-band":
        # at most 4 rows and columns: the program's ideal enumeration is
        # quadratic in the number of ideals, and a band has 2^columns of them
        shapes = [(k, r, c) for k in range(1, hi + 1) for r in range(1, 5) for c in range(1, 5)
                  if lo <= k * r * c <= hi]
        return _relabel(_group_times_band(*b.rng.choice(shapes)), b.rng)
    while True:
        points = b.rng.choice((4, 5))
        gens = [tuple(b.rng.randrange(points) for _ in range(points)) for _ in range(2)]
        table = _transformations(gens, hi)
        if table is not None and len(table) >= lo:
            return _relabel(table, b.rng)


def _semigroup_job(b: _Builder, orders: tuple) -> Job:
    def draw():
        table = _semigroup_table(b, *orders)
        n = len(table)
        jid = b.job_id("semigroup")
        name = f"table_{jid}.txt"
        text = f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)
        argv = ["semigroup", "--table", f"{WORK}/{name}", "--report", "full", "--order-cap", str(n)]
        return Job(jid, "semigroup", argv, frozenset({0}), {name: text}, {"table": table})

    return b.distinct(draw)


def _listing_job(b: _Builder, kind: str) -> Job:
    """fs or fp over nat, fib or pow.  ``pow-over`` lists values past the digit limit."""

    def draw():
        op = b.rng.choice(("fs", "fp"))
        seq = b.rng.choice(("nat", "fib")) if kind == "nat-or-fib" else kind
        # every size listed needs at most about 1 MB more than the other jobs
        # (fs over nat:200 needs 7 MB more), so the memory peak of a run does
        # not hinge on the largest listing its seed drew
        if seq == "nat":
            source = f"nat:{b.rng.randint(20, 90)}" if op == "fs" else f"nat:{b.rng.randint(8, 16)}"
        elif seq == "fib":
            source = f"fib:{b.rng.randint(4, 18)}" if op == "fs" else f"fib:{b.rng.randint(4, 14)}"
        else:
            source = f"pow:{_pow_listing_base(b, op, kind == 'pow-over')}"
        jid = b.job_id(op)
        return Job(jid, op, [op, "--seq", source], frozenset({0}), {}, {"source": source},
                   known_defect=kind == "pow-over")

    return b.distinct(draw)


def _pow_listing_base(b: _Builder, op: str, over: bool) -> str:
    """``b:N`` for a pow listing whose largest value is past (or short of) the limit.

    Base lengths are drawn over the range the CLI parses, up to the limit
    itself; the count is the smallest (plus a little) that crosses the limit,
    or any count that stays well short of it.
    """
    while True:
        if over:
            digits = round(10 ** b.rng.uniform(1.0 if op == "fp" else 2.7, 3.6))
        else:
            digits = b.rng.randint(1, 40)
        base = b.rng.randrange(max(2, 10 ** (digits - 1)), 10**digits)
        # below the limit, fs stops at 9 terms, 512 sums, for the memory peak
        counts = range(2, 12 if over else 10) if op == "fs" else range(2, 31)
        exponent = (lambda c: c) if op == "fs" else (lambda c: c * (c + 1) // 2)
        if over:
            crossing = [c for c in counts if digits * exponent(c) > STR_DIGIT_LIMIT + 200]
            if not crossing:
                continue
            count = crossing[0] + b.rng.randint(0, 1)
        else:
            count = b.rng.choice(list(counts))
        top = base ** exponent(count) * (2 if op == "fs" else 1)
        size = decimal_digits(top)
        if (over and size > STR_DIGIT_LIMIT + 100) or (not over and size < STR_DIGIT_LIMIT - 100):
            return f"{base}:{count}"


# nat and fib hold about 100 distinct listings, so one slot per round draws
# from them; pow bases are drawn from a range without practical end
LISTING_SLOTS = ("nat-or-fib", "pow", "pow-over")


def _structure_round(b: _Builder) -> list:
    jobs = [_refute_job(b, exists) for exists in (False, False, False, True, True)]
    jobs += [_hindman_job(b, *slot) for slot in HINDMAN_SLOTS]
    jobs += [_semigroup_job(b, orders) for orders in SEMIGROUP_ORDERS]
    jobs += [_listing_job(b, kind) for kind in LISTING_SLOTS]
    b.rng.shuffle(jobs)
    return jobs


ROUND_BUILDERS = {
    "search-nodes": _search_nodes_round,
    "search-certify": _search_certify_round,
    "structure": _structure_round,
}


def iter_rounds(workload: str, seed: int):
    """Rounds of distinct jobs, without end; the same (workload, seed) gives the same rounds."""
    if workload not in ROUND_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _rounds(_Builder(workload, seed), ROUND_BUILDERS[workload])


def _rounds(b: _Builder, build):
    for r in itertools.count():
        b.round, b.slot = r, 0
        yield build(b)


def build_rounds(workload: str, seed: int, rounds: int) -> list:
    """The first ``rounds`` rounds of :func:`iter_rounds`."""
    return list(itertools.islice(iter_rounds(workload, seed), rounds))
