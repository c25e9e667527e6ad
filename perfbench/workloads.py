"""The two workloads: seeded inputs, timed jobs, and their checks.

decide-stream sends independent `decide` queries through the CLI.
certify checks the operad-law grids (symmetries, comm-monoid-fp and the
end-3 clone bridge) and then certifies in long-lived contexts (class
enumeration, the all-pairs grid, strictification).

Each workload has `setup(ow, seed, root)`, which turns the seed into
inputs (values built with the package, term strings, file paths) before
any timing, and `jobs(state)`, which returns the timed phase as a list
of jobs. A job's `run` is the only timed code; its `check` compares the
output with the references in `refs` afterwards and returns an Outcome.

`ow` holds the package's layer modules. Jobs call the package through
those module attributes at call time, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field

import refs

EXAMPLES = "src/operad_workbench/examples"


@dataclass
class Outcome:
    items: int
    failures: list = field(default_factory=list)
    unknown: int = 0

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.items)


@dataclass
class Job:
    name: str
    run: object
    check: object


def _report_outcome(report, expect: dict | None = None) -> Outcome:
    failures = [f"report: {line}" for line in report.failures]
    for label, count in (expect or {}).items():
        if report.checked.get(label) != count:
            failures.append(f"{label}: {report.checked.get(label)} "
                            f"instances, expected {count}")
    return Outcome(max(sum(report.checked.values()), 1), failures)


# --------------------------------------------------------- operad-law grids

# criterion 3's law grids (arities 0..3) are sampled uniformly at this
# fraction, so that the laws keep the proportions the criterion gives
# them; its unit and comm-monoid-fp action grids are small and run whole
GRID_FRACTION = 1 / 40
# outer equivariance and combing, which criterion 3 leaves out: the laws
# that reach finmaps.block_permutation and finmaps.comb_compose
EXTRA_LAW_SAMPLES = 1000
# end-3 pointwise compositions per outer arity n in 1..3, and act_fn
# instances. The seed draws only the tables: composition i has inner
# arities summing to i mod (3n + 1), up to 3^9-entry composites, and
# act_fn instance i acts from arity i mod 4, so the cost is the same for
# every seed.
END3_COMPOSE, END3_ACT = 10, 60
# vectors of criterion 3's comm-monoid-fp pools: entries 0..2
VECTOR_ENTRIES = 3


def _perms(n: int) -> list:
    return list(itertools.permutations(range(1, n + 1)))


def _vectors(n: int) -> list:
    return list(itertools.product(range(VECTOR_ENTRIES), repeat=n))


def _grid_sample(rng, outer: dict, inner: list, size: float) -> list:
    """A uniform sample from the grid of (p, qs) with p in outer[n] and
    each of the n qs in inner, over n in 0..3: n is drawn with weight
    |outer[n]| * |inner|^n, then p and the qs uniformly."""
    weights = [len(outer[n]) * len(inner) ** n for n in range(4)]
    arities = rng.choices(range(4), weights=weights, k=round(size))
    return [(rng.choice(outer[n]), rng.choices(inner, k=n))
            for n in arities]


def _assoc_instances(perms: dict, slots: int) -> int:
    """Criterion 3's associativity instances over one (sigma, taus) with
    this many third-level slots: the all-identity third level, and one
    permutation of arity 0, 2 or 3 at each slot in turn."""
    return 1 + slots * sum(len(perms[n]) for n in (0, 2, 3))


def _assoc_sample(rng, perms: dict, count: int) -> list:
    """A uniform sample from criterion 3's associativity grid. Bases
    (sigma, taus) are drawn by rejection from the composition grid, with
    acceptance proportional to their number of instances, then one of
    those instances uniformly."""
    small = [u for n in (0, 2, 3) for u in perms[n]]
    every = [t for n in range(4) for t in perms[n]]
    most = _assoc_instances(perms, 3 * 3)
    out = []
    while len(out) < count:
        n = rng.choices(range(4), weights=[len(perms[n]) * len(every) ** n
                                           for n in range(4)])[0]
        sigma, taus = rng.choice(perms[n]), rng.choices(every, k=n)
        slots = [(i, j) for i, tau in enumerate(taus)
                 for j in range(len(tau))]
        instances = _assoc_instances(perms, len(slots))
        if rng.random() * most >= instances:
            continue
        rss = [[(1,)] * len(tau) for tau in taus]
        pick = rng.randrange(instances)
        if pick:
            i, j = slots[(pick - 1) // len(small)]
            rss[i][j] = small[(pick - 1) % len(small)]
        out.append((sigma, taus, rss))
    return out


def _assoc_grid_size(perms: dict) -> int:
    return sum(len(perms[n]) * math.prod(len(perms[k]) for k in ks)
               * _assoc_instances(perms, sum(ks))
               for n in range(4)
               for ks in itertools.product(range(4), repeat=n))


def law_grid_setup(ow, seed: int, root) -> dict:
    rng = random.Random(seed)
    fm, op = ow.finmaps, ow.operads
    perms = {n: _perms(n) for n in range(4)}
    as_perm = {t: fm.perm(t) for n in range(4) for t in perms[n]}
    every_perm = [t for n in range(4) for t in perms[n]]
    vec = {n: _vectors(n) for n in range(4)}
    every_vec = [v for n in range(4) for v in vec[n]]

    compose_grid = sum(len(perms[n]) * len(every_perm) ** n
                       for n in range(4))
    sym_compose = _grid_sample(rng, perms, every_perm,
                               compose_grid * GRID_FRACTION)
    sym_assoc = _assoc_sample(
        rng, perms, round(_assoc_grid_size(perms) * GRID_FRACTION))
    comm_grid = sum(len(vec[n]) * len(every_vec) ** n for n in range(4))
    comm_compose = _grid_sample(rng, vec, every_vec,
                                comm_grid * GRID_FRACTION)
    comm_act = [(table, n, p) for m in range(4) for n in range(4)
                for table in itertools.product(range(1, n + 1), repeat=m)
                for p in vec[m]]

    # outer equivariance: act on p by sigma, then compose with rs
    sym_equiv = [(rng.choice(perms[len(p)]), p, rs) for p, rs in
                 _grid_sample(rng, perms, every_perm, EXTRA_LAW_SAMPLES)
                 if p]
    # combing: f: [n] -> [m] on p, one g_s: [k_s] -> [j_s] and q_s per slot
    comm_comb = []
    for _ in range(EXTRA_LAW_SAMPLES):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        f = tuple(rng.randint(1, m) for _ in range(n))
        gs = []
        for _ in range(m):
            k, j = rng.randint(0, 2), rng.randint(1, 2)
            gs.append((tuple(rng.randint(1, j) for _ in range(k)), j))
        comm_comb.append((f, m, rng.choice(vec[n]), gs,
                          [rng.choice(vec[len(g)]) for g, _ in gs]))

    carrier = 3

    def random_op(arity):
        return tuple(rng.randint(1, carrier) for _ in range(carrier ** arity))

    # criterion 4's bridge checks over one seeded element per arity 0..3
    end3_pool = {n: [random_op(n)] for n in range(4)}
    vector_pool = {n: [rng.choice(vec[n])] for n in range(4)}
    def split(total, parts):
        base, extra = divmod(total, parts)
        return [base + (j < extra) for j in range(parts)]

    end3_compose = {n: [(random_op(n), [random_op(k) for k in
                                        split(i % (3 * n + 1), n)])
                        for i in range(END3_COMPOSE)]
                    for n in range(1, 4)}
    end3_act = []
    for i in range(END3_ACT):
        n, m = i % 4, 1 + i // 4 % 3
        end3_act.append((tuple(rng.randint(1, m) for _ in range(n)), m,
                         random_op(n)))

    def finite_op(table):
        arity = 0
        while carrier ** arity < len(table):
            arity += 1
        return op.FiniteOp(carrier, arity, table)

    return {
        "ow": ow, "as_perm": as_perm,
        "sym_unit": every_perm, "sym_compose": sym_compose,
        "sym_assoc": sym_assoc, "sym_equiv": sym_equiv,
        "comm_compose": comm_compose, "comm_act": comm_act,
        "comm_comb": [
            (fm.fn(f, m), p, [fm.fn(g, j) for g, j in gs], qs,
             (f, m, p, gs, qs)) for f, m, p, gs, qs in comm_comb],
        "vector_pool": vector_pool,
        "end3_pool": {n: [finite_op(t) for t in pool]
                      for n, pool in end3_pool.items()},
        "end3_compose": {n: [(finite_op(p), [finite_op(q) for q in qs])
                             for p, qs in batch]
                         for n, batch in end3_compose.items()},
        "end3_compose_raw": end3_compose,
        "end3_act": [(ow.finmaps.fn(f, m), finite_op(p), (f, m, p))
                     for f, m, p in end3_act],
        "inputs": {"grid_fraction": GRID_FRACTION,
                   "sym_unit": len(every_perm),
                   "sym_compose": len(sym_compose),
                   "sym_assoc": len(sym_assoc),
                   "sym_equiv": len(sym_equiv),
                   "comm_compose": len(comm_compose),
                   "comm_act": len(comm_act), "comm_comb": len(comm_comb),
                   "end3_compose": 3 * END3_COMPOSE, "end3_act": END3_ACT,
                   "bridge_pools": "one element per arity 0..3"},
    }


def _mismatches(label, pairs) -> Outcome:
    return Outcome(len(pairs), [f"{label}: {got} != {want}"
                                for got, want in pairs if got != want])


def law_grid_jobs(s: dict) -> list:
    """One job per law sample; each is one verdict."""
    ow, as_perm = s["ow"], s["as_perm"]
    sym = ow.operads.SymmetryOperad()
    comm = ow.operads.CommMonoidFPOperad()
    end3 = ow.operads.EndOperad(3)
    jobs = []

    def unit_run():
        ident = sym.identity()
        return [(sym.compose(ident, [as_perm[t]]).table,
                 sym.compose(as_perm[t], [ident] * len(t)).table)
                for t in s["sym_unit"]]

    jobs.append(Job("symmetries unit", unit_run, lambda out: _mismatches(
        "unit", [(pair, (t, t)) for pair, t in zip(out, s["sym_unit"])])))

    jobs.append(Job(
        "symmetries compose",
        lambda: [sym.compose(as_perm[sigma], [as_perm[t] for t in taus])
                 .table for sigma, taus in s["sym_compose"]],
        lambda out: _mismatches("compose", [
            (got, refs.block_compose_ref(sigma, taus))
            for got, (sigma, taus) in zip(out, s["sym_compose"])])))

    def assoc_run():
        out = []
        for sigma, taus, rss in s["sym_assoc"]:
            p, qs = as_perm[sigma], [as_perm[t] for t in taus]
            rs = [[as_perm[r] for r in row] for row in rss]
            flat = [r for row in rs for r in row]
            one_shot = sym.compose(sym.compose(p, qs), flat)
            nested = sym.compose(p, [sym.compose(q, row)
                                     for q, row in zip(qs, rs)])
            out.append((one_shot.table, nested.table))
        return out

    def assoc_check(out):
        pairs = []
        for got, (sigma, taus, rss) in zip(out, s["sym_assoc"]):
            flat = [r for row in rss for r in row]
            want = refs.block_compose_ref(refs.block_compose_ref(sigma, taus),
                                          flat)
            pairs.append((got, (want, want)))
        return _mismatches("associativity", pairs)

    jobs.append(Job("symmetries associativity", assoc_run, assoc_check))

    def equiv_run():
        fm = ow.finmaps
        out = []
        for sigma, p, rs in s["sym_equiv"]:
            sigma_, p_ = as_perm[sigma], as_perm[p]
            rs_ = [as_perm[r] for r in rs]
            left = sym.compose(sym.act_perm(sigma_, p_), rs_)
            routed = fm.select(sigma_, tuple(rs_))
            shuffle = fm.block_permutation(sigma_, [len(r) for r in rs])
            right = sym.act_perm(shuffle, sym.compose(p_, list(routed)))
            out.append((left.table, right.table))
        return out

    def equiv_check(out):
        pairs = []
        for got, (sigma, p, rs) in zip(out, s["sym_equiv"]):
            want = refs.block_compose_ref(refs.perm_act_ref(sigma, p), rs)
            pairs.append((got, (want, want)))
        return _mismatches("equivariance", pairs)

    jobs.append(Job("symmetries equivariance", equiv_run, equiv_check))

    jobs.append(Job(
        "comm-monoid-fp compose",
        lambda: [comm.compose(p, qs) for p, qs in s["comm_compose"]],
        lambda out: _mismatches("comm compose", [
            (got, refs.multiplicity_compose_ref(p, qs))
            for got, (p, qs) in zip(out, s["comm_compose"])])))

    fns = [(ow.finmaps.fn(table, n), table, n, p)
           for table, n, p in s["comm_act"]]
    jobs.append(Job(
        "comm-monoid-fp act_fn",
        lambda: [comm.act_fn(f, p) for f, _, _, p in fns],
        lambda out: _mismatches("comm act", [
            (got, refs.multiplicity_act_ref(table, n, p))
            for got, (_, table, n, p) in zip(out, fns)])))

    def comb_run():
        fm = ow.finmaps
        out = []
        for f, p, gs, qs, _ in s["comm_comb"]:
            left = comm.compose(comm.act_fn(f, p), [
                comm.act_fn(g, q) for g, q in zip(gs, qs)])
            routed = fm.select(f, tuple(qs))
            right = comm.act_fn(fm.comb_compose(f, gs),
                                comm.compose(p, list(routed)))
            out.append((left, right))
        return out

    def comb_check(out):
        pairs = []
        for got, (*_, (f, m, p, gs, qs)) in zip(out, s["comm_comb"]):
            want = refs.multiplicity_compose_ref(
                refs.multiplicity_act_ref(f, m, p),
                [refs.multiplicity_act_ref(g, j, q)
                 for (g, j), q in zip(gs, qs)])
            pairs.append((got, (want, want)))
        return _mismatches("combing", pairs)

    jobs.append(Job("comm-monoid-fp combing", comb_run, comb_check))

    for n, batch in s["end3_compose"].items():
        raw = s["end3_compose_raw"][n]

        def run(batch=batch):
            return [end3.compose(p, qs).table for p, qs in batch]

        def check(out, raw=raw):
            return _mismatches("end-3 compose", [
                (got, refs.end_compose_ref(3, p, qs))
                for got, (p, qs) in zip(out, raw)])

        jobs.append(Job(f"end-3 compose n={n}", run, check))

    jobs.append(Job(
        "end-3 act_fn",
        lambda: [end3.act_fn(f, p).table for f, p, _ in s["end3_act"]],
        lambda out: _mismatches("end-3 act", [
            (got, refs.end_act_ref(3, f, m, p))
            for got, (_, _, (f, m, p)) in zip(out, s["end3_act"])])))

    jobs.append(Job(
        "comm-monoid-fp roundtrip_check",
        lambda: ow.clones.roundtrip_check(ow.operads.CommMonoidFPOperad(),
                                          s["vector_pool"]),
        _report_outcome))
    jobs.append(Job(
        "end-3 roundtrip_check",
        lambda: ow.clones.roundtrip_check(ow.operads.EndOperad(3),
                                          s["end3_pool"]),
        _report_outcome))
    jobs.append(Job(
        "end-3 clone_roundtrip_check",
        lambda: ow.clones.clone_roundtrip_check(ow.clones.EndClone(3),
                                                s["end3_pool"]),
        _report_outcome))
    return jobs


# ------------------------------------------------------------- decide-stream

# (theory, arity, cap, same-arity queries, of which one side exceeds the
# cap). Latency is set by the (theory, arity, cap) class, so the counts
# fix where the percentiles of the 102 queries fall: p50 inside the
# block of arity-2 cap-7 and arity-1 cap-9 queries, p90 inside
# the arity-3 cap-7 block, with 11 queries beyond it.
DECIDE_PLAN = [
    ("monoid.th", 0, 7, 5, 1), ("monoid.th", 0, 9, 4, 1),
    ("comm_monoid.th", 0, 7, 5, 1), ("comm_monoid.th", 0, 9, 4, 0),
    ("monoid.th", 1, 7, 6, 1), ("comm_monoid.th", 1, 7, 6, 1),
    ("monoid.th", 2, 7, 20, 2), ("monoid.th", 1, 9, 10, 1),
    ("comm_monoid.th", 2, 7, 8, 1),
    ("comm_monoid.th", 1, 9, 8, 1),
    ("monoid.th", 3, 7, 10, 1), ("comm_monoid.th", 3, 7, 2, 0),
    ("comm_monoid.th", 2, 9, 2, 0),
]
# pairs of different arities, answered before any saturation, drawn from
# all three theories. unbiased_monoid.th takes part only here, and
# monoid.th stays below arity 2 at cap 9: there, same-arity decisions
# can end in a RecursionError while the merge is explained, a workbench
# defect recorded in CHANGES.md.
DECIDE_CROSS = 12
CROSS_THEORIES = ("comm_monoid.th", "monoid.th", "unbiased_monoid.th")
EXACT_THEORIES = ("monoid.th", "comm_monoid.th")


def decide_setup(ow, seed: int, root) -> dict:
    rng = random.Random(seed)
    theories = {}
    for name in CROSS_THEORIES:
        text = (root / EXAMPLES / name).read_text(encoding="utf-8")
        theories[name] = refs.parse_theory(text)
    pools: dict = {}

    def pool(name, arity, cap):
        key = (name, arity, cap)
        if key not in pools:
            pools[key] = refs.ordered_terms(theories[name]["ops"], arity, cap)
        return pools[key]

    def draw(name, arity, cap, over=False):
        if over:
            terms = [t for t in pool(name, arity, cap + 2)
                     if refs.term_size(t) > cap]
        else:
            terms = pool(name, arity, cap)
        term = rng.choice(terms)
        if theories[name]["flavor"] == "symmetric" and arity > 1:
            labels = list(range(1, arity + 1))
            rng.shuffle(labels)
            term = _relabel(term, labels)
        return refs.format_term(term)

    queries = []
    for name, arity, cap, count, over in DECIDE_PLAN:
        for k in range(count):
            left, right = draw(name, arity, cap), draw(name, arity, cap)
            if k < over:
                if rng.random() < 0.5:
                    left = draw(name, arity, cap, over=True)
                else:
                    right = draw(name, arity, cap, over=True)
            queries.append((name, left, right, cap))
    for _ in range(DECIDE_CROSS):
        name = rng.choice(CROSS_THEORIES)
        a, b = rng.sample(range(3 if name.startswith("unbiased") else 4), 2)
        cap = rng.choice((7, 9))
        queries.append((name, draw(name, a, 7), draw(name, b, 7), cap))
    rng.shuffle(queries)
    return {"ow": ow, "root": root, "theories": theories, "queries": queries,
            "inputs": {"queries": len(queries), "plan": DECIDE_PLAN,
                       "cross_arity": DECIDE_CROSS}}


def _relabel(t, labels):
    if isinstance(t, int):
        return labels[t - 1]
    return (t[0], *(_relabel(c, labels) for c in t[1:]))


def _arity(term) -> int:
    return max(refs.term_vars(term), default=0)


def decide_expected(theory_name: str, left: str, right: str, cap: int) -> str:
    """The exact answer for monoid and comm_monoid: every pair of one
    arity is identified within the bound, so different arities give no,
    a side over the cap gives unknown, and anything else gives yes."""
    lt, rt = refs.parse_term(left), refs.parse_term(right)
    if _arity(lt) != _arity(rt):
        return "no"
    if max(refs.term_size(lt), refs.term_size(rt)) > cap:
        return "unknown"
    return "yes"


def decide_check(theory: dict, theory_name: str, left: str, right: str,
                 cap: int, code: int, payload: dict | None) -> Outcome:
    if payload is None:
        return Outcome(1, [f"{left} ~ {right}: exit {code}, no JSON"])
    answer = payload.get("answer")
    failures = []
    if code != {"yes": 0, "no": 1, "unknown": 2}.get(answer):
        failures.append(f"exit code {code} for answer {answer!r}")
    lt, rt = refs.parse_term(left), refs.parse_term(right)
    if theory_name in EXACT_THEORIES:
        want = decide_expected(theory_name, left, right, cap)
        if answer != want:
            failures.append(f"answer {answer}, expected {want}")
    else:
        # consistency with evaluation in terminal-plain, where a term's
        # value is its arity
        same = _arity(lt) == _arity(rt)
        if answer == "yes" and not same:
            failures.append("yes across arities")
        if answer == "no" and same:
            failures.append("no within one arity")
        reason = payload.get("reason", "")
        if answer == "unknown" and "bound" not in reason \
                and "budget" not in reason:
            failures.append(f"unknown names no bound: {reason!r}")
    if answer == "yes":
        steps = [(step["source"], step["target"], step["equation"],
                  step["forward"], refs.parse_position(step["position"]))
                 for step in payload.get("trace") or []]
        bad = refs.replay(theory["eqs"], steps, lt, rt)
        if bad:
            failures.append(f"trace: {bad}")
    return Outcome(1, [f"decide {theory_name} {left} ~ {right} "
                       f"--max-size {cap}: {msg}" for msg in failures],
                   unknown=int(answer == "unknown"))


def decide_jobs(s: dict) -> list:
    ow, root = s["ow"], s["root"]
    jobs = []
    for name, left, right, cap in s["queries"]:
        argv = ["decide", str(root / EXAMPLES / name), left, right,
                "--max-size", str(cap), "--json"]

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = ow.cli.main(argv)
            return code, out.getvalue()

        def check(result, name=name, left=left, right=right, cap=cap):
            code, text = result
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                payload = None
            return decide_check(s["theories"][name], name, left, right, cap,
                                code, payload)

        jobs.append(Job(f"decide {name} {left} ~ {right} cap {cap}",
                        run, check))
    return jobs


# ------------------------------------------------------------ certificates

CLOSURE_CAP = 7
END2_ARITIES, END2_SIZE = range(5), 11
COMM_FP_ARITIES, COMM_FP_SIZE = range(4), 7
GRID_ARITIES, GRID_SIZE = range(5), 6
STRICT_OBJECTS = {3: 40, 4: 85}


def _labels(rng, n: int) -> list:
    out: list = []
    while len(out) < n:
        word = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz")
                       for _ in range(rng.randint(2, 3)))
        if word not in out:
            out.append(word)
    return out


def certificates_setup(ow, seed: int, root) -> dict:
    rng = random.Random(seed)
    ex = root / EXAMPLES
    texts = {name: (ex / name).read_text(encoding="utf-8")
             for name in ("monoid.th", "comm_monoid.th",
                          "unbiased_monoid.th")}
    presentations = {name: ow.terms.parse_presentation(text)
                     for name, text in texts.items()}
    zmods = {}
    for n in STRICT_OBJECTS:
        labels = _labels(rng, n)
        index = {label: i for i, label in enumerate(labels)}
        zmods[n] = (labels, index)
    # the end-2 interpretation of the monoid signature
    m_table = tuple(rng.randint(1, 2) for _ in range(4))
    e_table = (rng.randint(1, 2),)
    # instances are built once here to validate the inputs; each pass
    # builds its own so that no cache carries over between passes
    for n, (labels, index) in zmods.items():
        _zmod_instance(ow, presentations["monoid.th"], labels, index)
    return {
        "ow": ow, "rng_seed": rng.random(), "texts": texts,
        "presentations": presentations,
        "theories": {name: refs.parse_theory(text)
                     for name, text in texts.items()},
        "weakcat_text": (ex / "indiscrete_monoid_weakcat.json")
        .read_text(encoding="utf-8"),
        "zmods": zmods, "end2": {"m": m_table, "e": e_table},
        "inputs": {"closure_cap": CLOSURE_CAP, "end2_size": END2_SIZE,
                   "comm_fp_size": COMM_FP_SIZE, "grid_size": GRID_SIZE,
                   "zmod": sorted(STRICT_OBJECTS)},
    }


def _zmod_instance(ow, monoid, labels, index):
    n = len(labels)
    return ow.weakcat.indiscrete_monoid_instance(
        monoid, labels, labels[0],
        lambda a, b: labels[(index[a] + index[b]) % n])


def _identity_map(ow, W):
    G = ow.weakcat.Functor.identity_functor(W.base)
    psi = {op: {ow.weakcat.unkey(key): W.base.identity(obj)
                for key, obj in gen.obj_map.items()}
           for op, gen in W.generators.items()}
    return ow.weakcat.WeakPFunctorData(W, W, G, psi)


def _collapse_map(ow, W):
    wc = ow.weakcat
    base = wc.FiniteCategory.terminal()
    ident = base.identity("o")
    generators = {
        "m": wc.Functor(base, base, 2, {wc.key_of(("o", "o")): "o"},
                        {wc.key_of((ident, ident)): ident}, name="m"),
        "e": wc.Functor(base, base, 0, {"": "o"}, {"": ident}, name="e"),
    }
    deltas = {i: {("o",) * eq.arity: ident}
              for i, eq in enumerate(W.presentation.equations)}
    B = wc.WeakPCategoryData(base, W.presentation, generators, deltas)
    functor = wc.Functor(W.base, B.base, 1,
                         {wc.key_of((a,)): "o" for a in W.base.objects},
                         {wc.key_of((f,)): ident for f in W.base.arrows})
    psi = {"m": {(a, b): ident for a in W.base.objects
                 for b in W.base.objects},
           "e": {(): ident}}
    return wc.WeakPFunctorData(W, B, functor, psi)


def _doubling_map(ow, W, labels, index):
    wc = ow.weakcat
    n = len(labels)

    def dbl(a):
        return labels[(2 * index[a]) % n]

    functor = wc.Functor(
        W.base, W.base, 1,
        {wc.key_of((a,)): dbl(a) for a in W.base.objects},
        {wc.key_of((f.id,)): f"{dbl(f.src)}>{dbl(f.dst)}"
         for f in W.base.arrows.values()})
    psi = {"m": {(a, b): W.base.identity(
                 dbl(labels[(index[a] + index[b]) % n]))
                 for a in W.base.objects for b in W.base.objects},
           "e": {(): W.base.identity(labels[0])}}
    return wc.WeakPFunctorData(W, W, functor, psi)


def _closure_classes_check(s, name, arity, size, permuted):
    ops = s["theories"][name]["ops"]

    def check(classes):
        want = refs.count_trees(ops, arity, size, permuted)
        got = sum(len(c.members) for c in classes)
        failures = []
        if got != want:
            failures.append(f"{got} objects, expected {want}")
        if want and len(classes) != 1:
            failures.append(f"{len(classes)} classes, expected 1")
        return Outcome(max(got, 1), [f"classes {name} arity {arity}: {m}"
                                     for m in failures])
    return check


def certificates_jobs(s: dict) -> list:
    ow = s["ow"]
    pres = s["presentations"]
    op = ow.operads
    jobs = []
    box: dict = {}   # contexts and instances live for one pass

    for name in ("monoid.th", "comm_monoid.th"):
        permuted = s["theories"][name]["flavor"] == "symmetric"
        for arity in (3, 2, 1, 0):
            def run(name=name, arity=arity):
                key = ("closure", name)
                if key not in box:
                    box[key] = ow.weakening.WeakeningContext(
                        pres[name], max_term_size=CLOSURE_CAP)
                return box[key].enumerate_classes(arity, CLOSURE_CAP)
            jobs.append(Job(f"closure classes {name} arity {arity}", run,
                            _closure_classes_check(s, name, arity,
                                                   CLOSURE_CAP, permuted)))

    def terminal_context(name):
        operad = op.builtin_operad("terminal-plain")
        interp = op.Interpretation(pres[name], operad,
                                   op.default_assignment(pres[name], operad))
        return ow.weakening.WeakeningContext(pres[name], interp)

    def agreement_check(report):
        failures = [f"agreement: {line}" for line in report.failures]
        items = 0
        for arity, (left, right) in report.arities.items():
            items += len(left) + len(right)
            if left != right or len(left) != 1:
                failures.append(f"agreement arity {arity}: {left} vs {right}")
        return Outcome(max(items, 1), failures)

    jobs.append(Job(
        "biased_unbiased_agreement",
        lambda: ow.weakening.biased_unbiased_agreement(
            terminal_context("monoid.th"),
            terminal_context("unbiased_monoid.th"), range(4), 6),
        agreement_check))

    end2 = s["end2"]
    for arity in END2_ARITIES:
        def run(arity=arity):
            if "end-2" not in box:
                target = op.EndOperad(2)
                interp = op.Interpretation(
                    pres["monoid.th"], target,
                    {"m": op.FiniteOp(2, 2, end2["m"]),
                     "e": op.FiniteOp(2, 0, end2["e"])})
                box["end-2"] = ow.weakening.WeakeningContext(
                    pres["monoid.th"], interp)
            return box["end-2"].enumerate_classes(arity, END2_SIZE)

        def check(classes, arity=arity):
            ops = s["theories"]["monoid.th"]["ops"]
            want = refs.count_trees(ops, arity, END2_SIZE)
            got = sum(len(c.members) for c in classes)
            failures = [] if got == want else [
                f"{got} objects, expected {want}"]
            seen = set()
            for cls in classes:
                element = cls.element.table
                if element in seen:
                    failures.append(f"element {element} heads two classes")
                seen.add(element)
                for member in cls.members:
                    tree = refs.parse_tree(ow.trees.format_tree(member))
                    if refs.eval_tree_end(2, tree, end2) != element:
                        failures.append(f"{ow.trees.format_tree(member)} "
                                        f"is not {element}")
            return Outcome(max(got, 1), [f"end-2 classes arity {arity}: {m}"
                                         for m in failures])

        jobs.append(Job(f"end-2 classes arity {arity}", run, check))

    def comm_fp_context():
        if "comm-fp" not in box:
            interp = op.Interpretation(pres["comm_monoid.th"],
                                       op.CommMonoidFPOperad(),
                                       {"m": (1, 1), "e": ()})
            box["comm-fp"] = ow.weakening.WeakeningContext(
                pres["comm_monoid.th"], interp)
        return box["comm-fp"]

    for arity in COMM_FP_ARITIES:
        base_check = _closure_classes_check(s, "comm_monoid.th", arity,
                                            COMM_FP_SIZE, True)

        def check(classes, arity=arity, base_check=base_check):
            outcome = base_check(classes)
            for cls in classes:
                if tuple(cls.element) != (1,) * arity:
                    outcome.failures.append(
                        f"comm-fp arity {arity}: element {cls.element}")
            return outcome

        jobs.append(Job(
            f"comm-monoid-fp classes arity {arity}",
            lambda arity=arity: comm_fp_context().enumerate_classes(
                arity, COMM_FP_SIZE), check))

    grid_rng = random.Random(s["rng_seed"])

    def grid_run():
        ctx_eval = comm_fp_context()
        ctx_sat = ow.weakening.WeakeningContext(pres["comm_monoid.th"])
        objs = [(n, o) for n in GRID_ARITIES
                for o in ctx_eval.enumerate_objects(n, GRID_SIZE)]
        pairs = [(a, b) for a in objs for b in objs]
        grid_rng.shuffle(pairs)
        return ctx_sat, [(n1 == n2, o1, o2, ctx_eval.two_cell(o1, o2),
                          ctx_sat.two_cell(o1, o2))
                         for (n1, o1), (n2, o2) in pairs]

    def grid_check(result):
        ctx_sat, rows = result
        eqs = s["theories"]["comm_monoid.th"]["eqs"]
        fmt = ow.terms.format_term
        failures = []
        for same, o1, o2, d_eval, d_sat in rows:
            want = "yes" if same else "no"
            if d_eval.answer != want or d_sat.answer != want:
                failures.append(f"{ctx_sat.format_object(o1)} ~ "
                                f"{ctx_sat.format_object(o2)}: "
                                f"{d_eval.answer}/{d_sat.answer}")
            elif d_sat.trace:
                steps = [(fmt(st.source), fmt(st.target), st.eq_index,
                          st.forward, tuple(st.position))
                         for st in d_sat.trace]
                start, goal = (refs.parse_term(fmt(ctx_sat.object_term(o)))
                               for o in (o1, o2))
                bad = refs.replay(eqs, steps, start, goal)
                if bad:
                    failures.append(f"grid trace: {bad}")
        return Outcome(2 * len(rows), failures)

    jobs.append(Job("criterion-5 all-pairs grid", grid_run, grid_check))

    monoid = pres["monoid.th"]
    for n, (labels, index) in s["zmods"].items():
        expected = STRICT_OBJECTS[n]

        def build(n=n, labels=labels, index=index):
            W = _zmod_instance(ow, monoid, labels, index)
            S = ow.strictify.strictify(W)
            box[("Z", n)] = (W, S)
            return S

        def objects_check(S, expected=expected, n=n):
            got = len(S.objects)
            return Outcome(max(got, 1), [] if got == expected else [
                f"Z/{n}: {got} strict objects, expected {expected}"])

        jobs.append(Job(f"Z/{n} build and strictify", build, objects_check))
        jobs.append(Job(
            f"Z/{n} check_strictness",
            lambda n=n: ow.strictify.check_strictness(
                box[("Z", n)][1], arrow_cap=6, instance_cap=10 ** 6),
            _report_outcome))
        jobs.append(Job(
            f"Z/{n} check_equivalence",
            lambda n=n: ow.strictify.check_equivalence(
                box[("Z", n)][1], box[("Z", n)][0]),
            lambda report, n=n, expected=expected: _report_outcome(
                report, {"hom bijection": expected ** 2,
                         "essential surjectivity": n})))
        jobs.append(Job(
            f"Z/{n} coherence_check",
            lambda n=n: ow.weakcat.coherence_check(box[("Z", n)][0]),
            _report_outcome))
        if n != 3:
            continue
        for label, make in (
                ("identity", lambda W: _identity_map(ow, W)),
                ("collapse", lambda W: _collapse_map(ow, W)),
                ("doubling", lambda W, labels=labels, index=index:
                 _doubling_map(ow, W, labels, index))):
            def universal(make=make):
                W = box[("Z", 3)][0]
                G = make(W)
                return ow.strictify.universal_property_check(W, G.target, G)

            def universal_check(report):
                outcome = _report_outcome(report)
                if not report.checked.get("uniqueness pins"):
                    outcome.failures.append("no uniqueness pins")
                return outcome

            jobs.append(Job(f"Z/3 universal property ({label} map)",
                            universal, universal_check))

    def json_build():
        W = ow.weakcat.load_weakcat(s["weakcat_text"])
        S = ow.strictify.strictify(W)
        box["json"] = (W, S)
        return S

    jobs.append(Job("bundled instance load and strictify", json_build,
                    lambda S: Outcome(max(len(S.objects), 1), [] if len(
                        S.objects) == 40 else [
                        f"bundled instance: {len(S.objects)} objects"])))
    jobs.append(Job("bundled instance check_strictness",
                    lambda: ow.strictify.check_strictness(box["json"][1]),
                    _report_outcome))
    jobs.append(Job("bundled instance check_equivalence",
                    lambda: ow.strictify.check_equivalence(
                        box["json"][1], box["json"][0]),
                    lambda report: _report_outcome(
                        report, {"hom bijection": 1600,
                                 "essential surjectivity": 3})))
    return jobs


# ------------------------------------------------------------------ certify


def certify_setup(ow, seed: int, root) -> dict:
    laws = law_grid_setup(ow, seed, root)
    state = certificates_setup(ow, seed, root)
    state["laws"] = laws
    state["inputs"] = {**laws["inputs"], **state["inputs"]}
    return state


def certify_jobs(s: dict) -> list:
    return law_grid_jobs(s["laws"]) + certificates_jobs(s)


WORKLOADS = {
    "decide-stream": (decide_setup, decide_jobs),
    "certify": (certify_setup, certify_jobs),
}
