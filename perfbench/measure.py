"""One measured pass of one benchmark step, run in a fresh process.

    python3 perfbench/measure.py '{"step": "queries", "seed": 1, "trace": 0, "smoke": 0}'

`run.py` starts this once per step and pass, so every pass begins with cold
caches.  The pass imports ncskew from the checkout's `src/`, builds its
inputs, runs the timed phase, checks every output, and prints one JSON
object as its last line of standard output.  Set-up time covers the import
and the input generation.  Checks run after the timed phase, and with
tracing on, the per-layer figures are taken before the checks start.

Steps:
    verify6    `cli.main(["verify", "6"])`: unpruned, jobs=1
    verify7    `classify.verify_exhaustive(7, prune=True)` with jobs=1
    verify7j2  the same with jobs=2
    expand     `sym.skew_schur` and `ncsym.source_skew_schur` of every
               connected diagram of 5-8 cells, then the 9-cell families
    queries    2000 seeded CLI requests through `cli.main`, closed loop
The smoke variants use sizes 4 and 5, and 50 queries on 3-5 cells.

Times are scaled to a nominal host speed; see NOMINAL_PROBE_S.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

from tracing import Tracer, instrument, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# The counts each sweep step must report; "same" is (checks, equal,
# meeting the block condition).  Sizes 4 and 5 are the smoke variants.
EXPECTED_SWEEP = {
    4: {"diagrams": 9, "pairs": 72, "checks": 1944, "same": (216, 56, 49)},
    5: {"diagrams": 20, "pairs": 380, "checks": 48000, "same": (2400, 256, 245)},
    6: {"diagrams": 46, "pairs": 2070, "checks": 1523520, "same": (33120, 1476, 1397)},
    7: {"diagrams": 105, "pairs": 10920, "checks": 55566000, "same": (529200, 9182, 8987)},
}
SWEEP_SIZES = {  # step -> (full size, smoke size, jobs)
    "verify6": (6, 4, 1),
    "verify7": (7, 5, 1),
    "verify7j2": (7, 5, 2),
}
QUERY_KINDS = ("expand-nc", "classify", "equal", "rho")

# Times are reported at a nominal host speed.  The host's speed drifts: on
# a shared 2-core VM the same pass took from 1x to 2x as long, in episodes
# of seconds to minutes, and a fixed integer loop (the probe) slows by the
# same factor.  The timed phase therefore probes the host before its first
# operation and again after every SEGMENT_S of operation time, and each
# operation's latency is multiplied by NOMINAL_PROBE_S over the mean of the
# two probes around it.  A figure reads as the time on a host where the
# probe takes NOMINAL_PROBE_S; the unscaled figures are reported as well.
NOMINAL_PROBE_S = 0.010
SEGMENT_S = 1.0
PROBE_LOOP = 150_000


def host_probe_s(repeats: int = 3) -> float:
    """Median time of a fixed integer loop: how fast the host runs Python
    right now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


def is_time(key: str) -> bool:
    return key.endswith((".s", "_s"))


def _import_ncskew():
    if not os.path.isfile(os.path.join(SRC, "ncskew", "__init__.py")):
        raise SystemExit(f"no ncskew package under {SRC}")
    sys.path.insert(0, SRC)
    import ncskew
    from ncskew import classify, cli, diagrams, ncsym, sym, textio  # every layer as an attribute

    if not os.path.abspath(ncskew.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported ncskew from {ncskew.__file__}, not from {SRC}")
    return ncskew


def _diagram_text(d) -> str:
    outer = ",".join(map(str, d.outer.parts))
    return f"{outer}/{','.join(map(str, d.inner.parts))}" if d.inner.parts else outer


def _perm_text(images) -> str:
    return "".join(map(str, images))


# ---------------------------------------------------------------------------
# inputs


def _families(nc, cells: int, stairs: tuple[int, int]):
    """(tag, diagram) for the column, hook, ribbon and staircase families:
    the column 1^cells, the hooks (2,1^..) and (3,1^..), the ribbons with
    cells-1 rows that are not already a hook, and the staircase skews
    delta_k / delta_(k-2) for k in stairs."""
    Partition, SkewDiagram = nc.Partition, nc.SkewDiagram
    out = [("column", SkewDiagram(Partition((1,) * cells)))]
    for top in (2, 3):
        out.append(("hook", SkewDiagram(Partition((top,) + (1,) * (cells - top)))))
    seen = {d for _, d in out}
    for where in range(cells - 1):
        parts = [1] * (cells - 1)
        parts[where] = 2
        d = nc.ribbon(nc.Composition(tuple(parts)))
        if d not in seen:
            seen.add(d)
            out.append(("ribbon", d))
    for k in stairs:
        outer = tuple(range(k - 1, 0, -1))
        inner = tuple(range(k - 3, 0, -1))
        out.append(("staircase", SkewDiagram(Partition(outer), Partition(inner))))
    return out


def _expand_inputs(nc, smoke: bool):
    sizes = range(3, 6) if smoke else range(5, 9)
    items = [("all", d) for n in sizes for d in nc.diagrams.connected_diagrams(n)]
    return items + _families(nc, 5 if smoke else 9, (4, 5) if smoke else (5, 6))


def _random_images(rng: random.Random, n: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def _equal_partner(rng: random.Random, d, delta: tuple[int, ...]) -> tuple[int, ...]:
    """A labeling tau of d's rotation that the classification calls EQUAL
    to (delta, d): sigma = tau^-1 delta with sigma-bar inside the Young
    subgroup of d's row blocks."""
    n = d.size
    young = []
    start = 1
    for part in d.row_lengths().parts:
        block = list(range(start, start + part))
        rng.shuffle(block)
        young.extend(block)
        start += part
    sigma = [n + 1 - y for y in young]
    sigma_inverse = [0] * n
    for j, v in enumerate(sigma, start=1):
        sigma_inverse[v - 1] = j
    return tuple(delta[sigma_inverse[k] - 1] for k in range(n))


def _query_inputs(nc, seed: int, smoke: bool):
    """Seeded requests, each (kind, argv, facts); facts carry what the
    checks need: the parsed inputs and, for pairs built to be EQUAL, True.

    The mix is balanced so that seeds differ in labelings, pair partners
    and order but not in how much expansion work they ask for: each kind
    gets a quarter of the requests, `expand-nc` and `rho` walk through every
    diagram in turn, and of each 20 `classify` or `equal` requests, 7 pair
    a nonsymmetric ribbon with its rotation labeled to be EQUAL, 3 with its
    rotation under a random labeling, and 10 pair a diagram with a random
    diagram of the same size.
    """
    rng = random.Random(seed)
    sizes = range(3, 6) if smoke else range(5, 9)
    pool = [d for n in sizes for d in nc.diagrams.connected_diagrams(n)]
    by_size: dict[int, list] = {}
    for d in pool:
        by_size.setdefault(d.size, []).append(d)
    nonsym_ribbons = [d for d in pool if d.is_ribbon() and not d.is_symmetric()]
    turns = {}

    def next_of(name: str, items: list):
        turn = turns.get(name, 0)
        turns[name] = turn + 1
        return items[turn % len(items)]

    requests = []
    for index in range(50 if smoke else 2000):
        kind = QUERY_KINDS[index % len(QUERY_KINDS)]
        if kind in ("expand-nc", "rho"):
            d = next_of(kind, pool)
            delta = _random_images(rng, d.size)
            requests.append((kind, [kind, _perm_text(delta), _diagram_text(d)], (delta, d)))
            continue
        shape = (index // len(QUERY_KINDS)) % 20
        promised = None
        if shape < 10:
            d = next_of(f"{kind}-rotation", nonsym_ribbons)
            delta, e = _random_images(rng, d.size), d.rotate()
            if shape < 7:
                tau, promised = _equal_partner(rng, d, delta), True
            else:
                tau = _random_images(rng, d.size)
        else:
            d = next_of(f"{kind}-random", pool)
            e = rng.choice(by_size[d.size])
            delta, tau = _random_images(rng, d.size), _random_images(rng, d.size)
        argv = [kind, _perm_text(delta), _diagram_text(d), _perm_text(tau), _diagram_text(e)]
        requests.append((kind, argv, (delta, d, tau, e, promised)))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# timed phases


class Timed:
    """The outcome of a timed phase: one result per operation (an operation
    that raises keeps its exception, and the checks count it as failed),
    raw and scaled latencies in ms, and the host probes taken."""

    def __init__(self) -> None:
        self.results: list = []
        self.raw_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.probes: list[float] = []


def _run_ops(items, call, tags, tracer) -> Timed:
    """Time call(item) for every item in order, probing the host before the
    first and after every SEGMENT_S of operation time."""
    timed = Timed()
    timed.probes.append(host_probe_s())
    segment: list[float] = []  # raw latencies since the last probe

    def close_segment() -> None:
        timed.probes.append(host_probe_s())
        factor = NOMINAL_PROBE_S / ((timed.probes[-2] + timed.probes[-1]) / 2)
        timed.scaled_ms.extend(ms * factor for ms in segment)
        segment.clear()

    for op, (item, tag) in enumerate(zip(items, tags)):
        if tracer is not None:
            tracer.op, tracer.tag = op, tag
        start = time.perf_counter()
        try:
            result = call(item)
        except Exception as exc:
            result = exc
        ms = (time.perf_counter() - start) * 1e3
        timed.results.append(result)
        timed.raw_ms.append(ms)
        segment.append(ms)
        if sum(segment) >= SEGMENT_S * 1e3:  # a segment holds a few hundred ops at most
            close_segment()
    if segment:
        close_segment()
    return timed


def _cli(nc, argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI call."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = nc.cli.main(argv)
    return code, buffer.getvalue()


def _run_sweep(nc, step: str, smoke: bool):
    full, toy, jobs = SWEEP_SIZES[step]
    n = toy if smoke else full

    def call(size: int):
        if step == "verify6":
            return size, _cli(nc, ["verify", str(size)])
        return size, nc.classify.verify_exhaustive(size, jobs=jobs, prune=True)

    return [step], [step], EXPECTED_SWEEP[n]["checks"], _run_ops([n], call, [step], None)


def _run_expand(nc, items, tracer):
    def call(item):
        d = item[1]
        return nc.ncsym.source_skew_schur(d), nc.sym.skew_schur(d)

    tags = [tag for tag, _ in items]
    return items, tags, len(items), _run_ops(items, call, tags, tracer)


def _run_queries(nc, requests, tracer):
    tags = [kind for kind, _, _ in requests]
    return requests, tags, len(requests), _run_ops(requests, lambda r: _cli(nc, r[1]), tags, tracer)


# ---------------------------------------------------------------------------
# checks of one operation; each returns (error message or None, number of
# predicate/oracle disagreements it found)


def _check_sweep(nc, _op, result):
    n, outcome = result
    want = EXPECTED_SWEEP[n]
    if isinstance(outcome, tuple):
        code, text = outcome
        same_checks, same_equal, same_condition = want["same"]
        expected = (
            f"size {n}: {want['diagrams']} diagrams, {want['pairs']} ordered pairs, "
            f"{want['checks']} coset checks, {want['checks']} agreements, 0 disagreements\n"
            f"same-diagram: {same_checks} checks, {same_equal} equal, "
            f"{same_condition} meeting the block condition\nPASS\n"
        )
        disagreements = max(text.count("\n") - 3, 0)
        ok = code == 0 and text == expected
        return None if ok else f"verify {n} printed {text!r}, exit {code}", disagreements
    report = outcome
    got = {
        "diagrams": report.diagram_count,
        "pairs": report.pair_count,
        "checks": report.coset_checks,
        "same": (report.same_diagram_checks, report.same_diagram_equal, report.same_diagram_condition),
    }
    ok = got == want and report.agreements == report.coset_checks and not report.disagreements
    error = None if ok else f"verify {n}: {got}, {len(report.disagreements)} disagreements"
    return error, len(report.disagreements)


def _check_expand(nc, item, result):
    (tag, d), (nc_expansion, commutative) = item, result
    if nc.ncsym.to_commutative(nc_expansion) != commutative:
        return f"{tag} {_diagram_text(d)}: to_commutative differs from sym.skew_schur", 0
    if d.is_ribbon() and nc_expansion != nc.ncsym.ribbon_schur(d.row_lengths()):
        return f"{tag} {_diagram_text(d)}: differs from ribbon_schur", 0
    return None, 0


def _check_query(nc, request, result):
    kind, argv, facts = request
    code, text = result
    lines = text.splitlines()
    if code != 0:
        return f"{' '.join(argv)}: exit code {code}", 0
    if kind == "expand-nc":
        parsed = nc.textio.parse_nc_expansion(text)
        if nc.ncsym.to_commutative(parsed) != nc.sym.skew_schur(facts[1]):
            return f"{' '.join(argv)}: expansion does not commute to sym.skew_schur", 0
        return None, 0
    if kind == "rho":
        if lines[-1:] != ["MATCHES commutative: yes"]:
            return f"{' '.join(argv)}: rho printed {lines[-1:]!r}", 0
        return None, 0
    delta, d, tau, e, promised = facts
    a = nc.LabeledDiagram(nc.Permutation(delta), d)
    b = nc.LabeledDiagram(nc.Permutation(tau), e)
    said_equal = bool(lines) and lines[0].startswith("EQUAL")
    if kind == "classify" and said_equal != nc.classify.expansions_equal(a, b):
        return f"{' '.join(argv)}: classify said {lines!r}, the oracle disagrees", 1
    if kind == "equal" and d != e and said_equal != nc.classify.predicts_equal(a, b):
        return f"{' '.join(argv)}: equal said {lines!r}, the predicate disagrees", 1
    if promised and not said_equal:
        return f"{' '.join(argv)}: {kind} said {lines!r} on a pair built to be EQUAL", 0
    return None, 0


def _check_all(nc, check, ops, results) -> tuple[list[str], int, int]:
    """Check every operation: (error messages, failed ops, disagreements)."""
    errors, failed, disagreements = [], 0, 0
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            error, found = f"raised {result!r}", 0
        else:
            try:
                error, found = check(nc, op, result)
            except Exception as exc:
                error, found = f"check raised {exc!r}", 0
        disagreements += found
        if error is not None:
            failed += 1
            errors.append(error)
    return errors, failed, disagreements


# ---------------------------------------------------------------------------


def _layers(tracer: Tracer, cache_info, step: str) -> dict:
    """Additive per-layer figures of the timed phase; run.py merges the
    steps of a pass and derives ratios from them."""
    layers = summarize(tracer.spans)
    layers.update(tracer.counts)
    layers["ncsym.cache_hits"] = cache_info.hits
    layers["ncsym.cache_misses"] = cache_info.misses
    layers["ncsym.cache_entries"] = cache_info.currsize
    if step in SWEEP_SIZES:
        layers[f"classify.{step}.s"] = layers.get("classify.verify.s", 0.0)
    return layers


def measure(step: str, seed: int, trace: bool, smoke: bool) -> dict:
    start = time.perf_counter()
    nc = _import_ncskew()
    cached_expansion = nc.ncsym.source_skew_schur
    tracer = None
    if trace:
        tracer = Tracer()
        instrument(tracer)
    if step == "expand":
        inputs = _expand_inputs(nc, smoke)
    elif step == "queries":
        inputs = _query_inputs(nc, seed, smoke)
    else:
        inputs = None
    setup = time.perf_counter() - start

    if step == "expand":
        ops, tags, work, timed = _run_expand(nc, inputs, tracer)
        check = _check_expand
    elif step == "queries":
        ops, tags, work, timed = _run_queries(nc, inputs, tracer)
        check = _check_query
    else:
        ops, tags, work, timed = _run_sweep(nc, step, smoke)
        check = _check_sweep
    factor = NOMINAL_PROBE_S / statistics.median(timed.probes)
    layers = None
    if tracer is not None:
        layers = _layers(tracer, cached_expansion.cache_info(), step)
        layers = {key: value * factor if is_time(key) else value for key, value in layers.items()}
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"{step}.spans.jsonl"))

    errors, failed, disagreements = _check_all(nc, check, ops, timed.results)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "step": step,
        "setup_s": setup * NOMINAL_PROBE_S / timed.probes[0],
        "wall_s": sum(timed.scaled_ms) / 1e3,
        "raw_wall_s": sum(timed.raw_ms) / 1e3,
        "probe_s": statistics.median(timed.probes),
        "work": work,
        "latencies_ms": timed.scaled_ms,
        "tags": tags,
        "failed": failed,
        "errors": errors[:5],
        "rss_mb": usage / 1024,
    }
    if layers is not None:
        layers["classify.disagreements"] = disagreements
        result["layers"] = layers
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = measure(spec["step"], int(spec["seed"]), bool(spec["trace"]), bool(spec["smoke"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
