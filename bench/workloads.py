"""The three benchmark workloads.

Each workload takes the imported ``grpd`` modules and a seed, generates its
inputs in ``setup`` (timed as set-up), and runs one pass in ``run_pass``,
which returns the pass's ops and its latency samples.  An op is the unit that
succeeds or fails: one suite on ``check-full``, one rung on ``ladder``, one
command on ``documents``.  A latency sample is one ``grpd`` command (the
whole ``grpd check`` on check-full) or one rung.  Every op's output is
checked against the recorded seed-0 references or against independent
expectations, and kept as a small summary so that a traced pass can be
compared with an untraced one.

Why these three (see also BENCHMARK.json):
- check-full: many small instances (at most 60 morphisms) that touch every
  layer lightly; the functor oracle, ``hfp``, ``colimit_groupoids`` and the
  ``group_catalog()`` rebuilds dominate.
- ladder: few large instances up to EG(S5); dense composition tables and the
  ``hfp`` pair loop dominate time and memory.
- documents: full tables read back from JSON through the CLI, so table-backed
  loading and validation dominate.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import expect


@dataclass
class Op:
    label: str
    seconds: float
    ok: bool
    output: tuple  # summary compared between traced and untraced passes
    detail: str = ""


def _cli(grpd, argv):
    """Run one grpd command through cli.run; (exit code, stdout, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    code = grpd.cli.run(argv, stdout=out)
    return code, out.getvalue(), time.perf_counter() - t0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# check-full


class CheckFull:
    """``grpd check --seed S --size full``: one command per pass, one op per
    suite in its report."""

    name = "check-full"
    reference_file = "check_seed0_full.txt"

    def __init__(self, grpd, seed: int, workdir: Path, reference_dir: Path):
        self.grpd = grpd
        self.seed = seed
        self.reference_dir = reference_dir

    def setup(self):
        self.suites = tuple(self.grpd.suites.SUITE_NAMES)
        self.reference = None
        if self.seed == 0:
            self.reference = (self.reference_dir / self.reference_file).read_text()

    def _blocks(self, text: str) -> dict:
        """Each suite's lines of a report, by suite name."""
        blocks, suite = {}, None
        for line in text.splitlines(keepends=True)[1:-1]:
            if line.startswith("["):
                suite = line.split("] ", 1)[-1].strip()
            blocks[suite] = blocks.get(suite, "") + line
        return blocks

    def run_pass(self):
        code, text, dt = _cli(self.grpd, ["check", "--seed", str(self.seed),
                                          "--size", "full"])
        n = len(self.suites)
        blocks = self._blocks(text)
        passed = [s for s in self.suites
                  if blocks.get(s, "").startswith(f"[PASS] {s}\n")]
        # the header, the tally and the exit code must agree with the suites
        report_ok = (text.startswith(f"seed {self.seed}, size full\n")
                     and text.endswith(f"passed {len(passed)} of {n} suites\n")
                     and code == (0 if len(passed) == n else 1))
        want = None
        if self.reference is not None:
            want = self._blocks(self.reference)
            if text != self.reference and blocks == want:
                report_ok = False
        ops = []
        for suite in self.suites:
            block = blocks.get(suite, "")
            ok = (report_ok and suite in passed
                  and (want is None or block == want.get(suite)))
            ops.append(Op(suite, 0.0, ok, (code, block),
                          "" if ok else f"exit {code}: {block[:200]!r}"))
        return ops, [dt]

    def record(self) -> None:
        code, text, _ = _cli(self.grpd, ["check", "--seed", "0", "--size", "full"])
        if code != 0:
            raise SystemExit("grpd check failed; not recording a reference")
        (self.reference_dir / self.reference_file).write_text(text)


# ---------------------------------------------------------------------------
# ladder


class Ladder:
    """EG(S3), EG(S4), EG(S5) with hfp and the fibration decision, then
    BG(S5) decomposition and the swap comparison on EG(D4)."""

    name = "ladder"

    def __init__(self, grpd, seed: int, workdir: Path, reference_dir: Path):
        self.grpd = grpd
        self.seed = seed

    def setup(self):
        rng = random.Random(f"bench-ladder:{self.seed}")
        # the seed picks which transposition conjugates; all transpositions
        # are conjugate, so sizes agree across seeds while the tables differ
        self.transpositions = {n: tuple(sorted(rng.sample(range(n), 2)))
                               for n in (3, 4, 5)}
        self.expected_classes = expect.twisted_orbit_count(
            5, expect.transposition(5, *self.transpositions[5]))

    def _theta(self, n):
        g = self.grpd.groups.symmetric_group(n)
        t = expect.lex_index(expect.transposition(n, *self.transpositions[n]))
        return g, self.grpd.groups.conjugation_automorphism(g, t)

    def _eg(self, n: int) -> Op:
        grpd = self.grpd
        t0 = time.perf_counter()
        g, theta = self._theta(n)
        a = grpd.corpus.eg_gamma_action(g, theta)
        fp = grpd.gamma.hfp(a)
        fib = grpd.core.is_fibration(fp.iota())
        dt = time.perf_counter() - t0
        h = fp.groupoid
        want = expect.eg_rung(n)
        got = {
            "objects": h.n_objects,
            "morphisms": h.n_morphisms,
            "cardinality": expect.cardinality(h.n_objects, h.src, h.tgt),
            "fibration": fib,
        }
        naive = expect.is_fibration(h.src, tuple(o.base for o in fp.objects),
                                    fp.underlying, a.carrier.src, h.n_objects)
        ok = got == want and naive
        return Op(f"eg_s{n}", dt, ok, tuple(sorted(got.items())) + (naive,),
                  "" if ok else f"got {got}, naive fibration {naive}, want {want}")

    def _bg(self) -> Op:
        grpd = self.grpd
        t0 = time.perf_counter()
        g, theta = self._theta(5)
        d = grpd.cohomology.bg_hfp_decomposition(
            grpd.cohomology.GroupGammaAction(g, theta))
        dt = time.perf_counter() - t0
        got = (len(d.classes), d.is_weak_equivalence)
        ok = got == (self.expected_classes, True)
        return Op("bg_s5", dt, ok, got,
                  "" if ok else f"got {got}, want ({self.expected_classes}, True)")

    def _swap(self) -> Op:
        grpd = self.grpd
        t0 = time.perf_counter()
        x = grpd.core.build_eg(grpd.groups.dihedral_group(4))
        c = grpd.gamma.swap_comparison(x)
        dt = time.perf_counter() - t0
        h = c.fixed_points.groupoid
        card_fp = expect.cardinality(h.n_objects, h.src, h.tgt)
        card_x = expect.cardinality(x.n_objects, x.src, x.tgt)
        naive = expect.is_weak_equivalence(
            (x.n_objects, x.src, x.tgt), (h.n_objects, h.src, h.tgt),
            c.map.obj_map, c.map.mor_map)
        got = (c.is_weak_equivalence, naive, card_fp, card_x)
        ok = got == (True, True, 1, 1)
        return Op("swap_d4", dt, ok, got, "" if ok else f"got {got}")

    def run_pass(self):
        # each rung's structures are dropped before the next is built, so the
        # peak memory is that of the largest rung
        ops = [self._eg(3), self._eg(4), self._eg(5), self._bg(), self._swap()]
        return ops, [op.seconds for op in ops]


# ---------------------------------------------------------------------------
# documents


# commands run on each document kind; the corrupted groupoid only validates
_COMMANDS = {
    "gamma-action": ("validate", "hfp", "export-dot"),
    "group-involution": ("validate", "h1"),
    "twisted-data": ("validate", "twisted"),
    "group": ("validate",),
    "site": ("validate",),
    "presheaf": ("validate", "stalk"),
    "diagram": ("validate", "colimit"),
    "groupoid": ("validate", "export-dot"),
    "corrupted": ("validate",),
}


def _output_ok(command: str, kind: str, code: int, text: str) -> bool:
    """What every seed's output must show, reference or not."""
    if kind == "corrupted":
        return code == 1 and text.endswith("problem(s)\n")
    if code != 0:
        return False
    if command == "validate":
        return text == "ok\n"
    if command == "hfp":
        return text.endswith("forgetful map is a fibration: yes\n")
    if command == "twisted":
        return "fibration: yes\nweak equivalence: yes\n" in text
    if command == "colimit":
        return text.endswith("comparison map: isomorphism\n")
    if command == "stalk":
        return text and all(line.endswith("fixed points commute: yes")
                            for line in text.splitlines())
    if command == "export-dot":
        return text.startswith("digraph ") and text.endswith("}\n")
    if command == "h1":
        return text.startswith("group: ")
    return False


class Documents:
    """JSON documents of every kind, written in set-up and then validated
    and computed on through the CLI."""

    name = "documents"
    reference_file = "documents_seed0.json"
    counts = {"gamma-action": 200, "diagram": 100, "presheaf": 60, "site": 10}

    def __init__(self, grpd, seed: int, workdir: Path, reference_dir: Path):
        self.grpd = grpd
        self.seed = seed
        self.workdir = workdir
        self.reference_dir = reference_dir

    def _objects(self):
        grpd = self.grpd
        corpus, groups = grpd.corpus, grpd.groups
        rng = random.Random(f"bench-documents:{self.seed}")
        out = []
        for i in range(self.counts["gamma-action"]):
            out.append(("gamma-action", f"gamma-{i:02d}",
                        corpus.random_gamma_action(rng, 60)))
        for i, a in enumerate(corpus.gamma_group_fixtures()):
            out.append(("group-involution", f"involution-{i:02d}", a))
        for i, d in enumerate(corpus.involutive_fixtures()):
            out.append(("twisted-data", f"twisted-{i:02d}", d))
        for name, g in corpus.group_catalog().items():
            out.append(("group", f"group-{name}", g))
        for i in range(self.counts["diagram"]):
            out.append(("diagram", f"diagram-{i:02d}", corpus.random_filtered_diagram(rng)))
        for i in range(self.counts["presheaf"]):
            out.append(("presheaf", f"presheaf-{i:02d}", corpus.random_presheaf_action(rng)))
        for i in range(self.counts["site"]):
            out.append(("site", f"site-{i:02d}", corpus.random_site(rng)))
        s4 = groups.symmetric_group(4)
        i, j = sorted(rng.sample(range(4), 2))
        theta = groups.conjugation_automorphism(
            s4, expect.lex_index(expect.transposition(4, i, j)))
        out.append(("gamma-action", "eg-s4", corpus.eg_gamma_action(s4, theta)))
        out.append(("groupoid", "bg-s5", grpd.core.build_bg(groups.symmetric_group(5))))
        out.append(("corrupted", "corrupted-bg-z2", corpus.corrupted_bg_z2()))
        return out

    def setup(self):
        self.reference = None
        if self.seed == 0:
            self.reference = json.loads(
                (self.reference_dir / self.reference_file).read_text())
        self._write_documents()

    def _write_documents(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.commands = []
        for kind, stem, obj in self._objects():
            path = self.workdir / f"{stem}.json"
            path.write_text(self.grpd.jsonio.dumps(obj))
            for command in _COMMANDS[kind]:
                self.commands.append((kind, command, path))

    def run_pass(self):
        ops = []
        for kind, command, path in self.commands:
            code, text, dt = _cli(self.grpd, [command, str(path)])
            label = f"{command} {path.name}"
            output = (code, _sha(text))
            ok = _output_ok(command, kind, code, text)
            if self.reference is not None and self.reference.get(label) != list(output):
                ok = False
            ops.append(Op(label, dt, ok, output,
                          "" if ok else f"exit {code}: {text[:200]!r}"))
        latencies = [op.seconds for op in ops]
        if self.reference is not None:
            done = {op.label for op in ops}
            ops += [Op(label, 0.0, False, (), "recorded but not run")
                    for label in sorted(self.reference) if label not in done]
        return ops, latencies

    def record(self) -> None:
        self._write_documents()
        self.reference = None
        got = {op.label: list(op.output) for op in self.run_pass()[0]}
        (self.reference_dir / self.reference_file).write_text(
            json.dumps(got, indent=1, sort_keys=True) + "\n")


WORKLOADS = {w.name: w for w in (CheckFull, Ladder, Documents)}
