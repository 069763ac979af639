#!/usr/bin/env python3
"""Seeded closed-loop benchmark of essencekit's load, query, update and CLI paths.

    python3 bench/run.py --workload records --seed 1 --seconds 30 --trace 0

One client in one process, closed loop: each operation starts when the
previous one has ended, and nothing runs concurrently. The seed builds a
project document (see ``gen.py``); essencekit only ever sees that file.
The loop repeats rounds of steps until ``--seconds`` would be exceeded.
A step is one CLI call (``python -m essencekit.cli`` from ``src``), one
in-process ``load_project``, one to three ``save_project`` calls, and the
same batch of reads and of updates on the loaded value. Every answer is
checked against the generator's oracle; a mismatch, an exit status 2, a traceback or an
unexpected exception counts as a failed operation and makes the command
exit 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
set-up time, each timing's lower decile in multiples of a fixed
reference computation's (see ``E2E_METRICS``) and the CLI's peak RSS.
The times in ms, medians, tails and throughput are printed above it as
reported figures.
With ``--trace 1`` the same rounds run once untraced and once with spans
around every call into essencekit, and the last line holds the per-layer
metrics derived from those spans. Spans and a full result go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

WORKLOADS = ("records", "trees", "model")
SETUP_REPEATS = 3
MIN_ROUNDS = 3  # at least 12 CLI calls and loads
STARTUP_PROBES = 5
CLI_TIMEOUT_S = 120
PROBE_DESIGNATION = "=F1=12 / -N4"

# The gated end-to-end metrics. On a shared host whose vCPUs run at a fast
# or a slow speed for seconds to minutes at a time (the 2-vCPU host of
# baseline.json), a median in ms lands on either speed, and even a lower
# decile in ms spread up to 0.23 between runs. Each timing is therefore
# gated as its lower decile over the lower decile of a fixed reference
# computation timed before each timed group of calls in the same run (unit
# ``ref``: multiples of the reference's time). That ratio follows most of
# the host's drift. The times in ms, medians, tails and throughput are
# printed beside them as ``REPORTED`` figures.
E2E_METRICS = {
    "setup_s": "s",
    "cli_ref.p10": "ref",
    "load_ref.p10": "ref",
    "save_ref.p10": "ref",
    "query_ref.p10": "ref",
    "update_ref.p10": "ref",
    "cli_peak_rss_mb": "MB",
}
TIMED = ("cli", "load", "save", "query", "update")
REPORTED = {
    "reference_ms.p10": "ms",
    **{f"{kind}_ms.p10": "ms" for kind in TIMED},
    **{f"{kind}_ms.p50": "ms" for kind in TIMED},
    "cli_ms.tail": "ms",
    "load_ms.tail": "ms",
    "query_ms.tail": "ms",
    "ops_per_s": "1/s",
}
REFERENCE_TEXT = json.dumps([
    {"id": f"x-{i:05d}", "values": [i, i + 1, f"segment {i % 97}"],
     "flag": i % 3 == 0, "label": f"reference item {i}"}
    for i in range(6_000)])

LAYER_FUNCTIONS = {
    "store": ("load_project", "save_project", "json_decode"),
    "engine": ("add_instance", "add_work_product", "record_checkpoint",
               "alpha_state", "render_card", "blocking_checkpoints"),
    "designation": ("tree_build", "parse_designation", "resolve",
                    "check_at_least_one_unambiguous"),
    "description": ("add_element", "add_view", "add_realization_node",
                    "assert_coextension", "bind_element", "coextension_class",
                    "viable_architecture"),
    "metamodel": ("kernel_from_doc", "validate_kernel"),
}
GROWTH_FUNCTIONS = ("engine.record_checkpoint", "description.add_element",
                    "description.assert_coextension", "description.bind_element")
CLI_COMMANDS = ("assess-record", "cards", "assess-state", "assess-blocking",
                "desig-check", "arch-check", "lint-endeavor")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            units[f"{layer}.{fn}.busy_s"] = "s"
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.failed"] = "count"
    units["store.glue_s"] = "s"
    units["designation.matches_per_resolve"] = "matches"
    units["cli.startup_ms.p50"] = "ms"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.ms.p50"] = "ms"
    for name in GROWTH_FUNCTIONS:
        units[f"{name}.tail_head_ratio"] = "ratio"
    for layer in tracing.LAYERS:
        units[f"{layer}.self_share"] = "share"
    units["trace.overhead_ratio"] = "ratio"
    return units


def reference_s() -> float:
    """Time of a fixed computation that uses no essencekit code.

    It decodes a fixed JSON text of a few MB and folds it into a dict
    keyed by tuples: the allocation-heavy work essencekit's loads, saves
    and queries do, over a working set larger than the caches, so a
    slower host slows it about as much as them. It makes no reference
    cycles, so it runs with the collector off, and its time does not
    depend on how many objects the workload keeps alive.
    """
    gc.disable()
    try:
        start = perf_counter()
        counts: dict[tuple, int] = {}
        for item in json.loads(REFERENCE_TEXT):
            key = (item["id"], tuple(item["values"]))
            counts[key] = counts.get(key, 0) + item["flag"]
        return perf_counter() - start
    finally:
        gc.enable()


def import_essencekit():
    """Import the package from this checkout's src, and only from there."""
    package = SRC / "essencekit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no essencekit sources at {package}")
    sys.path.insert(0, str(SRC))
    import essencekit

    if Path(essencekit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported essencekit from {essencekit.__file__}")
    return essencekit


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, sample count). With ten samples or fewer
    no percentile qualifies, and the maximum is returned as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * k / (n - 1), n


class Bench:
    """The closed loop over one workload; subclasses supply the operations."""

    mix: tuple[str, ...]  # the CLI command of each step in a round
    queries: int  # reads per step, a whole cycle of the read list
    saves: int  # save_project calls per step

    def __init__(self, ek, spec: gen.Spec, workdir: Path) -> None:
        self.ek = ek
        self.spec = spec
        self.pristine = spec.dumps()
        self.path = workdir / "project.json"
        self.scratch = workdir / "record.json"
        self.tracer = tracing.NullTracer()
        self.traced = False
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONIOENCODING="utf-8")
        self.reset()
        records = spec.doc["assessment"]["records"]
        self.records = records
        self.record_index = {
            (r["alpha-instance"], r["state"], r["checkpoint"]): i
            for i, r in enumerate(records)}
        self.states = gen.StateOracle(
            spec, records, spec.doc["assessment"]["strict-evidence"])
        self.resolve_calls = 0
        self.resolve_matches = 0

    def reset(self) -> None:
        self.samples: dict[str, list[float]] = {
            k: [] for k in ("cli", "load", "save", "query", "update")}
        self.reference: list[float] = []
        # Times of each operation of the query and the update batch.
        self.by_op: dict[str, dict[int, list[float]]] = {"query": {},
                                                         "update": {}}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # Plumbing

    def call(self, name: str, fn, *args):
        with self.tracer.span(name):
            return fn(*args)

    def fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {problem}")

    def attempt(self, kind: str, fn, check, probe=None):
        """Time fn() alone; probe and check its result outside the timing."""
        self.attempted += 1
        with self.tracer.op(kind):
            try:
                start = perf_counter()
                result = fn()
                elapsed = perf_counter() - start
                if probe is not None:
                    probe(result)
            except Exception as exc:  # any escape is a failed operation
                self.fail(kind, f"unexpected {type(exc).__name__}: {exc}")
                return None
        self.samples[kind].append(elapsed)
        try:
            problem = check(result)
        except Exception as exc:  # a malformed answer is a failed operation
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.fail(kind, problem)
        return result

    def run_cli(self, label: str, argv: list[str]) -> subprocess.CompletedProcess:
        with self.tracer.span(f"cli.{label}"):
            return subprocess.run(
                [sys.executable, "-m", "essencekit.cli", *argv],
                capture_output=True, encoding="utf-8", env=self.env, cwd=ROOT,
                timeout=CLI_TIMEOUT_S, check=False)

    @staticmethod
    def cli_problem(proc: subprocess.CompletedProcess) -> str | None:
        if "Traceback (most recent call last)" in proc.stderr:
            return f"traceback: {proc.stderr.strip().splitlines()[-1]}"
        if proc.returncode not in (0, 1):
            return f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
        return None

    # Operations

    def cli_op(self, label: str, i: int) -> None:
        argv, prepare, check = self.cli_command(label, i)
        if prepare is not None:
            prepare()
        self.attempt("cli", lambda: self.run_cli(label, argv),
                     lambda proc: self.cli_problem(proc) or check(proc))

    def load_op(self):
        data = self.path.read_bytes()
        return self.attempt(
            "load", lambda: self.call("store.load_project",
                                      self.ek.load_project, data),
            self.check_load,
            probe=(lambda _: self.replay(data)) if self.traced else None)

    def save_op(self, project) -> None:
        self.attempt(
            "save", lambda: self.call("store.save_project",
                                      self.ek.save_project, project),
            lambda data: None if data == self.pristine
            else "saved bytes differ from the generated document")

    def calibrate(self) -> None:
        """Time the reference next to the calls that follow, then collect.

        The full collection starts each timed in-process group of calls
        from the same heap, so the collections their own allocations
        trigger are the same on every step.
        """
        self.reference.append(reference_s())
        gc.collect()

    def step(self, i: int, project) -> None:
        self.cli_op(self.mix[i % len(self.mix)], i)
        self.calibrate()
        loaded = self.load_op()
        if loaded is not None:
            project = loaded
        self.calibrate()
        for _ in range(self.saves):
            self.save_op(project)
        # Every step runs the same batch of reads and of updates, so each
        # operation of the batch is timed once per step.
        for kind, op, count in (("query", self.query_op, self.queries),
                                ("update", self.update_op, gen.OPS)):
            self.calibrate()
            times = self.samples[kind]
            for k in range(count):
                before = len(times)
                op(project, k)
                if len(times) > before:
                    self.by_op[kind].setdefault(k, []).append(times[-1])

    def run_rounds(self, project, budget_s: float, min_rounds: int = 1,
                   rounds: int | None = None) -> tuple[int, float]:
        """Whole rounds (one step per mix entry) while the budget allows.

        A round starts only if, at the mean round time so far, it would
        end within budget_s; exactly ``rounds`` run when that is given.
        """
        start = perf_counter()
        done = 0
        while True:
            elapsed = perf_counter() - start
            if rounds is not None:
                if done >= rounds:
                    break
            elif done >= min_rounds and elapsed + elapsed / done > budget_s:
                break
            for j in range(len(self.mix)):
                self.step(done * len(self.mix) + j, project)
            done += 1
        return done, perf_counter() - start

    def check_load(self, project) -> str | None:
        doc = self.spec.doc
        model = project.description
        want = (len(doc["assessment"]["instances"]),
                len(doc["assessment"]["work-products"]),
                len(doc["assessment"]["records"]),
                len(doc["trees"]),
                len(doc["description"]["elements"]),
                len(doc["description"]["views"]),
                len(doc["description"]["realization-nodes"]),
                len(doc["description"]["coextension"]),
                len(doc["description"]["bindings"]))
        got = (len(project.assessment.instances),
               len(project.assessment.work_products),
               len(project.assessment.records), len(project.trees),
               len(model.elements), len(model.views),
               len(model.realization_nodes), len(model.coextension),
               len(model.bindings))
        return None if got == want else f"loaded counts {got} != {want}"

    # CLI commands: any workload can issue any of them

    def cli_command(self, label: str, i: int):
        """(argv, prepare, check) for step i's call of one CLI command."""
        spec = self.spec
        path = str(self.path)
        k = i // len(self.mix)
        if label == "assess-record":
            op = spec.record_ops[k % len(spec.record_ops)]
            argv = ["assess", "record", str(self.scratch),
                    "--alpha-instance", op["alpha-instance"],
                    "--state", op["state"], "--checkpoint", op["checkpoint"],
                    "--satisfied", "true" if op["satisfied"] else "false",
                    "--at", str(op["recorded-at"])]
            if op["evidence"]:
                argv += ["--evidence", *op["evidence"]]
            return (argv, lambda: self.scratch.write_bytes(self.pristine),
                    lambda proc: self.check_record_cli(proc, op))
        if label == "cards":
            return ["cards", path], None, self.check_cards_cli
        if label in ("assess-state", "assess-blocking"):
            inst, target = spec.state_queries[k % len(spec.state_queries)]
            if label == "assess-state":
                return (["assess", "state", path, "--alpha-instance", inst],
                        None, lambda proc: self.check_state_cli(proc, inst))
            return (["assess", "blocking", path, "--alpha-instance", inst,
                     "--target", target], None,
                    lambda proc: self.check_blocking_cli(proc, inst, target))
        if label == "desig-check":
            text = spec.designations[i % len(spec.designations)]
            return (["desig", "check", path, "--", text], None,
                    lambda proc: self.check_desig_cli(proc, text))
        if label == "arch-check":
            queries = spec.arch_queries
            names = queries[(k * 3 + i % len(self.mix)) % len(queries)]
            return (["arch", "check", path, "--views", ",".join(names)], None,
                    lambda proc: self.check_arch_cli(proc, names))
        return ["lint", "endeavor", path], None, self.check_lint_cli

    def check_record_cli(self, proc, op: dict) -> str | None:
        flag = "true" if op["satisfied"] else "false"
        want = (f"recorded {op['alpha-instance']} {op['state']} "
                f"{op['checkpoint']} satisfied={flag}\n")
        if proc.returncode != 0 or proc.stdout != want:
            return f"assess record printed {proc.stdout!r}"
        expected = dict(self.spec.doc)
        expected["assessment"] = dict(
            expected["assessment"],
            records=gen.apply_record(self.records, op))
        if json.loads(self.scratch.read_bytes()) != expected:
            return "assess record wrote an unexpected document"
        return None

    def check_cards_cli(self, proc) -> str | None:
        cards = proc.stdout.rstrip("\n").split("\n\n")
        instances = list(self.spec.instances)
        if proc.returncode != 0 or len(cards) != len(instances):
            return f"cards printed {len(cards)} cards for {len(instances)}"
        for inst, card in zip(instances, cards):
            problem = self.check_card(inst, card)
            if problem:
                return problem
        return None

    def check_card(self, inst: str, card: str) -> str | None:
        states = self.states
        alpha = self.spec.instances[inst]
        lines = card.split("\n")
        want = f"{alpha} [{inst}] ({self.spec.levels[inst]})"
        if lines[0] != want:
            return f"card header {lines[0]!r} != {want!r}"
        idx = states.achieved_index(inst)
        done = states.done(inst)
        for i, (state, d, t) in enumerate(done):
            line = lines[1 + i]
            mark = "x" if i <= idx else " "
            if not (line.startswith(f"  [{mark}] {state} ")
                    and line.endswith(f" {d}/{t}")):
                return f"card line {line!r} != [{mark}] {state} {d}/{t}"
        achieved, nxt, _ = states.state(inst)
        rest = lines[1 + len(done):]
        want_rest = [f"Achieved: {achieved or '(none)'}"]
        if nxt is not None:
            want_rest.append(f"Next: {nxt}")
        return None if rest == want_rest else f"card tail {rest} != {want_rest}"

    def check_state_cli(self, proc, inst: str) -> str | None:
        achieved, nxt, blockers = self.states.state(inst)
        want = [f"instance: {inst}", f"alpha: {self.spec.instances[inst]}",
                f"achieved: {achieved or '(none)'}"]
        if nxt is not None:
            want.append(f"next: {nxt}")
        want.append(f"blocking: {blockers}")
        got = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or got != want:
            return f"assess state printed {got} != {want}"
        return None

    def check_blocking_cli(self, proc, inst: str, target: str) -> str | None:
        texts = {state: text for state, _, text
                 in self.spec.kernel[self.spec.instances[inst]]}
        blockers = self.states.blockers(inst, target)
        want = [f"{s} {cp}: {texts[s][cp]}" for s, cp in blockers]
        if not want:
            want = ["no blocking checkpoints"]
        got = proc.stdout.rstrip("\n").split("\n")
        if got != want or proc.returncode != (1 if blockers else 0):
            return f"assess blocking for {inst} to {target!r} printed {got[:3]}"
        return None

    def expect_designation(self, text: str) -> tuple[list[tuple[str, int]], bool]:
        counts = [(gen.chain_text(aspect, segments),
                   gen.match_count(self.spec, aspect, segments))
                  for aspect, segments in gen.parse_chains(text)]
        return counts, any(count == 1 for _, count in counts)

    def check_desig_cli(self, proc, text: str) -> str | None:
        counts, ok = self.expect_designation(text)
        want = [f"{chain}: {count} {'match' if count == 1 else 'matches'}"
                for chain, count in counts]
        want.append(f"result: {'pass' if ok else 'fail'}")
        got = proc.stdout.rstrip("\n").split("\n")
        if got != want or proc.returncode != (0 if ok else 1):
            return f"desig check {text!r} printed {got} != {want}"
        return None

    def check_arch_cli(self, proc, names: list[str]) -> str | None:
        covered, missing = gen.arch_expect(self.spec, names)
        want = [f"covered: {', '.join(covered) if covered else '(none)'}"]
        if missing:
            want.append(f"missing: {', '.join(missing)}")
        want.append(f"result: {'fail' if missing else 'pass'}")
        got = proc.stdout.rstrip("\n").split("\n")
        if got != want or proc.returncode != (1 if missing else 0):
            return f"arch check {names} printed {got} != {want}"
        return None

    def check_lint_cli(self, proc) -> str | None:
        kinds = {vp["description-kind"]
                 for vp in self.spec.doc["description"]["viewpoints"]}
        want = [f"warning: missing endeavor description kind: {kind}"
                for kind in ("Practice", "Process", "Team") if kind not in kinds]
        got = proc.stdout.rstrip("\n").split("\n")
        if got != (want or ["ok"]) or proc.returncode != (1 if want else 0):
            return f"lint endeavor printed {got}"
        return None

    # In-process reads and updates; each workload times one of each kind

    def state_query(self, project, k: int) -> None:
        """alpha_state + render_card + blocking_checkpoints of one instance."""
        ek, call = self.ek, self.call
        inst, target = self.spec.state_queries[k % len(self.spec.state_queries)]
        a = project.assessment

        def query():
            return (call("engine.alpha_state", ek.alpha_state, a, inst),
                    call("engine.render_card", ek.render_card, a, inst),
                    call("engine.blocking_checkpoints",
                         ek.blocking_checkpoints, a, inst, target))

        def check(result) -> str | None:
            state, card, blockers = result
            achieved, nxt, count = self.states.state(inst)
            got = (state.achieved, state.next_state, len(state.blocking))
            if got != (achieved, nxt, count):
                return f"alpha_state({inst}) = {got} != {(achieved, nxt, count)}"
            want = self.states.blockers(inst, target)
            if [(b.state, b.checkpoint) for b in blockers] != want:
                return f"blocking_checkpoints({inst}, {target!r}) differs"
            return self.check_card(inst, card)

        self.attempt("query", query, check)

    def designation_query(self, project, k: int) -> None:
        """parse_designation + check_at_least_one_unambiguous of one text."""
        ek, call = self.ek, self.call
        text = self.spec.designations[k % len(self.spec.designations)]
        trees = {tree.aspect: tree for tree in project.trees}

        def query():
            d = call("designation.parse_designation", ek.parse_designation, text)
            return call("designation.check_at_least_one_unambiguous",
                        ek.check_at_least_one_unambiguous, trees, d)

        def probe(report) -> None:
            for r in report.resolutions:
                matches = call("designation.resolve", ek.resolve,
                               trees[r.chain.aspect], r.chain)
                self.resolve_calls += 1
                self.resolve_matches += len(matches)

        def check(report) -> str | None:
            counts, ok = self.expect_designation(text)
            got = [(str(r.chain), r.count) for r in report.resolutions]
            if got != counts or report.ok != ok:
                return f"check {text!r} = {got} != {counts}"
            return None

        self.attempt("query", query, check,
                     probe=probe if self.traced else None)

    def model_query(self, project, k: int) -> None:
        """viable_architecture over some views + coextension_class of one element."""
        ek, call = self.ek, self.call
        names = self.spec.arch_queries[k % len(self.spec.arch_queries)]
        elem = self.spec.class_queries[k % len(self.spec.class_queries)]
        model = project.description

        def query():
            return (call("description.viable_architecture",
                         ek.viable_architecture, model, names),
                    call("description.coextension_class",
                         ek.coextension_class, model, elem))

        def check(result) -> str | None:
            report, cls = result
            covered, missing = gen.arch_expect(self.spec, names)
            got = ([t.value for t in report.covered],
                   [t.value for t in report.missing])
            if got != (covered, missing):
                return f"viable_architecture({names}) = {got}"
            if cls != self.spec.groups[elem]:
                return f"coextension_class({elem}) = {sorted(cls)}"
            return None

        self.attempt("query", query, check)

    def record_update(self, project, k: int) -> None:
        """record_checkpoint of a superseding or a new record."""
        op = self.spec.record_ops[k % len(self.spec.record_ops)]
        rec = self.ek.CheckpointRecord(
            alpha_instance=op["alpha-instance"], state=op["state"],
            checkpoint=op["checkpoint"], satisfied=op["satisfied"],
            evidence=tuple(op["evidence"]), recorded_at=op["recorded-at"])
        key = (op["alpha-instance"], op["state"], op["checkpoint"])
        index = self.record_index.get(key, len(self.records))
        size = len(self.records) + (key not in self.record_index)

        def check(a) -> str | None:
            if len(a.records) != size or a.records[index] != rec:
                return f"record {key} not effective at index {index}"
            return None

        self.attempt("update", lambda: self.call(
            "engine.record_checkpoint", self.ek.record_checkpoint,
            project.assessment, rec), check)

    def model_update(self, project, k: int) -> None:
        """assert_coextension or bind_element on the loaded model."""
        ek, call = self.ek, self.call
        op = self.spec.model_ops[k % len(self.spec.model_ops)]
        kind, a, b = op
        model = project.description
        if kind == "coextend":
            def fn():
                return call("description.assert_coextension",
                            ek.assert_coextension, model, a, b)
        else:
            def fn():
                return call("description.bind_element",
                            ek.bind_element, model, a, b)

        def check(new) -> str | None:
            cls, node = gen.model_op_expect(self.spec, op)
            got = (ek.coextension_class(new, a), new.binding_of(a))
            if got != (cls, node):
                return f"{kind}({a}, {b}) gave class {sorted(got[0])} node {got[1]}"
            return None

        self.attempt("update", fn, check)

    def cover(self, project) -> None:
        """Traced runs only: each other CLI command and each read and
        update kind once, so every per-layer metric is measured on every
        workload."""
        for label in CLI_COMMANDS:
            if label not in self.mix:
                self.cli_op(label, 0)
        for op in (self.state_query, self.designation_query, self.model_query,
                   self.record_update, self.model_update):
            op(project, 0)

    # Trace-only replay of the decoded document, the way load_project does it

    def replay(self, data: bytes) -> None:
        ek, call = self.ek, self.call
        doc = call("store.json_decode", json.loads, data)
        with self.tracer.span("bench.replay"):
            raw = doc["assessment"]
            a = ek.Assessment(project_id=doc["project-id"],
                              kernel=ek.builtin_se_kernel(),
                              strict_evidence=raw["strict-evidence"])
            for item in raw["instances"]:
                inst = ek.AlphaInstance(id=item["id"], alpha=item["alpha"],
                                        system_level=ek.SystemLevel(
                                            item["system-level"]))
                a = call("engine.add_instance", ek.add_instance, a, inst)
            for item in raw["work-products"]:
                designation = None
                if "document-designation" in item:
                    designation = call("designation.parse_document_designation",
                                       ek.parse_document_designation,
                                       item["document-designation"])
                wp = ek.WorkProductInstance(
                    id=item["id"], definition=item["definition"],
                    label=item["label"], document_designation=designation)
                a = call("engine.add_work_product", ek.add_work_product, a, wp)
            for item in raw["records"]:
                rec = ek.CheckpointRecord(
                    alpha_instance=item["alpha-instance"], state=item["state"],
                    checkpoint=item["checkpoint"], satisfied=item["satisfied"],
                    evidence=tuple(item["evidence"]),
                    recorded_at=item["recorded-at"])
                a = call("engine.record_checkpoint", ek.record_checkpoint, a, rec)
            for aspect, roots in doc["trees"].items():
                with self.tracer.span("designation.tree_build"):
                    ek.BreakdownTree(aspect=ek.Aspect(aspect),
                                     roots=tuple(self.node(r) for r in roots))
            self.replay_model(doc["description"])

    def node(self, raw: dict):
        return self.ek.BreakdownNode(
            segment=raw["segment"],
            children=tuple(self.node(c) for c in raw.get("children", ())))

    def replay_model(self, raw: dict) -> None:
        ek, call = self.ek, self.call
        model = ek.DescriptionModel()
        for item in raw["viewpoints"]:
            vp = ek.Viewpoint(
                name=item["name"],
                structure_type=ek.StructureType(item["structure-type"]),
                concerns=tuple(item["concerns"]),
                description_kind=ek.DescriptionKind(item["description-kind"]))
            model = call("description.add_viewpoint", ek.add_viewpoint, model, vp)
        for item in raw["elements"]:
            elem = ek.ViewElement(id=item["id"], label=item["label"],
                                  has_extent=item["has-extent"])
            model = call("description.add_element", ek.add_element, model, elem)
        for item in raw["views"]:
            view = ek.View(name=item["name"], viewpoint=item["viewpoint"],
                           elements=tuple(item["elements"]))
            model = call("description.add_view", ek.add_view, model, view)
        for item in raw["realization-nodes"]:
            chains = tuple(
                call("designation.parse_designation", ek.parse_designation,
                     text).chains[0]
                for text in item["designators"].values())
            node = ek.RealizationNode(id=item["id"], designators=chains)
            model = call("description.add_realization_node",
                         ek.add_realization_node, model, node)
        for members in raw["coextension"]:
            for member in members[1:]:
                model = call("description.assert_coextension",
                             ek.assert_coextension, model, members[0], member)
        for elem, node in raw["bindings"]:
            model = call("description.bind_element", ek.bind_element,
                         model, elem, node)


class RecordsBench(Bench):
    """Write beside read over a project with ~2.1k checkpoint records."""

    mix = ("assess-record", "cards", "assess-state", "assess-blocking")
    queries = gen.OPS
    saves = 3
    query_op = Bench.state_query
    update_op = Bench.record_update


class TreesBench(Bench):
    """Designation checks against three ~10k-node breakdown trees."""

    mix = ("desig-check",) * 4
    queries = gen.DESIGNATIONS
    saves = 1
    query_op = Bench.designation_query
    update_op = Bench.record_update


class ModelBench(Bench):
    """Architecture checks and coextension over a 2.5k-element model."""

    mix = ("arch-check", "arch-check", "arch-check", "lint-endeavor")
    queries = gen.OPS
    saves = 3
    query_op = Bench.model_query
    update_op = Bench.model_update


BENCHES = {"records": RecordsBench, "trees": TreesBench, "model": ModelBench}


def setup(ek, workload: str, seed: int, scale: float, workdir: Path,
          plant=None):
    """Generate, write and warm up, SETUP_REPEATS times; time each pass."""
    kernel_doc = ek.kernel_to_doc(ek.builtin_se_kernel())
    workdir.mkdir(parents=True, exist_ok=True)
    times = []
    identity = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        spec = gen.generate(workload, seed, kernel_doc, scale)
        data = spec.dumps()
        (workdir / "project.json").write_bytes(data)
        bench = BENCHES[workload](ek, spec, workdir)
        project = ek.load_project(bench.path.read_bytes())
        saved = ek.save_project(project)
        bench.query_op(project, 0)
        bench.update_op(project, 0)
        warm = bench.run_cli("desig-parse", ["desig", "parse", PROBE_DESIGNATION])
        times.append(perf_counter() - start)
        identity.append(saved == data and warm.returncode == 0)
    if plant is not None:
        plant(bench)
    # Keep the warm-up's failures; drop its timings.
    attempted = bench.attempted + len(identity)
    failed = bench.failed + identity.count(False)
    problems = bench.problems
    bench.reset()
    bench.attempted, bench.failed, bench.problems = attempted, failed, problems
    if not all(identity):
        bench.problems.append("setup: save(load(document)) differs from it, "
                              "or the warm-up CLI call failed")
    return bench, project, statistics.median(times)


def provenance(bench: Bench, seed: int) -> dict:
    spec = bench.spec
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "file_bytes": len(bench.pristine),
        "records": len(spec.doc["assessment"]["records"]),
        "instances": len(spec.doc["assessment"]["instances"]),
        "strict_evidence": spec.doc["assessment"]["strict-evidence"],
        "tree_nodes": spec.stats["tree_nodes"],
        "max_depth": spec.stats["max_depth"],
        "elements": spec.stats["elements"],
        "classes": spec.stats["classes"],
        "bindings": spec.stats["bindings"],
    }


def p10(samples: list[float]) -> float:
    """Lower decile, as ``statistics.quantiles`` interpolates it."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[0]


def end_to_end(bench: Bench, setup_s: float, ops: int, wall: float):
    """(gated metrics, reported figures, tail percentiles and counts).

    The batch runs the same reads and updates on every step, and their
    cost differs from one operation to the next, so ``query`` and
    ``update`` take each operation's own lower decile over the steps and
    average those over the batch. A lower decile of all their samples
    would instead pick out the cheapest operations.
    """
    ms = {k: [x * 1000 for x in v] for k, v in bench.samples.items()}
    reference_ms = p10(bench.reference) * 1000
    metrics = {"setup_s": setup_s}
    reported = {"reference_ms.p10": reference_ms}
    tails = {}
    for kind in TIMED:
        if kind in bench.by_op:
            per_op = [p10(v) for v in bench.by_op[kind].values()]
            low = 1000 * statistics.fmean(per_op) if per_op else None
        else:
            low = p10(ms[kind]) if ms[kind] else None
        if low is not None:
            metrics[f"{kind}_ref.p10"] = low / reference_ms
            reported[f"{kind}_ms.p10"] = low
        if ms[kind]:
            reported[f"{kind}_ms.p50"] = statistics.median(ms[kind])
    for kind in ("cli", "load", "query"):
        if ms[kind]:
            value, pct, n = tail(ms[kind])
            reported[f"{kind}_ms.tail"] = value
            tails[f"{kind}_ms.tail"] = {"percentile": pct, "samples": n}
    reported["ops_per_s"] = ops / wall
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["cli_peak_rss_mb"] = peak_kb / 1024
    return metrics, reported, tails


def per_layer(bench: Bench, tracer: tracing.Tracer, traced_wall: float,
              overhead: float) -> dict:
    spans = tracer.spans
    summary = tracing.summarize(spans, traced_wall)
    functions = summary["functions"]
    metrics = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fn in names:
            entry = functions.get(f"{layer}.{fn}", {})
            metrics[f"{layer}.{fn}.busy_s"] = entry.get("busy_s", 0.0)
            metrics[f"{layer}.{fn}.calls"] = entry.get("calls", 0)
            metrics[f"{layer}.{fn}.failed"] = entry.get("failed", 0)
    metrics["store.glue_s"] = (
        metrics["store.load_project.busy_s"]
        - metrics["store.json_decode.busy_s"]
        - tracing.children_busy(spans, "bench.replay"))
    metrics["designation.matches_per_resolve"] = (
        bench.resolve_matches / bench.resolve_calls
        if bench.resolve_calls else 0.0)

    def p50_ms(name: str) -> float:
        durations = functions.get(name, {}).get("durations")
        return statistics.median(durations) * 1000 if durations else 0.0

    metrics["cli.startup_ms.p50"] = p50_ms("cli.desig-parse")
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.ms.p50"] = p50_ms(f"cli.{command}")
    for name in GROWTH_FUNCTIONS:
        metrics[f"{name}.tail_head_ratio"] = tracing.tail_head_ratio(spans, name)
    for layer, share in summary["self_share"].items():
        metrics[f"{layer}.self_share"] = share
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, plant=None) -> dict:
    """One benchmark run; returns the result document without printing it."""
    ek = import_essencekit()
    workdir = OUT / "work" / workload
    bench, project, setup_s = setup(ek, workload, seed, scale, workdir, plant)
    # The generator's and oracles' objects live for the whole run; keep the
    # collector from rescanning them inside essencekit's timed calls.
    gc.collect()
    gc.freeze()
    result: dict = {"workload": workload, "provenance": provenance(bench, seed)}
    if not trace:
        rounds, wall = bench.run_rounds(project, seconds, MIN_ROUNDS)
        ops = sum(len(v) for v in bench.samples.values())
        metrics, reported, tails = end_to_end(bench, setup_s, ops, wall)
        units = E2E_METRICS
        result.update(rounds=rounds, wall_s=wall, tails=tails,
                      reported={name: {"value": reported[name], "unit": unit}
                                for name, unit in REPORTED.items()
                                if name in reported},
                      samples_ms={k: [x * 1000 for x in v]
                                  for k, v in bench.samples.items()})
    else:
        # Untraced rounds for half the budget, then the same rounds traced.
        bench.traced = True
        rounds, untraced_wall = bench.run_rounds(project, seconds / 2)
        tracer = tracing.Tracer()
        bench.tracer = tracer
        start = perf_counter()
        with tracer.op("probe"):
            kernel_doc = bench.call("metamodel.kernel_to_doc", ek.kernel_to_doc,
                                    ek.builtin_se_kernel())
            kernel = bench.call("metamodel.kernel_from_doc",
                                ek.kernel_from_doc, kernel_doc)
            report = bench.call("metamodel.validate_kernel",
                                ek.validate_kernel, kernel)
        bench.attempted += 1
        if not report.ok or kernel != ek.builtin_se_kernel():
            bench.fail("probe", "exported builtin kernel does not round-trip")
        for _ in range(STARTUP_PROBES):
            bench.attempt(
                "cli", lambda: bench.run_cli(
                    "desig-parse", ["desig", "parse", PROBE_DESIGNATION]),
                lambda proc: bench.cli_problem(proc) or (
                    None if proc.stdout.startswith(PROBE_DESIGNATION + "\n")
                    else f"desig parse printed {proc.stdout!r}"))
        bench.cover(project)
        probes_wall = perf_counter() - start
        _, traced_wall = bench.run_rounds(project, seconds, rounds=rounds)
        tracing.write_spans(tracer.spans, OUT / f"{workload}.spans.jsonl")
        metrics = per_layer(bench, tracer, probes_wall + traced_wall,
                            traced_wall / untraced_wall)
        units = per_layer_units()
        result.update(rounds=rounds, untraced_wall_s=untraced_wall,
                      traced_wall_s=traced_wall)
    result.update(
        correct=bench.failed == 0,
        attempted=bench.attempted,
        failed=bench.failed,
        fail_ratio=bench.failed / bench.attempted,
        problems=bench.problems,
        metrics={name: {"value": metrics[name], "unit": unit}
                 for name, unit in units.items() if name in metrics},
    )
    missing = [name for name in units if name not in metrics]
    if missing:
        result["correct"] = False
        result["problems"].append(f"metrics not measured: {missing}")
    return result


def report_lines(result: dict) -> list[str]:
    prov = result["provenance"]
    lines = [f"workload {result['workload']}: "
             + " ".join(f"{k}={v}" for k, v in prov.items())]
    tails = result.get("tails", {})
    figures = [("", result["metrics"]), ("reported ", result.get("reported", {}))]
    for label, group in figures:
        for name, metric in group.items():
            line = f"  {label}{name} {metric['value']:.6g} {metric['unit']}"
            if name in tails:
                line += (f" (p{tails[name]['percentile']:.0f}"
                         f" of {tails[name]['samples']} samples)")
            lines.append(line)
    lines.append(f"  fail_ratio {result['fail_ratio']:.6g} "
                 f"({result['failed']} of {result['attempted']} operations)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print("\n".join(report_lines(result)))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
