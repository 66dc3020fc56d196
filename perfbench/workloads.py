"""The three workloads: what one pass runs, and what it checks.

Each workload has a fixed program corpus (its FuzzConfig, corpus seed and
program count), so every pass runs the same programs and a run's figures do
not depend on which programs a seed happened to draw.  The benchmark seed
draws the order of the programs and each pipeline response.

Calls that are measured go through module attributes (``sos.run``,
``tasks.build_instance``), so the tracer's wrappers see them.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import dataclass, field, asdict
from time import perf_counter

from implang import fuzzer, metrics, mutation, scoring, sos, syntax, tasks
from implang.mutation import MutationKind, SemanticsStyle
from implang.runtime import DEFAULT_STEP_LIMIT

import answers

MAX_ATTEMPTS = 25  # as fuzzer.generate_corpus
STYLES = (SemanticsStyle.SOS, SemanticsStyle.K)
KINDS = (MutationKind.STANDARD, MutationKind.KEYWORD_SWAP, MutationKind.KEYWORD_OBF)
COMBOS = tuple((style, kind) for style in STYLES for kind in KINDS)
TASKS = ("state", "rule", "trace")


class CheckFailed(Exception):
    """An output of the program is wrong; the run must not report timings."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Op:
    key: str  # stable within the workload, e.g. "8.rule"
    program_seed: str
    seconds: float  # time spent inside implang for this op
    error: str = ""  # exception type when the op failed


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)
    busy_s: float = 0.0  # time inside implang: the ops plus per-program work
    scale: float = 1.0  # measured seconds -> reference seconds, see speed.py
    outputs: dict[str, str] = field(default_factory=dict)  # key -> sha256


@dataclass
class Counts:
    samples: int = 0
    accepted: int = 0


@dataclass
class Corpus:
    """Programs in corpus order, with their seeds and sizes."""

    seeds: list[str] = field(default_factory=list)
    programs: list = field(default_factory=list)
    sources: list[str] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    counts: Counts = field(default_factory=Counts)

    def digest(self) -> str:
        return sha(*self.seeds, *self.sources)


def next_program(program_id: str, tracer, probe) -> None:
    """Between programs: label later spans, collect the previous program's
    garbage so each program starts from the same heap whatever ran before it,
    and sample the machine's speed."""
    tracer.program = program_id
    gc.collect()
    probe.sample()


def sample_terminating(cfg, corpus_seed: int, i: int, counts: Counts):
    """generate_corpus-style sampling: resample from derived seeds until the
    SOS run terminates.  Returns (seed, program, source, steps)."""
    for attempt in range(MAX_ATTEMPTS):
        seed = f"{corpus_seed}:{i}:{attempt}"
        program = fuzzer.sample_program(cfg, seed)
        trace = sos.run(program, DEFAULT_STEP_LIMIT, collect=False)
        counts.samples += 1
        if trace.outcome.terminated:
            counts.accepted += 1
            return seed, program, syntax.render_program(program), trace.n_steps
    raise RuntimeError(f"program {corpus_seed}:{i} did not terminate in {MAX_ATTEMPTS} samples")


def build_corpus(cfg, corpus_seed: int, count: int, tracer, probe) -> Corpus:
    corpus = Corpus()
    for i in range(count):
        # Label and sample only: a collection here would be timed as set-up.
        tracer.program = f"{corpus_seed}:{i}"
        probe.sample()
        seed, program, source, steps = sample_terminating(cfg, corpus_seed, i, corpus.counts)
        corpus.seeds.append(seed)
        corpus.programs.append(program)
        corpus.sources.append(source)
        corpus.steps.append(steps)
    return corpus


def seeded_order(count: int, seed: int) -> list[int]:
    order = list(range(count))
    random.Random(f"order:{seed}").shuffle(order)
    return order


@dataclass
class Workload:
    name: str
    why: str
    config: fuzzer.FuzzConfig
    corpus_seed: int
    programs: int

    def traffic(self) -> dict:
        return {"fuzz_config": asdict(self.config), "corpus_seed": self.corpus_seed,
                "programs": self.programs}


# ---------------------------------------------------------------------------
# pipeline: fuzz -> metrics -> tasks -> score, one instance per op
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    task: str
    style: SemanticsStyle
    kind: MutationKind
    response: str  # answers.GOLD or a corruption kind
    rng_seed: str  # seeds the corruption's random choices


@dataclass
class PipelineInputs:
    seed: int
    order: list[int]
    plan: dict[int, list[Instance]]
    counts: Counts = field(default_factory=Counts)
    sources: list[str] = field(default_factory=list)  # filled in by each pass
    steps: list[int] = field(default_factory=list)

    def digest(self) -> str:
        return sha(json.dumps([[i, [(x.task, x.style.value, x.kind.value, x.response)
                                    for x in self.plan[i]]] for i in self.order]))


class Pipeline(Workload):
    """Per program: sample with termination checks, profile, then one
    instance of each task, each from build to verdict.  Sampling and
    profiling count towards the pass's busy time but not towards op
    latency."""

    def setup(self, seed: int, tracer, probe) -> PipelineInputs:
        plan = {}
        for i in range(self.programs):
            plan[i] = []
            for t, task in enumerate(TASKS):
                style, kind = COMBOS[(i + t) % len(COMBOS)]
                rng_seed = f"response:{seed}:{i}:{task}"
                response = answers.choose_kind(task, random.Random(rng_seed))
                plan[i].append(Instance(task, style, kind, response, rng_seed))
        return PipelineInputs(seed, seeded_order(self.programs, seed), plan,
                              sources=[""] * self.programs, steps=[0] * self.programs)

    def run_pass(self, inputs: PipelineInputs, tracer, probe) -> PassResult:
        out = PassResult()
        for i in inputs.order:
            next_program(f"{self.corpus_seed}:{i}", tracer, probe)
            t0 = perf_counter()
            seed, program, source, steps = sample_terminating(
                self.config, self.corpus_seed, i, inputs.counts)
            profile = metrics.profile(program)
            out.busy_s += perf_counter() - t0
            inputs.sources[i], inputs.steps[i] = source, steps
            out.outputs[f"{i}.program"] = sha(seed, source, json.dumps(profile.as_record()))
            for inst in inputs.plan[i]:
                out.ops.append(self._instance(i, seed, program, inst, out, probe))
        return out

    def _instance(self, i: int, seed: str, program, inst: Instance, out: PassResult,
                  probe) -> Op:
        key = f"{i}.{inst.task}"
        probe.sample()
        t0 = perf_counter()
        try:
            built = tasks.build_instance(str(i), program, inst.task, inst.style, inst.kind,
                                         seed=self.corpus_seed)
            line = built.to_json()
            loaded = tasks.TaskInstance.from_json(line)
        except Exception as exc:  # a failed op is counted, the pass carries on
            seconds = perf_counter() - t0
            out.busy_s += seconds
            out.outputs[key] = f"error:{type(exc).__name__}"
            return Op(key, seed, seconds, type(exc).__name__)
        build_s = perf_counter() - t0
        check(loaded == built, f"{key}: TaskInstance JSON round trip changed the instance")
        response = answers.response_text(loaded, inst.response, random.Random(inst.rng_seed))
        t0 = perf_counter()
        report = scoring.score_batch([loaded], {loaded.instance_id: response})
        score_s = perf_counter() - t0
        exact = all(report.per_instance.values())
        if inst.response == answers.GOLD:
            check(bool(report.per_instance) and exact, f"{key}: gold response scored not exact")
        else:
            check(not exact, f"{key}: '{inst.response}' corruption scored exact")
        out.busy_s += build_s + score_s
        out.outputs[key] = sha(line, response, report.to_json())
        return Op(key, seed, build_s + score_s)


# ---------------------------------------------------------------------------
# oracle: SOS vs K over std/swap/obf, one program per op
# ---------------------------------------------------------------------------


@dataclass
class CorpusInputs:
    corpus: Corpus
    order: list[int]

    def digest(self) -> str:
        return self.corpus.digest()

    @property
    def counts(self) -> Counts:
        return self.corpus.counts

    @property
    def sources(self) -> list[str]:
        return self.corpus.sources

    @property
    def steps(self) -> list[int]:
        return self.corpus.steps


class CorpusWorkload(Workload):
    """A workload whose corpus is built in set-up."""

    def setup(self, seed: int, tracer, probe) -> CorpusInputs:
        corpus = build_corpus(self.config, self.corpus_seed, self.programs, tracer, probe)
        return CorpusInputs(corpus, seeded_order(self.programs, seed))


class Oracle(CorpusWorkload):
    """Criteria 7-8: every style and mutation reaches the standard SOS
    outcome and final store."""

    def run_pass(self, inputs: CorpusInputs, tracer, probe) -> PassResult:
        out = PassResult()
        corpus = inputs.corpus
        for i in inputs.order:
            next_program(corpus.seeds[i], tracer, probe)
            program = corpus.programs[i]
            t0 = perf_counter()
            try:
                runs = [
                    mutation.run_with(mutation.transform_program(program, kind), style, kind,
                                      DEFAULT_STEP_LIMIT, collect=False)
                    for style, kind in COMBOS
                ]
            except Exception as exc:  # a failed op is counted, the pass carries on
                seconds = perf_counter() - t0
                out.outputs[str(i)] = f"error:{type(exc).__name__}"
                out.ops.append(Op(str(i), corpus.seeds[i], seconds, type(exc).__name__))
                out.busy_s += seconds
                continue
            seconds = perf_counter() - t0
            base = runs[0]
            for (style, kind), trace in zip(COMBOS, runs):
                check(trace.outcome == base.outcome and trace.final_store == base.final_store,
                      f"{corpus.seeds[i]}: {style.value}/{kind.value} disagrees with sos/std")
            out.outputs[str(i)] = sha(*(f"{t.outcome.value} {sorted(t.final_store.items())} "
                                        f"{t.n_steps}" for t in runs))
            out.ops.append(Op(str(i), corpus.seeds[i], seconds))
            out.busy_s += seconds
        return out


# ---------------------------------------------------------------------------
# large: the `implang metrics` path over rendered sources of deep programs
# ---------------------------------------------------------------------------


class Large(CorpusWorkload):
    """parse then profile, as `implang metrics` does for each file."""

    def run_pass(self, inputs: CorpusInputs, tracer, probe) -> PassResult:
        out = PassResult()
        corpus = inputs.corpus
        for i in inputs.order:
            next_program(corpus.seeds[i], tracer, probe)
            source = corpus.sources[i]
            t0 = perf_counter()
            try:
                program = syntax.parse(source)
                profile = metrics.profile(program)
            except Exception as exc:  # a failed op is counted, the pass carries on
                seconds = perf_counter() - t0
                out.outputs[str(i)] = f"error:{type(exc).__name__}"
                out.ops.append(Op(str(i), corpus.seeds[i], seconds, type(exc).__name__))
                out.busy_s += seconds
                continue
            seconds = perf_counter() - t0
            check(program == corpus.programs[i], f"{corpus.seeds[i]}: parse(render(p)) != p")
            check(profile.loc == source.count("\n"), f"{corpus.seeds[i]}: loc mismatch")
            check(profile.trace_length_micro == corpus.steps[i],
                  f"{corpus.seeds[i]}: trace length differs from the sampling run")
            out.outputs[str(i)] = sha(json.dumps(profile.as_record()))
            out.ops.append(Op(str(i), corpus.seeds[i], seconds))
            out.busy_s += seconds
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Pipeline(
            "pipeline",
            "north-star path fuzz -> metrics -> tasks -> score on real task traffic; "
            "scoring dominates",
            fuzzer.FuzzConfig(), 20240501, 96),
        Oracle(
            "oracle",
            "criteria 7-8 cross-semantics oracle; sos and kengine do the work, "
            "scoring and metrics none",
            fuzzer.FuzzConfig(), 20240501, 200),
        Large(
            "large",
            "`implang metrics` over deep programs; syntax and metrics dominate, "
            "working-set size varies",
            fuzzer.FuzzConfig(min_block_depth=6), 20240501, 100),
    )
}
