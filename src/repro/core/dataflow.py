"""A job's agent dataflow: what each task's agent produces.

No schedule reads an agent's output: a task's start and finish come from
its implementation's ``estimate`` over the template's ``task.work``, and the
fabric sizes a transfer by the constant ``output_payload_bytes``.  So the
executor keeps outputs off its event path.  On each completion it only
records ``(task, implementation, assignment)`` with :meth:`JobDataflow.record`;
when the job's last task completes, :meth:`JobDataflow.finish` runs the
job's dataflow once, in completion order: each task's input is its work
payload merged with its predecessors' outputs (:meth:`JobDataflow.compose_work`),
and its agent's ``execute`` produces its result.

Every shipped agent is pure except the vector database, whose collection a
job creates and drops inside itself.  So a job's results are a function of

* the decomposer template that stamped its graph (the graph's
  :attr:`~repro.core.dag.TaskGraph.stamped_from`),
* each template position's binding: the implementation's class and name,
  and the assignment's configuration and mode,
* the class of the library's ``vector-db``, which question answering reads
  its context from, and
* the completion order of the results some reader iterates: today only the
  scene summaries, which question answering gathers in completion order,

plus the job id, which names the vector collection.  One process-wide memo
keys on exactly that, bounded by entry count and by stored bytes, and
emptied by :func:`~repro.profiling.profiler.clear_default_profile_store_cache`.
Stored results are abstracted from their job: they are pickled in
template-position order with the job id as a persistent id (so are
interface members, and read-only arrays, which are shared as the eager
dataflow shares its memoized embeddings), and a job whose results hold its
id inside a longer string is never stored.  An entry is confirmed before it
is replayed: the first sighting of a key stores a candidate, the second (a
job with another id) recomputes and compares task by task (type-exact,
floats to the bit), equal results replay from then on as fresh objects for
each job in that job's own completion order, and a mismatch means the key
is never replayed.  Graphs not stamped from a template (first sightings,
hand-built and imperative jobs, the reference oracle's decomposer) always
compute afresh.
"""

from __future__ import annotations

import io
import pickle
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.agents.base import AgentImplementation, AgentInterface, AgentResult, WorkUnit
from repro.agents.library import AgentLibrary
from repro.agents.synthetic import stable_embedding
from repro.core.dag import TaskGraph
from repro.core.planner import PlanAssignment
from repro.core.task import Task

#: The persistent id standing for the job id in a stored result; ids from 1
#: on index the entry's shared read-only arrays.
_JOB_ID = 0
_INTERFACES = {member.value: member for member in AgentInterface}


class _Abstracter(pickle.Pickler):
    """Pickles results with the job id, interface members and read-only
    arrays as persistent ids (the arrays are kept in :attr:`shared`); sets
    :attr:`leaked` when a string holds the job id inside it."""

    def __init__(self, file, job_id: str) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.job_id = job_id
        self.leaked = False
        self.shared: List[np.ndarray] = []

    def persistent_id(self, obj):
        kind = obj.__class__
        if kind is AgentInterface:
            return obj.value
        if kind is np.ndarray and not obj.flags.writeable:
            # Nothing edits a read-only array in place, and the eager
            # dataflow shares these too (memoized embeddings).
            self.shared.append(obj)
            return len(self.shared)
        if isinstance(obj, str) and self.job_id in obj:
            if kind is str and obj == self.job_id:
                return _JOB_ID
            self.leaked = True
        return None


_CANDIDATE, _CONFIRMED, _REFUSED = "candidate", "confirmed", "refused"


class _Entry:
    """Results by template position, pickled without their job id, and the
    id of the job that stored them while they await confirmation."""

    __slots__ = ("state", "blob", "shared", "job_id", "size")

    def __init__(self, results: List[AgentResult], job_id: str) -> None:
        buffer = io.BytesIO()
        pickler = _Abstracter(buffer, job_id)
        pickler.dump(results)
        self.state = _REFUSED if pickler.leaked else _CANDIDATE
        self.blob = buffer.getvalue()
        self.shared = tuple(pickler.shared)
        self.job_id: Optional[str] = job_id
        self.size = len(self.blob) + sum(array.nbytes for array in self.shared)

    def refuse(self) -> None:
        self.state = _REFUSED
        self.blob, self.shared, self.job_id, self.size = b"", (), None, 0


class _Restorer(pickle.Unpickler):
    """Unpickles an :class:`_Entry` for job ``job_id``."""

    def __init__(self, entry: _Entry, job_id: str) -> None:
        super().__init__(io.BytesIO(entry.blob))
        self.job_id = job_id
        self.shared = entry.shared

    def persistent_load(self, pid):
        if pid.__class__ is int:
            return self.shared[pid - 1] if pid else self.job_id
        return _INTERFACES[pid]


def _same(a: object, b: object) -> bool:
    """Type-exact structural equality: dict keys in order, floats to the bit,
    arrays by dtype, shape and bytes, results by every attribute."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is dict:
        return len(a) == len(b) and all(
            _same(key_a, key_b) and _same(a[key_a], b[key_b]) for key_a, key_b in zip(a, b)
        )
    if kind is list or kind is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    if kind is float:
        return a.hex() == b.hex()
    if kind is np.ndarray:
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if kind is AgentResult:
        return _same(vars(a), vars(b))
    return bool(a == b)


class _DataflowMemo:
    """The process-wide memo of job dataflows (see the module docstring),
    evicted oldest first."""

    #: Bounds on the entries held and on their bytes.
    MAX_ENTRIES = 256
    MAX_BYTES = 16 << 20

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self._entries: Dict[tuple, _Entry] = {}
        self._bytes = 0
        self._counts = dict.fromkeys(
            ("fresh", "candidates", "confirmed", "refused", "replayed"), 0
        )

    def info(self) -> Dict[str, int]:
        return {**self._counts, "entries": len(self._entries), "bytes": self._bytes}

    def results(self, flow: "JobDataflow") -> Dict[str, AgentResult]:
        """``flow``'s results: replayed from a confirmed entry, else computed."""
        key = flow.memo_key()
        entry = self._entries.get(key) if key is not None else None
        counts = self._counts
        if entry is not None and entry.state is _CONFIRMED:
            counts["replayed"] += 1
            return flow.replay(entry)
        results = flow.compute()
        if key is None or (entry is not None and entry.state is _REFUSED):
            counts["fresh"] += 1
        elif entry is None:
            entry = _Entry(flow.by_position(results), flow.job_id)
            if entry.state is _REFUSED or entry.size > self.MAX_BYTES:
                counts["fresh"] += 1
            else:
                counts["candidates"] += 1
                self._store(key, entry)
        elif entry.job_id == flow.job_id:
            # Equal ids cannot tell the job id from an equal literal.
            counts["fresh"] += 1
        else:
            stored = flow.replay(entry)
            self._bytes -= entry.size
            if all(_same(stored[task_id], result) for task_id, result in results.items()):
                counts["confirmed"] += 1
                entry.state, entry.job_id = _CONFIRMED, None
            else:
                counts["refused"] += 1
                entry.refuse()
            self._bytes += entry.size
        return results

    def _store(self, key: tuple, entry: _Entry) -> None:
        entries = self._entries
        while entries and (
            len(entries) >= self.MAX_ENTRIES or self._bytes + entry.size > self.MAX_BYTES
        ):
            self._bytes -= entries.pop(next(iter(entries))).size
        entries[key] = entry
        self._bytes += entry.size


_SHARED_DATAFLOWS = _DataflowMemo()


def dataflow_memo_info() -> Dict[str, int]:
    """Counters of the process-wide dataflow memo: jobs computed ``fresh``
    (never stored or compared), ``candidates`` stored, ``confirmed`` and
    ``refused`` at their second sighting, and ``replayed``; plus the
    ``entries`` held and their ``bytes`` (pickles and shared arrays)."""
    return _SHARED_DATAFLOWS.info()


def clear_dataflow_memo() -> None:
    """Empty the process-wide dataflow memo and reset its counters."""
    _SHARED_DATAFLOWS.clear()


class JobDataflow:
    """One job's dataflow: records its completions, computes its results.

    ``positions`` maps each task id to its template position (the index in
    the graph's topological order, which a stamp carries over).
    """

    def __init__(
        self, graph: TaskGraph, library: AgentLibrary, job_id: str, positions: Mapping[str, int]
    ) -> None:
        self.graph = graph
        self.library = library
        self.job_id = job_id
        self.positions = positions
        self.results: Dict[str, AgentResult] = {}
        #: ``(task, implementation, assignment)`` per completion, in order.
        self.completions: List[Tuple[Task, AgentImplementation, PlanAssignment]] = []

    def record(
        self, task: Task, implementation: AgentImplementation, assignment: PlanAssignment
    ) -> None:
        """Note that ``task`` completed on ``implementation`` under ``assignment``."""
        self.completions.append((task, implementation, assignment))

    def finish(self) -> Dict[str, AgentResult]:
        """The job's results, task id -> result in completion order."""
        return _SHARED_DATAFLOWS.results(self)

    # ------------------------------------------------------------------ #
    # Memo support
    # ------------------------------------------------------------------ #
    def memo_key(self) -> Optional[tuple]:
        """What the job's results depend on besides its id, or ``None`` for
        a graph no template stamped (or one not every task completed in)."""
        template = self.graph.stamped_from
        completions = self.completions
        if template is None or len(completions) != len(self.graph):
            return None
        positions = self.positions
        # Distinct (implementation, assignment) pairs by identity, then the
        # bindings they carry in order of first template position, so equal
        # bindings give equal keys whatever order tasks completed in.
        pairs: List[Tuple[AgentImplementation, PlanAssignment]] = []
        pair_at = [0] * len(completions)
        scene_order = []
        for task, implementation, assignment in completions:
            for index, (seen, seen_assignment) in enumerate(pairs):
                if seen is implementation and seen_assignment is assignment:
                    break
            else:
                index = len(pairs)
                pairs.append((implementation, assignment))
            position = positions[task.task_id]
            pair_at[position] = index
            if task.interface is AgentInterface.SCENE_SUMMARIZATION:
                scene_order.append(position)
        codes: Dict[tuple, int] = {}
        code_of_pair = [0] * len(pairs)
        for index in sorted(range(len(pairs)), key=pair_at.index):
            implementation, assignment = pairs[index]
            binding = (
                type(implementation), implementation.name, assignment.config, assignment.mode
            )
            code_of_pair[index] = codes.setdefault(binding, len(codes))
        library = self.library
        reader = type(library.get("vector-db")) if "vector-db" in library else None
        return (
            template,
            reader,
            tuple(codes),
            tuple([code_of_pair[index] for index in pair_at]),
            tuple(scene_order),
        )

    def by_position(self, results: Mapping[str, AgentResult]) -> List[AgentResult]:
        """``results`` listed by template position."""
        ordered: List[AgentResult] = [None] * len(results)  # type: ignore[list-item]
        positions = self.positions
        for task_id, result in results.items():
            ordered[positions[task_id]] = result
        return ordered

    def replay(self, entry: _Entry) -> Dict[str, AgentResult]:
        """Fresh results from a stored ``entry``, in this job's completion order."""
        stored = _Restorer(entry, self.job_id).load()
        positions = self.positions
        return {
            task.task_id: stored[positions[task.task_id]]
            for task, _implementation, _assignment in self.completions
        }

    # ------------------------------------------------------------------ #
    # Computing the dataflow
    # ------------------------------------------------------------------ #
    def compute(self) -> Dict[str, AgentResult]:
        """Run every recorded task's agent, in completion order."""
        for task, implementation, assignment in self.completions:
            self.run_task(task, implementation, assignment)
        return self.results

    def run_task(
        self, task: Task, implementation: AgentImplementation, assignment: PlanAssignment
    ) -> None:
        """Compose ``task``'s input and run its agent on it."""
        work = self.compose_work(task)
        self.results[task.task_id] = implementation.execute(
            work, assignment.config, assignment.mode
        )

    def compose_work(self, task: Task) -> WorkUnit:
        """Merge predecessor outputs into the task's input payload."""
        payload = dict(task.work.payload)
        results = self.results
        for predecessor in self.graph.predecessors(task.task_id):
            result = results.get(predecessor.task_id)
            if result is None:
                continue
            _merge_output(payload, predecessor.interface, result)
        if task.interface is AgentInterface.QUESTION_ANSWERING:
            self._prepare_question_answering(payload)
        if task.interface is AgentInterface.TEXT_GENERATION:
            _prepare_text_generation(payload)
        return WorkUnit(kind=task.work.kind, quantity=task.work.quantity, payload=payload)

    def _prepare_question_answering(self, payload: Dict[str, object]) -> None:
        """Gather context for the final answer: retrieved scenes + detected objects."""
        summaries: List[str] = []
        objects: List[str] = []
        for result in self.results.values():
            if result.interface is AgentInterface.SCENE_SUMMARIZATION:
                summaries.append(str(result.output.get("summary", "")))
                for obj in result.output.get("objects", []):
                    if obj not in objects:
                        objects.append(obj)
        if summaries and not payload.get("context"):
            payload["context"] = summaries
        if objects:
            existing = list(payload.get("objects", []))
            for obj in objects:
                if obj not in existing:
                    existing.append(obj)
            payload["objects"] = existing
        collection = payload.get("collection")
        question = str(payload.get("question", ""))
        if collection and question and "vector-db" in self.library:
            vectordb = self.library.get("vector-db")
            store = getattr(vectordb, "collection", None)
            if callable(store) and len(vectordb.collection(str(collection))):
                matches = vectordb.collection(str(collection)).query(
                    stable_embedding(question), top_k=int(payload.get("top_k", 5))
                )
                payload["context"] = [record.text for record, _score in matches]


def _merge_output(
    payload: Dict[str, object], interface: AgentInterface, result: AgentResult
) -> None:
    output = result.output
    if interface is AgentInterface.SPEECH_TO_TEXT:
        payload["transcript"] = output.get("transcript", "")
    elif interface is AgentInterface.OBJECT_DETECTION:
        payload.setdefault("objects", [])
        payload["objects"] = list(payload["objects"]) + [
            obj for obj in output.get("objects", []) if obj not in payload["objects"]
        ]
    elif interface is AgentInterface.SCENE_SUMMARIZATION:
        texts = list(payload.get("texts", []))
        texts.append(output.get("summary", ""))
        payload["texts"] = texts
        summaries = list(payload.get("summaries", []))
        summaries.append(output.get("summary", ""))
        payload["summaries"] = summaries
        objects = list(payload.get("objects", []))
        for obj in output.get("objects", []):
            if obj not in objects:
                objects.append(obj)
        payload["objects"] = objects
    elif interface is AgentInterface.EMBEDDING:
        payload["embeddings"] = list(payload.get("embeddings", [])) + list(
            output.get("embeddings", [])
        )
        payload["texts"] = list(payload.get("texts", [])) + list(output.get("texts", []))
    elif interface is AgentInterface.VECTOR_DB:
        payload["collection"] = output.get("collection", payload.get("collection"))
    elif interface is AgentInterface.WEB_SEARCH:
        snippets = [r.get("snippet", "") for r in output.get("results", [])]
        payload["context"] = list(payload.get("context", [])) + snippets
    elif interface is AgentInterface.SENTIMENT_ANALYSIS:
        payload["labels"] = list(payload.get("labels", [])) + list(output.get("labels", []))
        payload["texts"] = list(payload.get("texts", [])) + list(output.get("texts", []))
    elif interface is AgentInterface.QUESTION_ANSWERING:
        payload["context"] = list(payload.get("context", [])) + [output.get("answer", "")]
    elif interface is AgentInterface.CALCULATION:
        payload["context"] = list(payload.get("context", [])) + [str(output.get("value", ""))]
    elif interface is AgentInterface.TEXT_GENERATION:
        payload["context"] = list(payload.get("context", [])) + [output.get("text", "")]


def _prepare_text_generation(payload: Dict[str, object]) -> None:
    prompt = str(payload.get("prompt", ""))
    labels = payload.get("labels")
    context = payload.get("context")
    if labels:
        prompt += " | observed sentiments: " + ", ".join(str(label) for label in labels)
    if context:
        prompt += " | context: " + " ".join(str(c) for c in list(context)[:3])
    payload["prompt"] = prompt
