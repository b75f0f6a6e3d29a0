"""An in-memory vector database tool.

Unlike most agents in this package, the vector database is a *functional*
substrate: it really stores vectors and answers nearest-neighbour queries
(cosine similarity via numpy).  The Video Understanding workflow inserts
per-scene summary embeddings and the final question-answering step retrieves
the most relevant scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents.base import (
    AgentImplementation,
    AgentInterface,
    AgentResult,
    ExecutionEstimate,
    ExecutionMode,
    HardwareConfig,
    SEQUENTIAL_MODE,
    WorkUnit,
)


@dataclass
class VectorRecord:
    """One stored vector with its source text and metadata."""

    record_id: str
    vector: np.ndarray
    text: str
    metadata: Dict[str, object] = field(default_factory=dict)


class VectorCollection:
    """A named collection of vectors supporting cosine-similarity search."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._records: List[VectorRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, record: VectorRecord) -> None:
        if record.vector.ndim != 1:
            raise ValueError("vectors must be one-dimensional")
        if self._records and record.vector.shape != self._records[0].vector.shape:
            raise ValueError(
                f"dimension mismatch: collection stores {self._records[0].vector.shape}, "
                f"got {record.vector.shape}"
            )
        self._records.append(record)

    def query(self, vector: np.ndarray, top_k: int = 3) -> List[Tuple[VectorRecord, float]]:
        """Return up to ``top_k`` records ranked by cosine similarity."""
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if not self._records:
            return []
        matrix = np.stack([r.vector for r in self._records])
        norms = np.linalg.norm(matrix, axis=1) * max(np.linalg.norm(vector), 1e-12)
        similarities = matrix @ vector / np.where(norms == 0, 1e-12, norms)
        order = np.argsort(-similarities)[:top_k]
        return [(self._records[i], float(similarities[i])) for i in order]


class InMemoryVectorDB(AgentImplementation):
    """A CPU tool exposing insert/query operations over named collections."""

    name = "vector-db"
    interface = AgentInterface.VECTOR_DB
    quality = 1.0
    description = "Insert embeddings into, or query, an in-memory vector database."

    #: Seconds per inserted or queried item.
    seconds_per_insert = 0.05
    seconds_per_query = 0.1

    def __init__(self) -> None:
        self._collections: Dict[str, VectorCollection] = {}

    def schema_parameters(self) -> Tuple[Tuple[str, str], ...]:
        return (
            ("operation", "str"),
            ("collection", "str"),
            ("embeddings", "list[vector]"),
            ("query_vector", "vector"),
            ("top_k", "int"),
        )

    def supported_configs(self) -> Sequence[HardwareConfig]:
        return (HardwareConfig(cpu_cores=1), HardwareConfig(cpu_cores=2))

    def collection(self, name: str) -> VectorCollection:
        """Get (creating if needed) a named collection."""
        if name not in self._collections:
            self._collections[name] = VectorCollection(name)
        return self._collections[name]

    def drop_collection(self, name: str) -> None:
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        """The names of the collections held now."""
        return list(self._collections)

    def estimate(
        self,
        work: WorkUnit,
        config: HardwareConfig,
        mode: ExecutionMode = SEQUENTIAL_MODE,
    ) -> ExecutionEstimate:
        if config.is_gpu:
            raise ValueError("the vector database runs on CPU only")
        operation = str(work.get("operation", "insert"))
        per_item = self.seconds_per_query if operation == "query" else self.seconds_per_insert
        items = max(work.quantity, 1.0)
        return ExecutionEstimate(
            seconds=per_item * items, gpu_utilization=0.0, cpu_utilization=0.5
        )

    def execute(
        self,
        work: WorkUnit,
        config: HardwareConfig,
        mode: ExecutionMode = SEQUENTIAL_MODE,
    ) -> AgentResult:
        operation = str(work.get("operation", "insert"))
        collection = self.collection(str(work.get("collection", "default")))
        if operation == "insert":
            texts = work.get("texts") or []
            embeddings = work.get("embeddings") or []
            metadata = work.get("metadata") or [{} for _ in texts]
            for index, (text, vector) in enumerate(zip(texts, embeddings)):
                collection.insert(
                    VectorRecord(
                        record_id=f"{collection.name}-{len(collection)}",
                        vector=np.asarray(vector, dtype=np.float64),
                        text=str(text),
                        metadata=dict(metadata[index]) if index < len(metadata) else {},
                    )
                )
            output = {"operation": "insert", "collection": collection.name, "size": len(collection)}
        elif operation == "query":
            query_vector = np.asarray(work.get("query_vector"), dtype=np.float64)
            top_k = int(work.get("top_k", 3))
            matches = collection.query(query_vector, top_k=top_k)
            output = {
                "operation": "query",
                "collection": collection.name,
                "matches": [
                    {"text": record.text, "score": score, "metadata": record.metadata}
                    for record, score in matches
                ],
            }
        else:
            raise ValueError(f"unknown vector-db operation: {operation!r}")
        return AgentResult(
            agent_name=self.name, interface=self.interface, output=output, quality=self.quality
        )
