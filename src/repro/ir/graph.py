"""Operator graphs: DAGs of tensor operators connected by shared tensors.

A graph owns a set of operators; an edge exists from producer ``p`` to
consumer ``q`` whenever ``p.output`` is one of ``q.inputs`` (the *same*
:class:`~repro.ir.tensor.Tensor` object / name).  Tensors produced by one
operator and consumed by another are *intermediate* tensors; these are the
fusion candidates, because a fused dataflow can keep them on-chip and elide
their memory traffic entirely (paper Fig. 1).

The graph also identifies *chains*: maximal linear producer/consumer runs
whose intermediate tensors have exactly one consumer.  Operator fusion in
the paper is applied along such chains; :mod:`repro.plan` segments each
one by dynamic programming and also plans across joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .operator import TensorOperator
from .tensor import Tensor


class GraphError(ValueError):
    """Raised for malformed operator graphs."""


@dataclass
class OperatorGraph:
    """A DAG of tensor operators.

    Operators are added with :meth:`add`; edges are inferred from tensor
    names shared between one operator's output and another's inputs.
    """

    name: str = "graph"
    _operators: Dict[str, TensorOperator] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, operator: TensorOperator) -> TensorOperator:
        """Add an operator; returns it for chaining."""
        if operator.name in self._operators:
            raise GraphError(f"duplicate operator name {operator.name!r}")
        producer = self._producer_of(operator.output.name)
        if producer is not None:
            raise GraphError(
                f"tensor {operator.output.name!r} already produced by "
                f"{producer.name!r}"
            )
        self._operators[operator.name] = operator
        return operator

    def extend(self, operators: Iterable[TensorOperator]) -> None:
        for operator in operators:
            self.add(operator)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def operators(self) -> Tuple[TensorOperator, ...]:
        return tuple(self._operators.values())

    def __len__(self) -> int:
        return len(self._operators)

    def __iter__(self) -> Iterator[TensorOperator]:
        return iter(self._operators.values())

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def operator(self, name: str) -> TensorOperator:
        try:
            return self._operators[name]
        except KeyError:
            raise GraphError(f"no operator named {name!r}") from None

    def _producer_of(self, tensor_name: str) -> Optional[TensorOperator]:
        for operator in self._operators.values():
            if operator.output.name == tensor_name:
                return operator
        return None

    def producer(self, tensor_name: str) -> Optional[TensorOperator]:
        """The operator producing the named tensor, or ``None`` if external."""
        return self._producer_of(tensor_name)

    def consumers(self, tensor_name: str) -> Tuple[TensorOperator, ...]:
        """All operators consuming the named tensor."""
        return tuple(
            operator
            for operator in self._operators.values()
            if any(tensor.name == tensor_name for tensor in operator.inputs)
        )

    def successors(self, operator: TensorOperator) -> Tuple[TensorOperator, ...]:
        return self.consumers(operator.output.name)

    def predecessors(self, operator: TensorOperator) -> Tuple[TensorOperator, ...]:
        result = []
        for tensor in operator.inputs:
            producer = self._producer_of(tensor.name)
            if producer is not None:
                result.append(producer)
        return tuple(result)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def intermediate_tensors(self) -> Tuple[Tensor, ...]:
        """Tensors produced by one operator and consumed by another."""
        result = []
        for operator in self._operators.values():
            if self.consumers(operator.output.name):
                result.append(operator.output)
        return tuple(result)

    def external_tensors(self) -> Tuple[Tensor, ...]:
        """Graph inputs (never produced) and outputs (never consumed)."""
        produced = {op.output.name for op in self._operators.values()}
        seen: Dict[str, Tensor] = {}
        for operator in self._operators.values():
            for tensor in operator.inputs:
                if tensor.name not in produced:
                    seen.setdefault(tensor.name, tensor)
            if not self.consumers(operator.output.name):
                seen.setdefault(operator.output.name, operator.output)
        return tuple(seen.values())

    def topological_order(self) -> Tuple[TensorOperator, ...]:
        """Operators in dependency order; raises on cycles."""
        in_degree = {op.name: len(self.predecessors(op)) for op in self}
        ready = [op for op in self if in_degree[op.name] == 0]
        ordered: List[TensorOperator] = []
        while ready:
            operator = ready.pop(0)
            ordered.append(operator)
            for successor in self.successors(operator):
                in_degree[successor.name] -= 1
                if in_degree[successor.name] == 0:
                    ready.append(successor)
        if len(ordered) != len(self._operators):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        return tuple(ordered)

    def chains(self) -> Tuple[Tuple[TensorOperator, ...], ...]:
        """Maximal linear chains along single-consumer intermediate tensors.

        A chain is a sequence ``op_1 -> op_2 -> ... -> op_n`` where each
        ``op_i.output`` is consumed only by ``op_{i+1}`` and operators with
        repeated instances (``count``) match their neighbor's count (fusing
        operators with different repetition factors is not meaningful).
        Every operator appears in exactly one chain (possibly of length 1).

        Behavior at branch points (deliberate: these chains are the
        decomposition of :func:`repro.plan.partition.optimize_graph`, the
        chain baseline that :mod:`repro.plan` reports next to its plans):

        * **Fan-out** -- an output with two or more consumers ends the
          chain at its producer; every consumer starts (or continues)
          its own chain.  The fan-out tensor is never elidable by
          fusion, so truncating there loses nothing a chain planner
          could have used.
        * **Join** -- an operator drawing produced inputs from more than
          one producer starts its own chain, even when one incoming edge
          is a single-consumer link: a linear chain cannot contain both
          producers, and this detector refuses to pick a side.  The DAG
          planner (:func:`repro.plan.partition.plan_dag`) relaxes exactly
          this rule by searching every choice of one in-link per join.
        * **Count mismatch** -- neighbors with different repetition
          factors never link, regardless of consumer multiplicity.

        The decomposition is deterministic: operators are visited in
        :meth:`topological_order` (itself deterministic -- Kahn's
        algorithm over insertion order), so identical graphs always
        yield identical chain tuples.
        """

        def links_to(a: TensorOperator, b: TensorOperator) -> bool:
            consumers = self.consumers(a.output.name)
            return (
                len(consumers) == 1
                and consumers[0] is b
                and a.count == b.count
            )

        ordered = self.topological_order()
        assigned: Set[str] = set()
        chains: List[Tuple[TensorOperator, ...]] = []
        for operator in ordered:
            if operator.name in assigned:
                continue
            chain = [operator]
            assigned.add(operator.name)
            current = operator
            while True:
                nexts = [
                    successor
                    for successor in self.successors(current)
                    if successor.name not in assigned and links_to(current, successor)
                ]
                if len(nexts) != 1:
                    break
                following = nexts[0]
                # The follower must draw all its produced inputs from the chain,
                # otherwise it belongs to a join and starts its own chain.
                produced_inputs = [
                    tensor
                    for tensor in following.inputs
                    if self._producer_of(tensor.name) is not None
                ]
                if any(
                    self._producer_of(tensor.name) is not current
                    for tensor in produced_inputs
                ):
                    break
                chain.append(following)
                assigned.add(following.name)
                current = following
            chains.append(tuple(chain))
        return tuple(chains)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def macs(self) -> int:
        return sum(operator.macs for operator in self)

    def ideal_memory_access(self) -> int:
        """Infinite-buffer lower bound: external tensors once, intermediates free.

        With unlimited on-chip storage intermediates never travel to memory,
        so only graph inputs and outputs are counted (scaled by operator
        repetition counts where they are per-instance operands).
        """

        produced = {op.output.name for op in self._operators.values()}
        total = 0
        for operator in self:
            for tensor in operator.inputs:
                if tensor.name not in produced:
                    total += tensor.size * operator.count
            if not self.consumers(operator.output.name):
                total += operator.output.size * operator.count
        return total
