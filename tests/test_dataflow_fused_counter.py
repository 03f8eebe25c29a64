"""The fused counter equals the independent auditor, operator by operator.

On random fused dataflows -- producer/consumer matmul pairs (the
intermediate read as either operand of the consumer), the
matmul -> softmax -> matmul chain, and a pair whose consumer also reads
the producer's input (so a third dim may be shared, an intermediate can be
re-fetched and an input charged differently by its two operators) --
under every shared-loop order, random tiles (untiled ones included) and
both partial-sum conventions:

* ``fused_memory_access`` gives the total and the intermediate
  multipliers of :func:`repro.verify.audit.audit_fused_memory_access`;
* its per-operator NRA classes equal the certifier's independent recount
  (:func:`repro.verify.audit._walk_multiplier` over each operator's loop
  order);
* on a one-operator chain it equals :func:`memory_access` entry for entry,
  in the same per-tensor order, under any split of the loops into shared
  and private ones.
"""

from hypothesis import given, settings, strategies as st

from conftest import DTYPES, mm_like_ops
from repro.dataflow.cost import PartialSumConvention, memory_access
from repro.dataflow.fusion_nest import FusedChain, FusedDataflow, fused_memory_access
from repro.dataflow.scheduling import Schedule
from repro.dataflow.spec import Dataflow, NRAClass
from repro.dataflow.tiling import UNTILED, Tiling
from repro.ir import Tensor, TensorOperator, matmul, rowwise_softmax
from repro.verify.audit import (
    _ceil_div,
    _fused_tiles,
    _op_order,
    _walk_multiplier,
    audit_fused_memory_access,
)

CONVENTIONS = st.sampled_from(tuple(PartialSumConvention))


def tilings(draw, extents):
    """A tile per dim: UNTILED or any size from 1 to the extent."""
    return Tiling({
        dim: draw(st.one_of(st.just(UNTILED), st.integers(1, extent)))
        for dim, extent in extents.items()
    })


def shared_input_pair(m, k, l, p, dtype, count):
    """``C[M,L] = sum_{K,P} A[M,K] * B[K,P,L]`` then
    ``E[M,K] = sum_L C[M,L] * A[M,K]``: M, K and L are common."""
    a = Tensor("A", (m, k), dtype)
    c = Tensor("C", (m, l))
    op1 = TensorOperator(
        name="op1",
        dims={"M": m, "K": k, "L": l, "P": p},
        inputs=(a, Tensor("B", (k, p, l))),
        output=c,
        indexing={"A": ("M", "K"), "B": ("K", "P", "L"), "C": ("M", "L")},
        reduction_dims=frozenset({"K", "P"}),
        count=count,
    )
    op2 = TensorOperator(
        name="op2",
        dims={"M": m, "L": l, "K": k},
        inputs=(c, a),
        output=Tensor("E", (m, k)),
        indexing={"C": ("M", "L"), "A": ("M", "K"), "E": ("M", "K")},
        reduction_dims=frozenset({"L"}),
        count=count,
    )
    return op1, op2


@st.composite
def fused_cases(draw):
    """A 2-op chain or the softmax chain, a legal fused dataflow on it (the
    intermediate's dims shared in any order, the shared-input pair's K
    maybe too, private loops in any order) and a convention."""
    m, k, l, n = draw(st.lists(st.integers(1, 96), min_size=4, max_size=4))
    dtype = draw(DTYPES)
    count = draw(st.integers(1, 3))
    op1 = matmul("mm1", m, k, l, dtype_bytes=dtype, count=count)
    shape = draw(st.sampled_from(("a", "b", "softmax", "shared-input")))
    if shape == "a":
        ops = (op1, matmul("mm2", m, l, n, a=op1.output, count=count))
    elif shape == "b":
        ops = (op1, matmul("mm2", n, m, l, b=op1.output, count=count))
    elif shape == "softmax":
        sm = rowwise_softmax("sm", op1.output, count=count)
        ops = (op1, sm, matmul("mm2", m, l, n, a=sm.output, count=count))
    else:
        ops = shared_input_pair(m, k, l, n, dtype, count)
    chain = FusedChain.from_ops(ops)
    axes = {dim for tensor in chain.intermediates() for dim in chain.tensor_axes(tensor.name)}
    optional = [dim for dim in chain.common_dims if dim not in axes]
    shared = draw(st.permutations(
        sorted(axes) + optional[: draw(st.integers(0, len(optional)))]
    ))
    private_orders = {
        op.name: tuple(draw(st.permutations(
            [dim for dim in chain.op_global_dims(index) if dim not in shared]
        )))
        for index, op in enumerate(chain.ops)
    }
    dataflow = FusedDataflow(
        tuple(shared), private_orders, tilings(draw, chain.global_dims)
    )
    return chain, dataflow, draw(CONVENTIONS)


def certifier_nra(chain, dataflow):
    """The certifier's per-operator NRA recount, from the raw nest."""
    tiles = _fused_tiles(chain, dataflow)
    trips = {
        dim: _ceil_div(extent, tiles[dim])
        for dim, extent in chain.global_dims.items()
    }
    classes = []
    for index, op in enumerate(chain.ops):
        order = _op_order(chain, dataflow, index)
        non_redundant = sum(
            _walk_multiplier(
                order, trips, chain.global_dims_of_tensor(index, tensor.name)
            ) == 1
            for tensor in op.tensors
        )
        classes.append(NRAClass(max(1, min(3, non_redundant))))
    return tuple(classes)


@settings(max_examples=300, deadline=None)
@given(fused_cases())
def test_fused_counter_equals_auditor(case):
    chain, dataflow, convention = case
    report = fused_memory_access(chain, dataflow, convention)
    total, intermediate_multipliers = audit_fused_memory_access(
        chain, dataflow, convention
    )
    assert report.total == total
    assert report.intermediate_multipliers == intermediate_multipliers
    assert report.per_op_nra == certifier_nra(chain, dataflow)
    for name, multiplier in intermediate_multipliers.items():
        entry = report.per_tensor[name]
        assert (entry.accesses, entry.multiplier) == (0, multiplier)


@st.composite
def one_op_cases(draw):
    """An MM-like operator, a loop order split into shared and private
    loops at a random point, random tiles and a convention."""
    operator = draw(mm_like_ops())
    order = tuple(draw(st.permutations(operator.dim_names)))
    split = draw(st.integers(0, len(order)))
    tiling = tilings(draw, operator.dims)
    return operator, order, split, tiling, draw(CONVENTIONS)


@settings(max_examples=300, deadline=None)
@given(one_op_cases())
def test_one_op_chain_equals_memory_access(case):
    operator, order, split, tiling, convention = case
    chain = FusedChain.from_ops([operator])
    dataflow = FusedDataflow(order[:split], {operator.name: order[split:]}, tiling)
    fused = fused_memory_access(chain, dataflow, convention)
    single = memory_access(operator, Dataflow(tiling, Schedule(order)), convention)
    assert list(fused.per_tensor.items()) == list(single.per_tensor.items())
    assert fused.total == single.total
    assert fused.intermediate_multipliers == {}
    assert fused.per_op_nra == (single.nra_class,)
