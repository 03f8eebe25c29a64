"""Training-step workloads: forward + backward GEMMs (extension).

The paper evaluates inference; training triples the GEMM count per layer
(forward, input-gradient, weight-gradient) and creates *new* fusion
chains in the backward pass -- the activation-gradient GEMMs form a
producer/consumer chain through the layer just like the forward pass:

* forward FFN:   ``X W1 = FF``, ``FF W2 = Y``                 (chain)
* input grads:   ``dY W2^T = dFF``, ``dFF W1^T = dX``         (chain)
* weight grads:  ``FF^T dY = dW2``, ``X^T dFF = dW1``         (independent)

Transposes are free at the modeling level (a transposed operand is just a
different dim binding), so each GEMM is a plain :func:`matmul` with the
appropriate shape.  The weight-gradient GEMMs consume ``dFF``/``FF`` as
well, so ``dFF`` has *two* consumers -- the chain detector correctly keeps
the input-gradient chain fusable only when modeled per-consumer; here the
weight-gradient ops read separately-materialized copies (the standard
training dataflow keeps activations checkpointed in memory anyway).
"""

from __future__ import annotations

from ..ir.graph import OperatorGraph
from ..ir.operator import matmul
from .models import ModelConfig


def build_ffn_training_graph(config: ModelConfig) -> OperatorGraph:
    """One FFN block's training step: forward, input-grad and weight-grad.

    Dimensions: tokens ``T = batch * seq``, hidden ``H``, expansion ``F``.
    """

    tokens = config.batch * config.seq_len
    hidden = config.hidden
    ffn_hidden = config.ffn_hidden
    graph = OperatorGraph(name=f"{config.name}-ffn-training")

    # Forward chain: X[T,H] W1[H,F] = FF[T,F]; FF W2[F,H] = Y[T,H].
    fwd1 = graph.add(matmul(f"{config.name}.fwd1", tokens, hidden, ffn_hidden))
    graph.add(
        matmul(f"{config.name}.fwd2", tokens, ffn_hidden, hidden, a=fwd1.output)
    )

    # Input-gradient chain: dY[T,H] W2^T[H,F] = dFF[T,F]; dFF W1^T[F,H] = dX.
    bwd1 = graph.add(matmul(f"{config.name}.dgrad2", tokens, hidden, ffn_hidden))
    graph.add(
        matmul(
            f"{config.name}.dgrad1", tokens, ffn_hidden, hidden, a=bwd1.output
        )
    )

    # Weight gradients: FF^T[F,T] dY[T,H] = dW2[F,H]; X^T[H,T] dFF = dW1[H,F].
    graph.add(matmul(f"{config.name}.wgrad2", ffn_hidden, tokens, hidden))
    graph.add(matmul(f"{config.name}.wgrad1", hidden, tokens, ffn_hidden))
    return graph
