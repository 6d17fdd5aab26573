"""GNMT [44] — neural machine translation, cascaded after keyword spotting.

In VR_Gaming and AR_Call the translation model runs at 15 FPS when the
keyword spotter fires (control dependency).  We model a deployment-sized
GNMT: a 4-layer bidirectional-ish LSTM encoder, a 4-layer LSTM decoder with
attention and an output projection, unrolled over a short utterance
(16 source / 16 target tokens).  The model is dominated by large
matrix-vector products, which strongly prefer weight-stationary
accelerators — one of the heterogeneity effects DREAM exploits.
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import fc, lstm


def build_gnmt(
    hidden_size: int = 768,
    src_tokens: int = 16,
    tgt_tokens: int = 16,
) -> ModelGraph:
    """Build the GNMT translation model graph.

    Args:
        hidden_size: LSTM hidden width.
        src_tokens: encoder unroll length.
        tgt_tokens: decoder unroll length.
    """
    # A 32000-token vocabulary sets the embedding and projection widths.
    layers = [
        fc("encoder.embedding", 32000 // 64, hidden_size),
    ]
    for layer_index in range(4):
        layers.append(
            lstm(
                f"encoder.lstm{layer_index}",
                input_size=hidden_size,
                hidden_size=hidden_size,
                seq_len=src_tokens,
            )
        )
    for layer_index in range(4):
        layers.append(
            lstm(
                f"decoder.lstm{layer_index}",
                input_size=hidden_size if layer_index else hidden_size * 2,
                hidden_size=hidden_size,
                seq_len=tgt_tokens,
            )
        )
    layers.append(fc("decoder.attention", hidden_size * 2, hidden_size))
    layers.append(fc("decoder.projection", hidden_size, 32000 // 8))
    return ModelGraph(
        name="gnmt",
        layers=tuple(layers),
        metadata={
            "source": "Wu et al., 2016 (GNMT), deployment-sized",
            "task": "translation",
            "input": f"{src_tokens} tokens",
        },
    )
