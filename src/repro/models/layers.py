"""Shape-annotated layer descriptions.

A :class:`Layer` carries everything the analytical cost model needs:
operation type, MAC count, operand footprints and the two parallelism
measures (weight elements for weight-stationary arrays, output elements for
output-stationary arrays).  Constructor helpers (:func:`conv2d`,
:func:`dwconv2d`, :func:`fc`, :func:`lstm`, ...) derive those quantities
from the familiar layer hyper-parameters so the model zoo reads like an
architecture listing.

All tensors are assumed to be 16-bit (2 bytes per element): XR perception
models (gaze, hand pose, depth) are deployed in fp16 on edge accelerators
because aggressive int8 quantization costs accuracy on regression tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes per tensor element (fp16 deployment).
BYTES_PER_ELEMENT = 2


@dataclass(frozen=True)
class Layer:
    """A single schedulable operator.

    Attributes:
        name: layer name, unique within its model.
        op_type: operator category consumed by the cost model
            ("conv", "dwconv", "fc", "lstm", "pool", "eltwise", ...).
        macs: number of multiply-accumulate operations.
        weight_bytes: parameter footprint in bytes.
        input_bytes: input activation footprint in bytes.
        output_bytes: output activation footprint in bytes.
        output_elements: number of output elements (parallelism available to
            an output-stationary array).
        weight_elements: number of weight elements (parallelism available to
            a weight-stationary array).
    """

    name: str
    op_type: str
    macs: int
    weight_bytes: int
    input_bytes: int
    output_bytes: int
    output_elements: int
    weight_elements: int

    def __post_init__(self) -> None:
        if self.macs < 0:
            raise ValueError(f"layer {self.name!r}: macs must be non-negative")
        for field_name in ("weight_bytes", "input_bytes", "output_bytes"):
            if getattr(self, field_name) < 0:
                raise ValueError(
                    f"layer {self.name!r}: {field_name} must be non-negative"
                )
        if self.output_elements <= 0 or self.weight_elements <= 0:
            raise ValueError(
                f"layer {self.name!r}: parallelism measures must be positive"
            )


def _out_dim(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def conv2d(
    name: str,
    height: int,
    width: int,
    in_channels: int,
    out_channels: int,
    kernel: int = 3,
    stride: int = 1,
    padding: int | None = None,
    groups: int = 1,
) -> Layer:
    """A 2-D convolution layer.

    Args:
        name: layer name.
        height, width: input spatial dimensions.
        in_channels, out_channels: channel counts.
        kernel: square kernel size.
        stride: spatial stride.
        padding: zero padding; defaults to "same"-style ``kernel // 2``.
        groups: number of groups (``groups == in_channels`` is a depthwise
            convolution; prefer :func:`dwconv2d` for readability).
    """
    if padding is None:
        padding = kernel // 2
    if in_channels % groups != 0 or out_channels % groups != 0:
        raise ValueError(f"layer {name!r}: channels must be divisible by groups")
    out_h = _out_dim(height, kernel, stride, padding)
    out_w = _out_dim(width, kernel, stride, padding)
    cin_per_group = in_channels // groups
    macs = out_h * out_w * out_channels * cin_per_group * kernel * kernel
    weight_elems = out_channels * cin_per_group * kernel * kernel
    op_type = "dwconv" if groups == in_channels and groups > 1 else "conv"
    return Layer(
        name=name,
        op_type=op_type,
        macs=macs,
        weight_bytes=weight_elems * BYTES_PER_ELEMENT,
        input_bytes=height * width * in_channels * BYTES_PER_ELEMENT,
        output_bytes=out_h * out_w * out_channels * BYTES_PER_ELEMENT,
        output_elements=out_h * out_w * out_channels,
        weight_elements=weight_elems,
    )


def dwconv2d(
    name: str,
    height: int,
    width: int,
    channels: int,
    kernel: int = 3,
    stride: int = 1,
) -> Layer:
    """A depthwise 2-D convolution (one filter per channel, "same" padding)."""
    return conv2d(
        name,
        height,
        width,
        in_channels=channels,
        out_channels=channels,
        kernel=kernel,
        stride=stride,
        groups=channels,
    )


def fc(name: str, in_features: int, out_features: int) -> Layer:
    """A fully-connected (dense) layer."""
    macs = in_features * out_features
    return Layer(
        name=name,
        op_type="fc",
        macs=macs,
        weight_bytes=macs * BYTES_PER_ELEMENT,
        input_bytes=in_features * BYTES_PER_ELEMENT,
        output_bytes=out_features * BYTES_PER_ELEMENT,
        output_elements=out_features,
        weight_elements=macs,
    )


def lstm(name: str, input_size: int, hidden_size: int, seq_len: int = 1) -> Layer:
    """An LSTM layer unrolled over ``seq_len`` time steps.

    The four gates each compute an (input + hidden) x hidden matrix-vector
    product per step; weights are shared across steps so the weight
    footprint does not grow with ``seq_len``.
    """
    macs_per_step = 4 * hidden_size * (input_size + hidden_size)
    weight_elems = 4 * hidden_size * (input_size + hidden_size)
    return Layer(
        name=name,
        op_type="lstm",
        macs=macs_per_step * seq_len,
        weight_bytes=weight_elems * BYTES_PER_ELEMENT,
        input_bytes=input_size * seq_len * BYTES_PER_ELEMENT,
        output_bytes=hidden_size * seq_len * BYTES_PER_ELEMENT,
        output_elements=hidden_size * seq_len,
        weight_elements=weight_elems,
    )


def pool2d(
    name: str,
    height: int,
    width: int,
    channels: int,
    kernel: int = 2,
    stride: int | None = None,
) -> Layer:
    """A pooling layer (max or average; cost-wise identical)."""
    if stride is None:
        stride = kernel
    out_h = _out_dim(height, kernel, stride, 0)
    out_w = _out_dim(width, kernel, stride, 0)
    macs = out_h * out_w * channels * kernel * kernel
    return Layer(
        name=name,
        op_type="pool",
        macs=macs,
        weight_bytes=0,
        input_bytes=height * width * channels * BYTES_PER_ELEMENT,
        output_bytes=out_h * out_w * channels * BYTES_PER_ELEMENT,
        output_elements=max(1, out_h * out_w * channels),
        weight_elements=1,
    )


def eltwise(name: str, height: int, width: int, channels: int) -> Layer:
    """An element-wise operation (residual add, activation, normalization)."""
    elements = height * width * channels
    return Layer(
        name=name,
        op_type="eltwise",
        macs=elements,
        weight_bytes=0,
        input_bytes=2 * elements * BYTES_PER_ELEMENT,
        output_bytes=elements * BYTES_PER_ELEMENT,
        output_elements=elements,
        weight_elements=1,
    )


def conv1d(
    name: str,
    length: int,
    in_channels: int,
    out_channels: int,
    kernel: int = 3,
) -> Layer:
    """A unit-stride 1-D (temporal) convolution with "same" padding (ED-TCN)."""
    out_len = _out_dim(length, kernel, 1, kernel // 2)
    macs = out_len * out_channels * in_channels * kernel
    weight_elems = out_channels * in_channels * kernel
    return Layer(
        name=name,
        op_type="conv",
        macs=macs,
        weight_bytes=weight_elems * BYTES_PER_ELEMENT,
        input_bytes=length * in_channels * BYTES_PER_ELEMENT,
        output_bytes=out_len * out_channels * BYTES_PER_ELEMENT,
        output_elements=out_len * out_channels,
        weight_elements=weight_elems,
    )
