"""Neural-network layer library built on :mod:`repro.tensor`.

Mirrors the familiar torch.nn surface at the scale this reproduction needs:
modules register parameters/buffers/submodules automatically, support
``state_dict``/``load_state_dict`` round-trips, and expose ``train()`` /
``eval()`` modes (BatchNorm and Dropout behave accordingly).
"""

from repro.nn.module import Module, Parameter, swap_modules
from repro.nn.container import Sequential, ModuleList
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm2d, LayerNorm, conv_bn
from repro.nn.activation import ReLU, GELU, Tanh, Identity
from repro.nn.pooling import MaxPool2d, AvgPool2d, GlobalAvgPool2d
from repro.nn.dropout import Dropout
from repro.nn.embedding import Embedding
from repro.nn.attention import MultiHeadAttention
from repro.nn.transformer import TransformerEncoderLayer, TransformerEncoder
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "swap_modules",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "conv_bn",
    "ReLU",
    "GELU",
    "Tanh",
    "Identity",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Embedding",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "init",
]
