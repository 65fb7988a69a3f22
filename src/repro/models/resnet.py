"""MiniResNet: a residual CNN in the ResNet50-for-CIFAR mould.

Architecture: conv stem, three stages of residual basic blocks with channel
doubling and stride-2 downsampling, global average pooling, linear head.
All convolutions are :class:`repro.nn.Conv2d`, so the PTQ pass can replace
them with quantized equivalents layer-by-layer.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.tensor.tensor import Tensor
from repro.utils.rng import seeded_rng


class BasicBlock(nn.Module):
    """Two 3x3 conv+BN with identity (or 1x1-projected) skip connection."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = nn.Conv2d(in_ch, out_ch, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(out_ch)
        self.conv2 = nn.Conv2d(out_ch, out_ch, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.proj = nn.Conv2d(in_ch, out_ch, 1, stride=stride, bias=False, rng=rng)
            self.proj_bn = nn.BatchNorm2d(out_ch)
        else:
            self.proj = None
            self.proj_bn = None

    def forward(self, x: Tensor) -> Tensor:
        out = nn.conv_bn(self.conv1, self.bn1, x, relu=True)
        skip = x if self.proj is None else nn.conv_bn(self.proj, self.proj_bn, x)
        return nn.conv_bn(self.conv2, self.bn2, out, residual=skip, relu=True)


class MiniResNet(nn.Module):
    """Residual CNN for 32x32 RGB classification.

    ``width`` scales channel counts (16/32/64 at width=1); ``depth`` is the
    number of basic blocks per stage.
    """

    def __init__(
        self,
        num_classes: int = 10,
        width: int = 1,
        depth: int = 2,
        seed: int = 0,
    ):
        super().__init__()
        #: Constructor arguments, recorded so a deployment artifact can
        #: rebuild an identical topology (see :mod:`repro.deploy`).
        self.arch = {"num_classes": num_classes, "width": width, "depth": depth}
        rng = seeded_rng("miniresnet-init", seed)
        chans = [16 * width, 32 * width, 64 * width]
        self.stem = nn.Conv2d(3, chans[0], 3, stride=1, padding=1, bias=False, rng=rng)
        self.stem_bn = nn.BatchNorm2d(chans[0])
        blocks: list[nn.Module] = []
        in_ch = chans[0]
        for stage, out_ch in enumerate(chans):
            for b in range(depth):
                stride = 2 if (stage > 0 and b == 0) else 1
                blocks.append(BasicBlock(in_ch, out_ch, stride, rng))
                in_ch = out_ch
        self.blocks = nn.ModuleList(blocks)
        self.pool = nn.GlobalAvgPool2d()
        self.head = nn.Linear(in_ch, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = nn.conv_bn(self.stem, self.stem_bn, x, relu=True)
        for block in self.blocks:
            out = block(out)
        return self.head(self.pool(out))
