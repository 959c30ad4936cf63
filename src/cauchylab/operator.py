"""Truncated and principal-value Cauchy integrals by quadrature.

The operator applied to a sampled function is a plain midpoint-rule sum
of ``h K(x, y) f(y)`` over grid nodes ``y``.  The singularity at ``y = x``
is handled by masking, not analytically: each sum takes one radius ``t``
and drops the nodes with ``|y - x| <= t``.

* truncated integrals use their radius ``t``, so they sum the nodes with
  ``|x - y| > t``;
* the principal value uses a millionth of a step, so it sums every node
  that does not coincide with ``x``.

On a uniform grid the nodes at ``x + s`` and ``x - s`` carry exactly
opposite leading singular parts, so grouping them in pairs cancels the
odd singularity with no curve-specific closed form.  Pairing only
reorders the summed terms, never changes their set, so the masked sum is
the symmetric principal value up to rounding.

For the pairing to be exact the evaluation point must sit on the node
lattice or the half-step midpoint lattice of the grid.  Operator outputs
are therefore evaluated on the midpoint lattice, where no evaluation
point can ever collide with a quadrature node; misaligned points are
rejected with regrid guidance rather than silently mistreated, and
non-finite points are rejected outright.

``pv_values`` and ``truncated_values`` share one summation primitive,
``_masked_sums``, with three backends chosen from the inputs alone, in
this order:

* Toeplitz FFT: on a flat or affine graph with every target on the node
  lattice, or every target on the midpoint lattice, the kernel depends
  only on the lattice offset, so one FFT correlation gives every sum.  It
  runs when no offset lies within rounding of ``-t`` or ``t`` and the
  padded FFT costs less than the dense sum.  It sums the dense set of
  terms in another order.  The kernel row's spectrum depends only on
  ``(width, k0, h, t)``, the lattice geometry and the radius, so it is
  computed once per such tuple and kept in a cache of ``_SPECTRA``
  entries.  That saves work only where a spectrum is asked for again:
  a commutator's second pass, or another call on the same grid, target
  lattice and radius; a call on a new grid or radius computes it as
  before.  A spectrum longer than ``_KEPT_SIZE`` is not kept, which
  bounds the cache at about 4 MB.  A cached spectrum is read-only, so a
  hit gives the bits a miss computes.
* Multipole tree: any graph, when ``_tree_pays`` estimates that it does
  less work than the dense sum.  The estimate counts what each backend
  does with these inputs: dense one kernel pair per node and target; the
  tree its moments at every level it can use (the root alone when no
  target is near the nodes), a walk to the leaves for each near target
  and one series for each far one, where only the arithmetic, not the
  walk, grows with the block width.  So small grids evaluated far away,
  as the non-compactness witnesses and the homogeneity check do, go to the
  tree.  ``1 / (z_y - z_x)`` is the 2-D Cauchy kernel of the fast multipole
  method (Greengard and Rokhlin, J. Comput. Phys. 73 (1987); Barnes and
  Hut, Nature 324 (1986)).  A binary tree over the sorted nodes sums each
  box far from a target by its multipole series about the box centre and
  every other node by the dense backend's ``_kernel_sums``.  Targets walk
  it in blocks of ``_TREE_BLOCK``; a level's boxes are set up the first
  time the walk reaches it, and its moments the first time a far box of
  that level is summed.  It keeps the dense set of summed terms; a far box
  differs from its dense sum by the dropped series tail, at most
  ``2^-53 sum |w| / |z_x - c|`` for weights ``w`` and box centre ``c``,
  plus rounding.
* Dense: every other input, by cache-sized chunks of the kernel matrix
  in real arithmetic.  It is the oracle both others are tested against,
  and the path for small inputs.

Every sum takes one function or a block of ``c`` functions on one grid
(``values`` of shape ``(n,)`` or ``(n, c)``, see ``sampling``) and returns
``(len(xs),)`` or ``(len(xs), c)``.  The backends sum real weight columns
only.  ``_masked_sums`` is the one place that splits complex values: a
real block ``V`` reaches the backends as its ``c`` columns, without a
copy, and a complex one as the ``2 c`` columns ``[Re V, Im V]``, whose
sums it joins back as ``S[:, :c] + 1j S[:, c:]``.  A block costs one pass:
the dense backend builds each kernel chunk once and multiplies it by all
weight columns, the tree backend walks each target down the tree once for
all columns, and the FFT backend transforms all columns in one batched
call.  On a curved graph building the chunk, not the product, is the
cost, so a family of test functions is applied as one block.  The
commutator ``b C(F) - C(b F)`` is two passes, one per term, whatever the
width of ``F``.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .curve import LipschitzCurve, ProfileKind, eval_A
from .errors import GridAlignmentError, InputError
from .kernel import CauchyKernel
from .sampling import ALIGNMENT_TOL, Interval, SampledFunction, _finite

# Cap on elements per kernel-matrix chunk of the dense backend; chunks
# this size stay in cache, which is faster than larger ones.
_CHUNK_ELEMENTS = 32_768
# FFT work per ``size * log2(size)`` relative to dense work per pair,
# used to pick the Toeplitz backend only where it is cheaper.
_FFT_COST = 4
# Tree backend.  A box of radius ``rho`` and centre ``c`` is summed by its
# series at ``z_x`` when ``rho < _THETA |z_x - c|``; the series order makes
# the dropped tail at most 2^-53 of ``sum |w| / |z_x - c|``, which takes
# ``_ORDER`` terms at the opening ratio itself.
_THETA = 0.5
_LOG_EPS = -53.0 * np.log(2.0)
_ORDER = 53
# Nodes per leaf box; leaf sums are dense.
_LEAF = 32
# The work ``_tree_pays`` counts for each backend, in units of one dense
# kernel pair, as (shared by a block's columns, added per real weight
# column).  The kernel build and the tree walk are shared; dense's matrix
# products and the tree's moment, leaf and series arithmetic are per column.  Fitted once
# (2-core x86-64, numpy 2.4) on a sawtooth graph: 64-8192 nodes against
# 128-8192 targets inside, beside, spread around and far from the nodes,
# 1-32 columns; the choice came within 2% of the faster backend's total.
_COST = {
    "dense_pair": (1.0, 0.043),
    "tree_node_level": (40.0, 3.0),   # box moments, per node and level
    "tree_near_level": (50.0, 43.0),  # box visits and leaf pairs, per near target and level
    "tree_far": (52.0, 11.0),         # one series, per target whose root box is far
}
# Far-field (target, box) pairs summed per Horner pass.
_FAR_PAIRS = 2048
# Targets per tree walk.  A block's walk, leaf and far-pair index arrays
# grow with it: one unblocked walk of 32767 midpoints over 32768 sawtooth
# nodes peaked 24 MB higher than blocks of 2048, which were also faster
# than blocks of 512.
_TREE_BLOCK = 2048
# Toeplitz kernel spectra kept by ``_kernel_spectrum``.  One grid and target
# lattice needs one per radius ``t``: the principal value, which both passes
# of a commutator share, and each truncation radius in use.
_SPECTRA = 4
# The longest padded FFT whose spectrum is kept.  One costs 16 (size / 2 + 1)
# bytes, so four stay under 4.2 MB; every grid of the default CLI runs
# (at most 65536 with ``--convergence``) fits.
_KEPT_SIZE = 1 << 17


def _points(xs) -> np.ndarray:
    """Evaluation points as a 1-d float array; other shapes and non-finite points raise."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim > 1:
        raise InputError(f"evaluation points must be one-dimensional, got shape {xs.shape}")
    return _finite(np.atleast_1d(xs), "evaluation point")


def _check_alignment(xs: np.ndarray, f: SampledFunction) -> None:
    """Reject the first point that is near the grid but off its lattices.

    Points far from the grid are free; every other point must sit on the
    node or the half-step midpoint lattice.
    """
    h = f.step
    free = (xs < f.lower - 1.5 * h) | (xs > f.upper + 1.5 * h)
    s = (xs - f.origin) / h
    frac = s - np.floor(s)
    aligned = ((frac < ALIGNMENT_TOL) | (frac > 1.0 - ALIGNMENT_TOL)
               | (np.abs(frac - 0.5) < ALIGNMENT_TOL))
    bad = np.flatnonzero(~(free | aligned))
    if bad.size:
        i = bad[0]
        raise GridAlignmentError(
            f"evaluation point {float(xs[i])} sits {float(frac[i]):.3g} steps past a "
            "node; principal values need a node or half-step midpoint, regrid the "
            "input or move the point onto origin + (i + 1/2) * step"
        )


def pv_values(kernel: CauchyKernel, f: SampledFunction, xs) -> np.ndarray:
    """Principal values at many aligned points, vectorized.

    Every point must be finite and sit on a node, on a midpoint, or far
    from the grid.  The sum runs over all non-coincident nodes, which
    equals the symmetric-pair principal value up to summation order.
    Returns ``(len(xs),)`` for one function, ``(len(xs), c)`` for a block.
    """
    xs = _points(xs)
    _check_alignment(xs, f)
    return _masked_sums(kernel, f, xs, 0.5 * f.step * 1e-6)


def truncated_values(kernel: CauchyKernel, f: SampledFunction, xs, t: float) -> np.ndarray:
    """Truncated integrals at many finite points, vectorized; shapes as ``pv_values``."""
    radius = np.asarray(t)
    if radius.ndim or radius.dtype.kind not in "iuf" or not radius > 0:
        raise InputError(f"truncation radius must be a positive real scalar, got {t!r}")
    return _masked_sums(kernel, f, _points(xs), float(radius))


def _masked_sums(kernel: CauchyKernel, f: SampledFunction, xs: np.ndarray,
                 t: float) -> np.ndarray:
    """Sums of ``h K(x, y) f(y)`` over the nodes with ``|y - x| > t``.

    This is the one rule for the nodes a kernel sum drops: every backend
    drops ``|y - x| <= t`` for the float difference ``y - x``.  ``f`` is one
    function or a block; the result has one row per point and, for a
    block, one column per function.  The backend is the first of the
    Toeplitz FFT (unless ``_toeplitz_sums`` declines), the tree (when
    ``_tree_pays``) and the dense sum, as the module docstring describes.
    Each sums real weight columns ``W``: the ``(n, c)`` values ``V`` when
    real, ``[Re V, Im V]`` when complex, whose sums ``S`` are joined back
    as ``S[:, :c] + 1j S[:, c:]``.
    """
    V = f.values.reshape(f.count, -1)
    c = V.shape[1]
    W = np.concatenate([V.real, V.imag], axis=1) if np.iscomplexobj(V) else V
    S = _toeplitz_sums(kernel.curve, f, W, xs, t)
    if S is None:
        backend = _tree_sums if _tree_pays(f, W, xs) else _dense_sums
        S = backend(kernel.curve, f, W, xs, t)
    if W is not V:
        S = S[:, :c] + 1j * S[:, c:]
    return S.reshape(xs.shape + f.values.shape[1:])


def _dense_sums(curve: LipschitzCurve, f: SampledFunction, W: np.ndarray, xs: np.ndarray,
                t: float) -> np.ndarray:
    """``h * sum K(x, y) W(y)`` over the nodes ``y`` of ``f`` with ``|y - x| > t``, by chunks.

    ``W`` holds ``k`` real weight columns, one row per node (see
    ``_masked_sums``); the result is ``(len(xs), k)`` and complex.  Each
    chunk of the kernel matrix is built once by ``_kernel_sums`` and applied
    to ``W`` by two real matrix products, one per plane.  ``A`` is
    evaluated once per call, at the nodes and at every target.
    """
    nodes = f.nodes
    A_nodes = np.asarray(eval_A(curve, nodes), dtype=float)
    A_xs = np.asarray(eval_A(curve, xs), dtype=float)
    out = np.empty((xs.size, W.shape[1]), dtype=np.complex128)
    rows = max(1, _CHUNK_ELEMENTS // nodes.size)
    parts = [slice(a, a + rows) for a in range(0, xs.size, rows)]
    chunks = ((nodes, A_nodes, xs[p], A_xs[p], lambda M: M @ W) for p in parts)
    for p, (re, im) in zip(parts, _kernel_sums(chunks, t)):
        out.real[p], out.imag[p] = re, im
    out *= f.step
    return out


def _kernel_sums(chunks, t: float):
    """Yield ``Re`` and ``Im`` of ``sum K(x, y) W(y)`` per chunk ``(y, A(y), x, A(x), apply)``.

    One row per target ``x``; ``y`` is shared or one row per target.  The planes
    ``D / (D^2 + dA^2)`` and ``dA / (D^2 + dA^2)``, for ``D = y - x`` and
    ``dA = A(x) - A(y)``, are ``Re K`` and ``Im K``, zero where ``|D| <= t``;
    ``apply`` multiplies one by the real weight columns ``W``.
    The first chunk is the largest.  Its float and mask buffers are allocated once
    and every chunk is filled into them with ``out=``, so the time does not depend
    on where malloc places per-chunk temporaries (freeing and refaulting them once
    doubled the dense time).
    """
    floats = flags = None
    for y, A_y, x, A_x, apply in chunks:
        shape = (x.size, np.shape(y)[-1])
        size = shape[0] * shape[1]
        if floats is None:
            floats, flags = np.empty((4, size)), np.empty(size, dtype=bool)
        D, dA, inv, sq = (b[:size].reshape(shape) for b in floats)
        mask = flags[:size].reshape(shape)
        np.subtract(y, x[:, None], out=D)
        np.subtract(A_x[:, None], A_y, out=dA)
        np.greater(np.abs(D, out=sq), t, out=mask)
        np.multiply(D, D, out=inv)
        inv += np.multiply(dA, dA, out=sq)
        np.divide(1.0, inv, out=inv, where=mask)
        inv *= mask
        D *= inv
        dA *= inv
        yield apply(D), apply(dA)


def _tree_pays(f: SampledFunction, W: np.ndarray, xs: np.ndarray) -> bool:
    """Whether the tree backend is estimated cheaper than dense for ``W`` at ``xs``.

    Dense work is one kernel pair per node and target.  A target within one
    node span of the span's midpoint is near and walks every level to the
    leaves, while any other target is summed by the root box's series.  The
    tree builds moments for every node at each level a far pair uses: every
    level when some target is near, the root alone when none is.  Each count
    is weighted by its ``_COST`` row for the ``c`` real weight columns of ``W``
    on the nodes of ``f``.
    """
    n, m, c = f.count, xs.size, W.shape[1]
    span = f.upper - f.lower
    near = int(np.count_nonzero(np.abs(xs - (f.lower + 0.5 * span)) <= span))
    levels = (-(-n // _LEAF) - 1).bit_length() + 1 if near else 1

    def work(item: str, count: int) -> float:
        shared, per_column = _COST[item]
        return (shared + per_column * c) * count

    return (work("tree_node_level", levels * n) + work("tree_near_level", levels * near)
            + work("tree_far", m - near)) < work("dense_pair", n * m)


def _series_order(r: np.ndarray) -> np.ndarray:
    """Smallest ``p`` with ``r^(p+1) / (1 - r) <= 2^-53``, for ``0 <= r <= _THETA``."""
    r = np.maximum(r, 1e-300)
    p = np.ceil((_LOG_EPS + np.log1p(-r)) / np.log(r)) - 1.0
    return np.clip(p, 0, _ORDER).astype(np.int64)


def _tree_sums(curve: LipschitzCurve, f: SampledFunction, W: np.ndarray, xs: np.ndarray,
               t: float) -> np.ndarray:
    """The sums of ``_dense_sums`` by a binary multipole tree over the nodes.

    Level ``l`` of the tree splits the nodes into boxes of ``_LEAF 2^(L - l)``
    consecutive nodes (the last box of a level may be shorter), so box ``b``
    has children ``2 b`` and ``2 b + 1`` one level down and the leaves hold
    at most ``_LEAF`` nodes.  A box has a centre ``c`` (the midpoint of its
    node span and of its range of ``A``), a radius ``rho``, the largest
    ``|z_y - c|`` over its nodes, and moments
    ``M_k = sum W_y ((z_y - c) / rho)^k`` for ``k <= _ORDER``, scaled so that
    no power overflows or underflows.  ``_tree_levels`` sets up a level's
    spans, centres and radii the first time the walk reaches it, and sums
    its moments directly from the nodes, with no translation between levels,
    the first time a far pair uses it; both are kept for the rest of the
    call.  A call whose targets all lie far from the nodes sets up the root
    alone.

    Targets walk down from the root in blocks of ``_TREE_BLOCK``.  A box
    whose node offsets all lie outside ``[-t, t]`` and which satisfies
    ``rho < _THETA |z_x - c|`` is summed by its series
    ``1 / (z_y - z_x) = -1 / (z_x - c) sum_k ((z_y - c) / (z_x - c))^k``,
    to the order ``_series_order`` gives for that pair's ratio, by Horner's
    rule.  A box whose offsets all lie inside the window is dropped.  Any
    other box is opened, and at the leaves the nodes are summed by
    ``_kernel_sums``, the helper of ``_dense_sums``, so with the same float
    mask and kernel arithmetic.  The offsets of a box are tested at its
    first and last node with the float differences the dense mask compares;
    rounding is monotone, so a box classified whole is kept or dropped
    whole by the dense mask too.  The set of summed terms is therefore
    exactly the dense set, and a far box differs from its dense sum only by
    the series tail, at most 2^-53 of ``sum |w| / |z_x - c|``, plus rounding.
    Each block makes one ``_leaf_sums`` and one ``_far_sums`` call for all
    of its pairs.

    ``A`` is evaluated once at the nodes and once at the targets.
    """
    nodes = f.nodes
    n, c = W.shape
    A_nodes = np.asarray(eval_A(curve, nodes), dtype=float)
    A_xs = np.asarray(eval_A(curve, xs), dtype=float)
    depth = (-(-n // _LEAF) - 1).bit_length()
    weights = np.zeros((_LEAF << depth, c))
    weights[:n] = W
    at = np.minimum(np.arange(weights.shape[0]), n - 1)
    leaf_nodes, leaf_A = nodes[at], A_nodes[at]
    offsets, x_first, x_last, centre, rho, moments, build = _tree_levels(
        nodes, A_nodes, weights, depth)

    out = np.zeros((xs.size, c), dtype=np.complex128)
    for start in range(0, xs.size, _TREE_BLOCK):
        x = xs[start:start + _TREE_BLOCK]
        A_x = A_xs[start:start + _TREE_BLOCK]
        zx = x + 1j * A_x
        acc = out[start:start + _TREE_BLOCK]
        tg = np.arange(x.size)
        bx = np.zeros(x.size, dtype=np.int64)
        far_t, far_g = [], []
        for l in range(depth + 1):
            build(l, False)
            g = bx + offsets[l]
            xt = x[tg]
            d_first = x_first[g] - xt
            d_last = x_last[g] - xt
            far = (((d_last < -t) | (d_first > t))
                   & (rho[g] < _THETA * np.abs(zx[tg] - centre[g])))
            if np.any(far):
                build(l, True)
            far_t.append(tg[far])
            far_g.append(g[far])
            opened = ~far & ~((d_first >= -t) & (d_last <= t))
            tg, bx = tg[opened], bx[opened]
            if l == depth or not tg.size:
                break
            tg = np.repeat(tg, 2)
            bx = (2 * bx[:, None] + np.arange(2)).ravel()
            exists = bx < offsets[l + 2] - offsets[l + 1]
            tg, bx = tg[exists], bx[exists]
        _leaf_sums(leaf_nodes, leaf_A, weights.T, x, A_x, tg, bx, t, acc)
        _far_sums(moments, centre, rho, zx, np.concatenate(far_t), np.concatenate(far_g), acc)
    out *= f.step
    return out


def _tree_levels(nodes: np.ndarray, A_nodes: np.ndarray, weights: np.ndarray, depth: int):
    """Unset per-box arrays of every tree level and ``build(l, far)``, which sets up level ``l``.

    Returns ``offsets``, whose entry ``l`` is the first box of level ``l``
    (and whose last entry is the number of boxes), ``x_first``, ``x_last``,
    ``centre`` and ``rho`` with one entry per box, NaN until the box's level
    is set up, ``moments`` of shape ``(_ORDER + 1, boxes, c)``, zero until
    they are summed, and ``build``.  ``build(l, False)`` sets up level
    ``l``'s spans, centres and radii on its first call; ``build(l, True)``
    also sums its moments on its first call.  Both use the node offsets
    ``z_y - c``, computed in one place: a box's radius is their largest
    modulus, and its moments sum powers of them divided by ``rho``.
    ``weights`` holds the real weight columns padded with zeros to
    ``_LEAF 2^depth`` rows.  The powers are built by chunks of ``chunk``
    nodes, the largest ``_LEAF 2^j`` that keeps a chunk of powers within
    ``_CHUNK_ELEMENTS``; a chunk holds whole boxes or part of one box.  The
    chunk buffers are allocated once and shared by every level.
    """
    n, c = nodes.size, weights.shape[1]
    z = nodes + 1j * A_nodes
    offsets = np.cumsum([0] + [-(-n // (_LEAF << (depth - l))) for l in range(depth + 1)])
    x_first, x_last, rho = np.full((3, offsets[-1]), np.nan)
    centre = np.full(offsets[-1], np.nan, dtype=np.complex128)
    # Pages of levels whose moments are never summed are never touched.
    moments = np.zeros((_ORDER + 1, offsets[-1], c), dtype=np.complex128)
    chunk = min(_LEAF << depth, _LEAF << max(0, (_CHUNK_ELEMENTS // (_LEAF * (_ORDER + 1)))
                                            .bit_length() - 1))
    u = np.zeros(_LEAF << depth, dtype=np.complex128)
    powers = np.empty((_ORDER + 1, chunk), dtype=np.complex128)
    powers[0] = 1.0
    planes = np.empty((2, _ORDER + 1, chunk))
    boxed, summed = set(), set()

    def build(l: int, far: bool) -> None:
        if l in summed or (l in boxed and not far):
            return
        size = _LEAF << (depth - l)
        boxes = slice(offsets[l], offsets[l + 1])
        starts = np.arange(0, n, size)
        if l not in boxed:
            x_first[boxes] = nodes[starts]
            x_last[boxes] = nodes[np.minimum(starts + size, n) - 1]
            centre[boxes] = 0.5 * (x_first[boxes] + x_last[boxes]) + 0.5j * (
                np.minimum.reduceat(A_nodes, starts) + np.maximum.reduceat(A_nodes, starts))
        offset = np.subtract(z, np.repeat(centre[boxes], size)[:n], out=u[:n])
        if l not in boxed:
            boxed.add(l)
            rho[boxes] = np.maximum.reduceat(np.abs(offset), starts)
        if not far:
            return
        summed.add(l)
        # A box of radius 0 holds nodes at its centre, whose offsets are 0.
        r = np.repeat(rho[boxes], size)[:n]
        np.divide(offset, r, out=offset, where=r > 0)
        # The products run in real arithmetic, [Re p; Im p] @ W, on the real
        # matrix kernels the dense backend uses.
        group = min(size, chunk)
        for a in range(0, n, chunk):
            for k in range(1, _ORDER + 1):
                np.multiply(powers[k - 1], u[a:a + chunk], out=powers[k])
            planes[0] = powers.real
            planes[1] = powers.imag
            part = np.matmul(planes.reshape(2 * (_ORDER + 1), -1, group).transpose(1, 0, 2),
                             weights[a:a + chunk].reshape(-1, group, c))
            b0 = boxes.start + a // size
            b1 = min(b0 + part.shape[0], boxes.stop)
            box = moments[:, b0:b1]
            box.real += part[:b1 - b0, :_ORDER + 1].transpose(1, 0, 2)
            box.imag += part[:b1 - b0, _ORDER + 1:].transpose(1, 0, 2)

    return offsets, x_first, x_last, centre, rho, moments, build


def _leaf_sums(nodes: np.ndarray, A_nodes: np.ndarray, W: np.ndarray, x: np.ndarray,
               A_x: np.ndarray, tg: np.ndarray, leaf: np.ndarray, t: float,
               acc: np.ndarray) -> None:
    """Add to ``acc[tg]`` the dense sums over the nodes of leaf ``leaf``, pair by pair.

    ``W`` holds the real weight columns as rows.  The nodes and ``W`` are
    padded to whole leaves: the last node repeated, with weight 0.
    """
    rows = max(1, _CHUNK_ELEMENTS // (4 * _LEAF))
    parts = [slice(a, a + rows) for a in range(0, tg.size, rows)]

    def chunk(p):
        idx = leaf[p, None] * _LEAF + np.arange(_LEAF)
        G = np.stack([w[idx] for w in W])  # one contiguous (rows, _LEAF) plane per column
        return (nodes[idx], A_nodes[idx], x[tg[p]], A_x[tg[p]],
                lambda M: np.einsum("rs,jrs->rj", M, G))

    for p, (re, im) in zip(parts, _kernel_sums(map(chunk, parts), t)):
        np.add.at(acc, tg[p], re + 1j * im)


def _far_sums(moments: np.ndarray, centre: np.ndarray, rho: np.ndarray, zx: np.ndarray,
              tg: np.ndarray, g: np.ndarray, acc: np.ndarray) -> None:
    """Add to ``acc[tg]`` the series sums of the boxes ``g``, by Horner's rule.

    Pairs are sorted by falling order, so the pairs still summing at order
    ``k`` are a prefix; each (pair, column) is one entry of a flat array.
    """
    c = acc.shape[1]
    flat = moments.reshape(_ORDER + 1, -1)
    for start in range(0, tg.size, _FAR_PAIRS):
        t = tg[start:start + _FAR_PAIRS]
        b = g[start:start + _FAR_PAIRS]
        zc = zx[t] - centre[b]
        u = rho[b] / zc
        p = _series_order(np.abs(u))
        order = np.argsort(-p, kind="stable")
        t, b, zc, u, p = t[order], b[order], zc[order], u[order], p[order]
        live = c * np.searchsorted(-p, -np.arange(_ORDER + 1), side="right")
        at = (b[:, None] * c + np.arange(c)).ravel()
        u = np.repeat(u, c)
        S = np.zeros(t.size * c, dtype=np.complex128)
        for k in range(int(p[0]), -1, -1):
            a = live[k]
            S[:a] *= u[:a]
            S[:a] += flat[k].take(at[:a])
        S = S.reshape(-1, c)
        S /= -zc[:, None]
        np.add.at(acc, t, S)


def _toeplitz_sums(curve: LipschitzCurve, f: SampledFunction, W: np.ndarray, xs: np.ndarray,
                   t: float) -> Optional[np.ndarray]:
    """The sums of ``_dense_sums`` by one FFT correlation, or None.

    On a flat graph a target ``x = origin + (k + par/2) h`` on the node
    (``par = 0``) or midpoint (``par = 1``) lattice sees the node ``j``
    at offset ``(j - k - par/2) h``, so the kernel matrix is Toeplitz:
    ``W`` is correlated with ``1 / (d - par/2)`` over the kept offsets.
    An affine graph of slope ``s`` multiplies the flat kernel by
    ``1 / (1 + i s)``.  The real weight columns ``W`` go through real FFTs
    in one batched call, so a real column on a flat graph gives an exactly
    real result.

    Returns None, leaving the input to the dense backend, when the curve
    is curved, the targets are empty, mixed or off-lattice, a lattice
    offset lies within rounding of ``-t`` or ``t`` (where the dense float
    comparison decides), or the padded length makes the FFT dearer than
    the dense sum.
    """
    if curve.kind is ProfileKind.FLAT:
        factor = 1.0
    elif curve.kind is ProfileKind.AFFINE:
        factor = 1.0 / (1.0 + 1j * curve.params[0])
    else:
        return None
    n, h = f.count, f.step
    if xs.size == 0:
        return None
    # Coordinates carry rounding relative to their magnitude, not to h;
    # where that rounding is not far below a step, the lattice is blurred.
    tol = 64.0 * np.finfo(float).eps * (max(abs(f.lower), abs(f.upper),
                                           float(np.max(np.abs(xs)))) + h)
    if not tol < ALIGNMENT_TOL * h:
        return None
    q = np.round(2.0 * (xs - f.origin) / h)
    if not np.all(np.abs(f.origin + 0.5 * h * q - xs) <= tol):
        return None
    q = q.astype(np.int64)
    par = int(q[0]) & 1
    if np.any((q & 1) != par):
        return None
    k = (q - par) // 2
    k_lo, k_hi = int(k.min()), int(k.max())
    width = n + k_hi - k_lo
    size = 1 << (width - 1).bit_length()
    if _FFT_COST * size * size.bit_length() >= n * xs.size:
        return None
    # Offset of node j from target k_hi - r is (j + r - k0) h.
    k0 = k_hi + 0.5 * par
    for edge in (-t, t):
        j = np.rint(edge / h + k0)  # the lattice offset nearest the edge
        if 0 <= j < width and abs((j - k0) * h - edge) <= 2.0 * tol:
            return None
    spectrum = _kernel_spectrum if size <= _KEPT_SIZE else _kernel_spectrum.__wrapped__
    kern_hat = spectrum(width, k0, h, t, size)
    # One contiguous row per weight column; a single column is not copied.
    rows = np.fft.irfft(np.conj(np.fft.rfft(np.ascontiguousarray(W.T), size)) * kern_hat, size)
    out = np.zeros((xs.size, W.shape[1]), dtype=np.complex128)
    out.real = rows.take(k_hi - k, axis=-1).T
    return out * factor


@functools.lru_cache(maxsize=_SPECTRA)
def _kernel_spectrum(width: int, k0: float, h: float, t: float, size: int) -> np.ndarray:
    """``rfft`` of the Toeplitz kernel row ``1 / (j - k0)`` over ``width`` offsets, read-only.

    Offset ``j`` is kept where ``|(j - k0) h| > t`` and is zero elsewhere; the
    row is zero-padded to ``size``, the FFT length of ``_toeplitz_sums``.  The
    row depends on the lattice geometry and ``t`` alone, so every pass on one
    grid and target lattice reuses one spectrum.  The array is shared by every
    caller, so it is read-only and a cache hit gives the bits a miss computes.
    """
    m = np.arange(width) - k0
    keep = np.abs(m * h) > t
    kern = np.zeros(width)
    np.divide(1.0, m, out=kern, where=keep)
    spectrum = np.fft.rfft(kern, size)
    spectrum.flags.writeable = False
    return spectrum


def _on_window(f: SampledFunction, window: Interval, values) -> SampledFunction:
    """``values`` as a function on the midpoint lattice of ``f`` in ``window``.

    The one place that takes an operator's output points: the midpoints
    of the input grid, which guarantee no collision with its nodes.  Outputs
    are evaluated at the output grid's own ``nodes``, the points they are reported at.
    """
    xs = f.midpoints_in(window)
    if xs.size == 0:
        raise InputError("evaluation window contains no midpoint-lattice points")
    out = SampledFunction(float(xs[0]), f.step, np.zeros(xs.size))
    return out.with_values(values(out.nodes))


def apply_on_window(kernel: CauchyKernel, f: SampledFunction,
                    window: Interval) -> SampledFunction:
    """Operator output on the midpoint lattice of the input grid.

    The true output has unbounded support, so the caller declares the
    window; half-step evaluation points guarantee no collision with the
    quadrature nodes.
    """
    return _on_window(f, window, lambda xs: pv_values(kernel, f, xs))
