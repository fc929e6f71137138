"""Minimal dense-network core: linear layers, LeakyReLU, Sigmoid, inverted
dropout, hand-written reverse-mode gradients, and Adam.

Everything is float64.  That is not forced by the learning rate: at the
production 1e-6 the median relative Adam step is 1.2e-5 to 3.4e-5, about
100-570 float32 ulps, and only 0.02-0.2% of elements would not move.  It is
kept because the bit-for-bit tests and the benchmark's float64 reference
check are written against it; float32 waits on a quality band that can
judge outputs which are no longer bit-identical.  Batches are row-major
float64 arrays, (batch, features), used as given: the package fixes dtype
and shape where its inputs enter, so nothing here converts them.
`MLP.forward(x, rng=None)` is in training mode exactly when an rng is
given, from which dropout draws its masks; with none it draws nothing.
`Linear.forward(x)` draws nothing and takes no rng.
A network instance is single-writer during training; clone parameters for
concurrent read-only inference.

An MLP owns its parameters: one flat vector `theta`, in `params()` order
(layer by layer, weight then bias), allocated once with `np.zeros`.  Its
flat `grad` has the same layout and is its own `np.zeros` vector until
`use_grad(buffer)` makes it the first `theta.size` elements of a given
float64 vector.  That vector is a workspace that networks whose gradients
are never live at the same time can share (the Trainer's G and D do, in a
vector that also takes G's validation scores): a network's `grad` is
meaningful only from its `zero_grad` to its optimizer step, and outside
that span it may hold anything else.  Each Linear holds views into `theta` and
`grad`, so Adam and checkpoint I/O are single array operations.  The MLP
draws each layer's initial weights straight into its weight view
(`rng.random(out=...)`, then scaled and shifted in place, which gives
`rng.uniform`'s bits without a weight-sized temporary: He uniform for the
hidden layers, Xavier uniform for the output layer, zero biases); built
with no rng, it leaves `theta` at zero, which is how `load_checkpoint` fills
a network from the stored vector without drawing an init it would overwrite.

`MLP.zero_grad()` clears nothing: it marks every Linear, so that the next
`backward` of each layer writes its parameter gradients whole into the flat
store (`np.matmul(..., out=)`, `np.sum(..., out=)`), over whatever `grad`
held.  That gives the bits of adding them to zeros: 0 + a is a (a -0.0
stays -0.0 where the sum gave 0.0, which Adam cannot tell apart).
`Adam.step` refuses, before any write, a network with a Linear that
`zero_grad` marked and no backward has written since, whose gradient would
be stale: a RuntimeError names the layer.
Every later backward accumulates (the discriminator's real and fake passes
sum into one gradient), and so does a backward into a `grad` that was never
zeroed through `zero_grad`.  An accumulating backward adds x.T @ grad_out
into `grad` in row blocks of about WEIGHT_GRAD_BLOCK elements (1 MiB), so
no weight-sized product is allocated (at ML1M shape the discriminator's
layer-0 product would be 65 MB) and the block is no larger than a few
batch-sized arrays.  A weight of at most WEIGHT_GRAD_BLOCK elements is
one block, the whole product.  Each element of a row block is the same
dot product over the batch as in the whole-matrix product, but a BLAS
kernel may sum it in another order for another block shape, so which
accumulating widths keep their bits is measured, per kernel and thread
count.  With OpenBLAS 0.3.31 at batch 64, 1753 and 4000 rows: on the
SkylakeX kernels, on one thread and two, every multiple of 16 up to 256
and 512, 1024 and 2048 kept them (1682, at 1100 rows, did not); on the
Haswell kernels on one thread, the paper discriminator's 2048 and 512
and the desk discriminator's 128 kept them, and 96, 160 and 224 did not
(the bit-for-bit tests check 2048 and 128 in both one-thread CI legs);
on the Haswell kernels on two threads, which no check runs, most widths
lost them at 1753 rows, 128 and 2048 among them.  A width outside these
lists keeps its bits for certain only in a weight of one block.  The written
gradient stays one whole-matrix product: it needs no temporary, and in
blocks the generator's 1682-wide output layer would not keep its bits.

`MLP.backward(grad_out)` only accumulates parameter gradients and returns
nothing: the input layer (told so at construction) skips the input gradient
grad_out @ W.T, which nobody reads.  `MLP.input_grad(grad_out)` returns the
gradient w.r.t. the input alone: each Linear runs `input_grad` and `grad` is
left as it is.  Use it for a pass whose parameter gradients nobody reads,
such as the discriminator pass that only feeds the generator.  Either way
each Linear drops its kept input once it has read it (`input_grad` reads
none), before the input gradient's product.

The output layer makes one score-sized array: `Linear.forward` adds the
bias into the product it just made (`out = x @ W; out += b`), and
`Sigmoid.forward` consumes that fresh product, negating, exponentiating,
adding 1 and inverting in place.  These are the operations of
x @ W + b and 1 / (1 + exp(-x)) in the same order, so the bits are theirs.
`MLP.predict` runs the same operations itself (`np.matmul(x, W, out=out);
out += b`), in a fresh product or, given `out=buf`, in the caller's `buf`,
where it makes none.

An MLP's `layers` are its Linears.  Each hidden Linear is followed by
LeakyReLU and, in training mode at a positive dropout rate, by inverted
dropout; the output Linear by Sigmoid.  The activation classes hold no
state: their static `forward` and `backward` are given what they read.
Every activation's `forward` consumes its input, the fresh product of the
Linear before it, and returns that array: a hidden layer's product is
activated and dropped out in place and becomes the next Linear's input,
so the tape holds one layer-sized array per hidden layer besides its
masks.  Each `backward` returns a new array, the input gradient, and
leaves its `grad_out` alone, since a caller may pass one gradient to two
passes.  The MLP keeps the one activation tape a backward reads: each
Linear's input, each hidden layer's `x >= 0` mask and, where dropout
drew, its bool keep mask (`Dropout.backward` rebuilds the scale
`keep / (1.0 - rate)` from it), and the sigmoid output.  `MLP.forward`,
with an rng or without, records it; `MLP.backward` and `MLP.input_grad`
run one loop, which pops each entry at its last reader, so no activation
outlives a training step.  A second backward or input_grad on one
forward, or one after `predict`, raises RuntimeError before any layer
runs.  `MLP.predict(x, out=None)` is inference: the rng-less forward's
bits, with no tape and no mask, so it keeps nothing and holds no more
than one layer's input and output at a time.

LeakyReLU is branch-free: forward is max(x, LEAKY_SLOPE*x), and backward
multiplies by a factor of exactly 1.0 or LEAKY_SLOPE, which gives the bits
of the two-branch `np.where` form, signed zeros, infinities and NaN
included.

Adam walks the flat theta/grad/m/v in blocks of ADAM_BLOCK elements, so the
intermediates of its per-element arithmetic stay in cache instead of
streaming whole-network temporaries through memory.  Each element sees the
textbook operations in the textbook order, so the result is bit-identical to
unblocked, per-tensor Adam.  Before any write it checks the gradient in one
BLAS read: a sum of squares cannot cancel, so a finite `grad @ grad` proves
every element finite.  Only a non-finite sum (a NaN or an inf, or finite
values whose squares overflow) pays for the per-element check, which decides
and names the offending tensor.
The blocks run on as many threads as BLAS has (`adam_threads()`), when the
loaded BLAS is an OpenBLAS that serves its calls from its own pthreads pool:
after the checks, `Adam.step` parks that pool (`blas_thread_shutdown_`
joins its idle workers, which would otherwise spin on their cores for about
0.13 s after every product, as measured with OpenBLAS 0.3.31; the next BLAS
call restarts them at the same count, with the same bits), and splits the blocks into contiguous runs of
whole blocks, one per thread, the calling thread taking the first.  No
element's operations change, so every bit is the one-thread result's.
With `OPENBLAS_NUM_THREADS=1`, or any other BLAS (MKL, Accelerate, an
OpenMP OpenBLAS), Adam runs on the calling thread alone.

`release_free_heap()` hands the C heap's free pages back to the OS through
glibc's `malloc_trim(0)`, found once like the OpenBLAS functions; where the
C library has no such function (musl, macOS) it does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

from .data import _archive_array, _read_archive, _write_archive

# Adam's block length in elements (256 KiB of float64).  A block's four
# slices and two scratch buffers (1.5 MiB) stay in a 2 MiB L2, and the
# per-block numpy call overhead stays small: on a 2-core Xeon a step at
# ML100K discriminator shape took 47-49 ms for 16K-64K blocks, 60 ms at
# 8K, 52 ms at 128K and 100 ms unblocked.
ADAM_BLOCK = 32768

# The accumulated weight gradient's block length in elements (1 MiB of
# float64): at the paper's ML1M discriminator widths, layer 0's 4000x2048
# gradient (65 MB) is added in 62 row blocks of 64 rows and one of 32.  On a
# 2-core Xeon (OpenBLAS 0.3.31) that took 25-41 ms at batch 64 in 1 MiB and
# in 4 MiB blocks alike.
WEIGHT_GRAD_BLOCK = 131072

# The LeakyReLU slope of every MLP hidden layer.
LEAKY_SLOPE = 0.01

# Adam's beta1, beta2 and eps: Kingma & Ba's (2015) defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    """Non-finite value encountered during training."""


class Linear:
    """y = x @ W + b with W shaped (in, out): `forward(x)` returns it and
    keeps `x` for `backward`.  `weight`, `bias` and their gradients are views
    into the owning MLP's `theta` and `grad`.  The input layer
    (`input_layer=True`) returns no input gradient from `backward`."""

    def __init__(self, weight, bias, input_layer=False):
        self.weight, self.bias = weight, bias
        self.grad_weight = self.grad_bias = None    # set by MLP.use_grad
        self.input_layer = input_layer
        self._x = None
        self._overwrite = False     # set by MLP.zero_grad: next backward writes

    def forward(self, x):
        self._x = x
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, grad_out):
        """Writes (after zero_grad) or adds the parameter gradients; returns
        the input gradient, or None for the input layer.  The kept input is
        dropped before the input gradient's product."""
        if self._overwrite:
            np.matmul(self._x.T, grad_out, out=self.grad_weight)
            np.sum(grad_out, axis=0, out=self.grad_bias)
            self._overwrite = False
        else:
            for rows in _row_blocks(*self.grad_weight.shape):
                self.grad_weight[rows] += self._x[:, rows].T @ grad_out
            self.grad_bias += grad_out.sum(axis=0)
        self._x = None
        return None if self.input_layer else grad_out @ self.weight.T

    def input_grad(self, grad_out):
        """The gradient w.r.t. the input alone; parameter gradients are
        untouched, and the kept input, which it does not read, is dropped."""
        self._x = None
        return grad_out @ self.weight.T

    def release(self):
        self._x = None


def _row_blocks(n_rows: int, n_cols: int):
    """Row slices of about WEIGHT_GRAD_BLOCK elements each.  The last block
    is never a lone row unless the matrix is one: numpy sends a one-row
    product to BLAS gemv, whose sums need not match gemm's."""
    step = max(2, WEIGHT_GRAD_BLOCK // n_cols)
    bounds = [*range(0, max(n_rows - 1, 1), step), n_rows]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class LeakyReLU:
    """max(x, LEAKY_SLOPE*x), computed in place: `forward` consumes its
    input, which in an MLP is the fresh product of a hidden Linear.
    `backward` reads the `x >= 0` mask of that input."""

    @staticmethod
    def forward(x):
        return np.maximum(x, LEAKY_SLOPE * x, out=x)

    @staticmethod
    def backward(grad_out, mask):
        # The factor is exactly 1.0 where x >= 0 and LEAKY_SLOPE elsewhere;
        # it becomes the input gradient (factor * grad_out, the bits of
        # grad_out * factor).
        factor = np.maximum(mask, LEAKY_SLOPE)
        factor *= grad_out
        return factor


class Sigmoid:
    """1 / (1 + exp(-x)), computed in place: `forward` consumes its input,
    which in an MLP is the fresh product of the output Linear.  `backward`
    reads the output.  A saturated sigmoid is not reported: below
    x = -709.78 exp(-x) overflows and the output is 0, just above it the
    output is subnormal, and above x = 745 exp(-x) underflows and the
    output is 1."""

    @staticmethod
    def forward(x):
        y = np.negative(x, out=x)
        with np.errstate(over="ignore", under="ignore"):
            np.exp(y, out=y)
            y += 1.0
            return np.divide(1.0, y, out=y)

    @staticmethod
    def backward(grad_out, y):
        grad_in = grad_out * y
        grad_in *= 1.0 - y
        return grad_in


class Dropout:
    """Inverted dropout at a rate in (0, 1), in training mode: `forward`
    draws the bool keep mask from `rng`, scales its input in place by
    `keep / (1.0 - rate)` (survivors by 1/(1-rate), the rest to zero) and
    returns it with the mask, which `backward` reads to rebuild that
    scale."""

    @staticmethod
    def forward(x, rate, rng):
        keep = rng.random(x.shape) >= rate
        x *= keep / (1.0 - rate)
        return x, keep

    @staticmethod
    def backward(grad_out, keep, rate):
        # scale * grad_out: the bits of grad_out * scale.
        scale = keep / (1.0 - rate)
        scale *= grad_out
        return scale


class MLP:
    """Sequential dense net of the Linears in `layers`: LeakyReLU hiddens
    (with inverted dropout at rate `dropout` in training mode), sigmoid
    output.  forward() records the activation tape of one backward() or
    input_grad() pass, which pops it; predict() records nothing.
    `sizes` holds two or more int widths >= 1, as `train.Trainer` (from a
    checked `TrainConfig` and cache) and `load_checkpoint` (from a header
    that CHECKPOINT_HEADER checks) pass them.  `rng` draws the initial
    weights; with None, `theta` stays zero."""

    def __init__(self, sizes, rng: np.random.Generator | None, dropout: float = 0.0):
        self.sizes = [int(n) for n in sizes]
        self.dropout = dropout
        self.theta = np.zeros(sum((a + 1) * b for a, b in zip(self.sizes, self.sizes[1:])))
        views = self._layer_views(self.theta)
        if rng is not None:
            for k, (weight, _) in enumerate(views):
                # He uniform for hidden layers, Xavier uniform for the output,
                # as rng.uniform computes it: low + (high - low) * next_double.
                a, b = weight.shape
                bound = np.sqrt(6.0 / (a + b if k == len(views) - 1 else a))
                rng.random(out=weight)
                weight *= bound - (-bound)
                weight += -bound
        self.layers = [Linear(weight, bias, input_layer=k == 0)
                       for k, (weight, bias) in enumerate(views)]
        # The tape beside each Linear's input: per hidden layer its mask and,
        # where dropout drew, its keep mask; and the sigmoid output.
        self._masks, self._keeps, self._y = [], [], None
        self.use_grad(np.zeros(self.theta.size))

    def _layer_views(self, flat):
        """(weight, bias) views of each layer in a vector laid out like `theta`."""
        views, offset = [], 0
        for a, b in zip(self.sizes, self.sizes[1:]):
            mid, end = offset + a * b, offset + (a + 1) * b
            views.append((flat[offset:mid].reshape(a, b), flat[mid:end]))
            offset = end
        return views

    def use_grad(self, buffer):
        """Make the first `theta.size` elements of `buffer`, a flat float64
        array, this network's `grad`, and point every Linear's gradient views
        into it.  Networks whose gradients are never live at the same time
        can share one buffer: its contents are this network's gradient only
        from `zero_grad` to the optimizer step.  The caller passes a
        contiguous vector of at least `theta.size` elements, as `__init__`
        (its own zeros) and `train.Trainer` (its `workspace`) do."""
        self.grad = buffer[:self.theta.size]
        for linear, (weight, bias) in zip(self.layers, self._layer_views(self.grad)):
            linear.grad_weight, linear.grad_bias = weight, bias

    def forward(self, x, rng=None):
        """The output for `x`, a (b, sizes[0]) float64 batch, recording the
        tape; in training mode (dropout draws) exactly when `rng` is given."""
        self._masks, self._keeps, self._y = [], [], None
        for linear in self.layers[:-1]:
            x = linear.forward(x)
            self._masks.append(x >= 0)
            x = LeakyReLU.forward(x)
            if rng is not None and self.dropout > 0.0:
                x, keep = Dropout.forward(x, self.dropout, rng)
                self._keeps.append(keep)
        self._y = Sigmoid.forward(self.layers[-1].forward(x))
        return self._y

    def predict(self, x, out=None):
        """Eval-mode output for `x`, bit for bit the rng-less forward's,
        recording no tape: each Linear's input is dropped as soon as its
        output exists.  A training forward's tape is dropped too.  `x` is a
        (b, sizes[0]) float64 batch, as `forward`'s.  Given `out`, a
        C-contiguous (b, sizes[-1]) float64 array, the output layer writes
        into it and returns it.  The output layer runs `Linear.forward`'s
        operations, in its order, without calling it."""
        self._masks, self._keeps, self._y = [], [], None
        *hidden, last = self.layers
        for linear in hidden:
            x = linear.forward(x)
            linear.release()
            x = LeakyReLU.forward(x)
        x = np.matmul(x, last.weight, out=out)
        x += last.bias
        last.release()
        return Sigmoid.forward(x)

    def backward(self, grad_out):
        """Backprop a loss gradient into the parameter gradients, which
        accumulate into `grad` (the first backward after zero_grad writes
        them).  Returns nothing: the input layer skips its input gradient."""
        self._backprop(grad_out, Linear.backward)

    def input_grad(self, grad_out):
        """Backprop a loss gradient to the input alone and return it; no
        parameter gradient is computed and `grad` is left as it is."""
        return self._backprop(grad_out, Linear.input_grad)

    def _backprop(self, grad_out, step):
        """Run the activations' backwards and `step(linear, grad_out)` on
        each Linear, from the output down, popping each tape entry at its
        last reader (a Linear's `backward` and `input_grad` drop its input).
        An empty tape raises RuntimeError before any layer runs: each
        forward serves one pass."""
        if self._y is None:
            raise RuntimeError(f"layer{len(self.layers) - 1} holds no activations: each "
                               f"forward serves one backward or input_grad")
        grad_out = Sigmoid.backward(grad_out, self._y)
        self._y = None
        for linear in reversed(self.layers):
            grad_out = step(linear, grad_out)
            # One mask (and one keep mask, where dropout drew) per Linear below.
            if self._keeps:
                grad_out = Dropout.backward(grad_out, self._keeps.pop(), self.dropout)
            if self._masks:
                grad_out = LeakyReLU.backward(grad_out, self._masks.pop())
        return grad_out

    def zero_grad(self):
        """Mark every Linear, so that its next `backward` writes its
        gradients whole; `grad` itself is left as it is until then."""
        for linear in self.layers:
            linear._overwrite = True

    def params(self):
        """(name, value, grad) of every weight and bias, in `theta` order;
        `layer{k}` is the k-th Linear."""
        out = []
        for k, linear in enumerate(self.layers):
            out += [(f"layer{k}.weight", linear.weight, linear.grad_weight),
                    (f"layer{k}.bias", linear.bias, linear.grad_bias)]
        return out


def _find_openblas():
    """(park, threads): the loaded OpenBLAS's `blas_thread_shutdown_` and its
    thread-count getter, when it serves BLAS calls from its own pthreads
    pool (`openblas_get_parallel() == 1`); else None.  The library is the
    mapped file whose name contains `openblas`; a build may export its
    functions with a `scipy_` prefix and a `64_` suffix."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps}
        for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
            lib = ctypes.CDLL(path)
            park = getattr(lib, "blas_thread_shutdown_", None)
            parallel, threads = (_exported(lib, stem)
                                 for stem in ("get_parallel", "get_num_threads"))
            if park is None or parallel is None or threads is None:
                continue
            for function in (park, parallel, threads):
                function.argtypes, function.restype = (), ctypes.c_int
            if parallel() == 1:
                return park, threads
    except OSError:
        pass
    return None


def _exported(lib, stem):
    """The function `openblas_<stem>` of `lib` under its exported name, or None."""
    names = (f"{pre}openblas_{stem}{suf}" for pre in ("", "scipy_") for suf in ("", "64_"))
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)


_OPENBLAS = _find_openblas()


def _find_malloc_trim():
    """The C library's `malloc_trim` (glibc's), or None where it has none
    (musl, macOS) or cannot be opened."""
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):
        return None
    if trim is not None:
        trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return trim


_MALLOC_TRIM = _find_malloc_trim()


def release_free_heap() -> None:
    """Give the C heap's free pages back to the OS (`malloc_trim(0)`), so
    the RSS no longer counts them; a no-op without `malloc_trim`.  It moves
    no live allocation, so no value changes."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def adam_threads() -> int:
    """The threads `Adam.step` splits its blocks over: the BLAS thread count
    when the loaded OpenBLAS's pool can be parked, else 1."""
    return 1 if _OPENBLAS is None else max(1, _OPENBLAS[1]())


def _adam_blocks(theta, grad, m_all, v_all, lo, hi, scratch, lr, c1, c2):
    """Adam's update of elements lo:hi, ADAM_BLOCK at a time, with the two
    rows of `scratch` as each block's temporaries; it allocates nothing."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    # The textbook per-element operations, in order, block by block:
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    # theta -= lr*m_hat / (sqrt(v_hat) + eps).
    for start in range(lo, hi, ADAM_BLOCK):
        end = min(start + ADAM_BLOCK, hi)
        g, m, v = grad[start:end], m_all[start:end], v_all[start:end]
        a, b = scratch[0, :end - start], scratch[1, :end - start]
        np.multiply(g, 1.0 - b1, out=a)
        m *= b1
        m += a
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v *= b2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        theta[start:end] -= a


def _adam_helper(errors, failures, *args):
    """A helper thread's run: numpy's error state does not cross threads,
    so it takes the caller's; an exception is kept for the caller."""
    try:
        with np.errstate(**errors):
            _adam_blocks(*args)
    except BaseException as exc:
        failures.append(exc)


class Adam:
    """Bias-corrected adaptive-moment optimizer; `m`, `v` match `net.theta`.
    `step` runs its blocks on `adam_threads()` threads, the BLAS thread
    count (1 unless OpenBLAS's own pool can be parked): the calling thread
    takes the first contiguous run of whole blocks and a helper thread each
    later run, while the parked OpenBLAS workers leave their cores free.
    Every element gets the same operations on any thread count, so the bits
    are the one-thread result's.  Parking is for a process whose BLAS calls
    come from one thread: no other thread may be inside BLAS during `step`."""

    def __init__(self, net: MLP, lr: float):
        self.net = net
        self.lr = lr
        self.t = 0
        self.m = np.zeros(net.theta.size)
        self.v = np.zeros(net.theta.size)

    def step(self):
        """One update from `net.grad`.  A Linear that `zero_grad` marked and
        no backward has written since holds a stale gradient, which raises
        RuntimeError naming the layer, as does a non-finite gradient
        (TrainingError); either before any write.  An exception in a helper
        thread (a FloatingPointError under the caller's `np.errstate`) is
        raised here after every thread has finished."""
        for k, linear in enumerate(self.net.layers):
            if linear._overwrite:
                raise RuntimeError(f"layer{k} has no gradient: no backward since zero_grad")
        grad = self.net.grad
        t = self.t + 1
        with np.errstate(over="ignore"):
            finite = np.isfinite(grad @ grad) or np.isfinite(grad).all()
        if not finite:
            name = next(name for name, _, g in self.net.params()
                        if not np.isfinite(g).all())
            raise TrainingError(f"non-finite gradient in {name} at step {t}")
        self.t = t
        n = grad.size
        blocks = -(-n // ADAM_BLOCK)
        threads = min(adam_threads(), blocks)
        if threads > 1:
            _OPENBLAS[0]()          # park the BLAS workers: Adam takes their cores
        edges = [min(n, ADAM_BLOCK * (blocks * k // threads)) for k in range(threads + 1)]
        scratch = np.empty((threads, 2, min(n, ADAM_BLOCK)))
        args = [(self.net.theta, grad, self.m, self.v, lo, hi, rows,
                 self.lr, 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t)
                for lo, hi, rows in zip(edges, edges[1:], scratch)]
        errors, failures = {**np.geterr(), "call": np.geterrcall()}, []
        helpers = [threading.Thread(target=_adam_helper, args=(errors, failures, *a))
                   for a in args[1:]]
        try:
            for helper in helpers:
                helper.start()
            _adam_blocks(*args[0])
        finally:
            for helper in helpers:
                if helper.ident is not None:    # started
                    helper.join()
        if failures:
            raise failures[0]


# ---------------------------------------------------------------------------
# Checkpoint container: .npz with a json header (the format version, each
# network role's layer sizes, and the run metadata) and, per role, the
# float64 vector `<role>/params` in `params()` order.  It is an eval
# artifact: no optimizer moments or RNG state, so training cannot resume
# from it, and no dropout rate, which eval-mode inference does not use.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 4
CHECKPOINT_HEADER = {       # the header's spec, see `data.check_document`
    "version": (int, f"the supported version {CHECKPOINT_VERSION}; re-run train",
                lambda v: v == CHECKPOINT_VERSION),
    "nets": (dict, "a json object of layer-width lists",
             lambda v: all(type(sizes) is list and len(sizes) >= 2
                           and all(type(n) is int and n >= 1 for n in sizes)
                           for sizes in v.values())),
    "meta": (dict, "a json object", None)}


def save_checkpoint(path, nets: dict[str, MLP], meta: dict) -> None:
    """Atomic checkpoint write.  `nets` is keyed by role (e.g. 'generator');
    `meta` must be json-serializable."""
    header = {
        "version": CHECKPOINT_VERSION,
        "nets": {name: net.sizes for name, net in nets.items()},
        "meta": meta,
    }
    _write_archive(path, header, **{f"{name}/params": net.theta for name, net in nets.items()})


def load_checkpoint(path):
    """Returns (nets, meta) from a checkpoint file, building only the
    networks its header names.

    An unreadable or damaged file, a header that breaks CHECKPOINT_HEADER
    (its format version included), or an array that is missing, not the
    float64 vector its header implies (which would otherwise broadcast into
    the network) or holds a NaN or an inf raises ValueError naming path and
    problem; a missing file raises FileNotFoundError."""
    with _read_archive(path, "checkpoint", CHECKPOINT_HEADER) as (header, z):
        nets = {}
        for name, sizes in header["nets"].items():
            net = nets[name] = MLP(sizes, None)
            net.theta[...] = _archive_array(z, f"{name}/params", np.float64,
                                            net.theta.shape)
        return nets, header["meta"]
