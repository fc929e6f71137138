"""A float64 reference of srlgan's training steps, written from the paper's
equations and sharing no code with `srlgan.nn` or `srlgan.model`.

`check_training_steps` builds a small `srlgan.train.Trainer`, copies its
initial weights, runs its pretraining and adversarial rounds, and replays
the same steps here: MLP forward and backward, the LSGAN (non-saturating)
and reconstruction losses, the sparsity KL term and Adam.  The parameter
changes of both must agree.  A skipped, stale or wrong gradient moves the
weights by a different amount, so the check fails, whatever the final
P@5 happens to be.

The check runs without dropout and with one batch that holds every row,
so no random draw decides what the steps see: the program may change how
it uses its random stream without failing the check.
"""

from __future__ import annotations

import numpy as np

SLOPE = 0.01            # LeakyReLU slope of the hidden layers
KL_EPS = 1e-6           # clamp of the Bernoulli KL arguments
# Small widths of the same depth as the paper's networks, so the check
# costs milliseconds at either dataset shape.
GENERATOR_HIDDEN = [32, 64, 64]
DISCRIMINATOR_HIDDEN = [64, 32, 16]
LEARNING_RATE = 1e-3    # large enough that later steps see moved weights
PRETRAIN_STEPS = 2
ROUNDS = 3
TOLERANCE = 1e-6        # relative L2 distance of the weight changes


class Net:
    """Weights of one MLP: LeakyReLU hidden layers, sigmoid output."""

    def __init__(self, weights):
        self.weights = [(w.copy(), b.copy()) for w, b in weights]

    def forward(self, x):
        """Returns the output and the (input, pre-activation) of each layer."""
        tape = []
        for k, (w, b) in enumerate(self.weights):
            z = x @ w + b
            tape.append((x, z))
            x = 1.0 / (1.0 + np.exp(-z)) if k == len(self.weights) - 1 \
                else np.where(z >= 0, z, SLOPE * z)
        return x, tape

    def backward(self, tape, out, grad):
        """Gradients of each (w, b) and of the input, given d loss / d out."""
        grads = [None] * len(self.weights)
        for k in reversed(range(len(self.weights))):
            x, z = tape[k]
            grad = grad * out * (1.0 - out) if k == len(self.weights) - 1 \
                else np.where(z >= 0, grad, SLOPE * grad)
            grads[k] = (x.T @ grad, grad.sum(axis=0))
            grad = grad @ self.weights[k][0].T
        return grads, grad


class AdamRef:
    """Kingma & Ba's Adam with bias correction (beta1 0.9, beta2 0.999)."""

    def __init__(self, net: Net, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.net, self.lr, self.beta1, self.beta2, self.eps = net, lr, beta1, beta2, eps
        self.t = 0
        self.m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in net.weights]
        self.v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in net.weights]

    def step(self, grads):
        self.t += 1
        for layer, pair in enumerate(grads):
            for j, g in enumerate(pair):
                m = self.m[layer][j]
                v = self.v[layer][j]
                m[...] = self.beta1 * m + (1.0 - self.beta1) * g
                v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
                m_hat = m / (1.0 - self.beta1 ** self.t)
                v_hat = v / (1.0 - self.beta2 ** self.t)
                self.net.weights[layer][j][...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def add(a, b):
    return [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(a, b)]


def train_reference(gen: Net, disc: Net, x, y, beta: float):
    """Pretraining then adversarial rounds, one batch of every row each step."""
    n, d = x.shape
    opt_g, opt_d = AdamRef(gen, LEARNING_RATE), AdamRef(disc, LEARNING_RATE)
    rho = y.mean(axis=0)

    def adversarial_grad(y_hat):
        """d(0.5 mean (D(x, y_hat) - 1)^2) / d y_hat through the current D."""
        d_out, tape = disc.forward(np.concatenate([x, y_hat], axis=1))
        _, grad_in = disc.backward(tape, d_out, (d_out - 1.0) / n)
        return grad_in[:, d:]

    for _ in range(PRETRAIN_STEPS):
        y_hat, tape = gen.forward(x)
        opt_g.step(gen.backward(tape, y_hat, 2.0 * (y_hat - y) / n)[0])
    for _ in range(ROUNDS):
        # D phase: D learns real -> 1 and fake -> 0, then G follows the new D.
        y_hat, _ = gen.forward(x)
        real, real_tape = disc.forward(np.concatenate([x, y], axis=1))
        fake, fake_tape = disc.forward(np.concatenate([x, y_hat], axis=1))
        opt_d.step(add(disc.backward(real_tape, real, (real - 1.0) / n)[0],
                       disc.backward(fake_tape, fake, fake / n)[0]))
        y_hat, tape = gen.forward(x)
        opt_g.step(gen.backward(tape, y_hat, adversarial_grad(y_hat))[0])
        # G phase: reconstruction + adversarial + beta * KL(rho || mean y_hat).
        y_hat, tape = gen.forward(x)
        rho_hat = y_hat.mean(axis=0)
        p = np.clip(rho, KL_EPS, 1.0 - KL_EPS)
        q = np.clip(rho_hat, KL_EPS, 1.0 - KL_EPS)
        kl_grad = np.where((rho_hat < KL_EPS) | (rho_hat > 1.0 - KL_EPS), 0.0,
                           (1.0 - p) / (1.0 - q) - p / q)
        grad = 2.0 * (y_hat - y) / n + adversarial_grad(y_hat) + beta * kl_grad / n
        opt_g.step(gen.backward(tape, y_hat, grad)[0])


def weights_of(mlp):
    """(weight, bias) pairs of an `srlgan.nn.MLP`, in layer order."""
    values = [value for _, value, _ in mlp.params()]
    return list(zip(values[0::2], values[1::2]))


def flat(weights) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in weights for a in pair])


def check_training_steps(x, y, seed: int) -> dict:
    """Relative L2 distance between the Trainer's weight changes and the
    reference's, per network.  `x`, `y`: float64 rows of one batch."""
    from srlgan import train as T

    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    config = T.TrainConfig(seed=seed, batch_size=len(x), n_e=PRETRAIN_STEPS,
                           max_rounds=ROUNDS, eval_every=ROUNDS,
                           learning_rate=LEARNING_RATE, dropout=0.0,
                           generator_hidden=GENERATOR_HIDDEN,
                           discriminator_hidden=DISCRIMINATOR_HIDDEN)
    trainer = T.Trainer(x, y, config)
    nets = {"generator": trainer.generator, "discriminator": trainer.discriminator}
    start = {role: Net(weights_of(net)) for role, net in nets.items()}
    reference = {role: Net(net.weights) for role, net in start.items()}
    trainer.pretrain_generator()
    trainer.train()
    train_reference(reference["generator"], reference["discriminator"], x, y, config.beta)
    out = {}
    for role, net in nets.items():
        origin = flat(start[role].weights)
        got = flat(weights_of(net)) - origin
        want = flat(reference[role].weights) - origin
        out[role] = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    return out
