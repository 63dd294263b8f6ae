"""One batch at a time from a bare stream, as step-by-step references
read it."""

from svilab.oracle import Feed


def one_step(noise, stream, n, dim):
    """The feed of the one batch of ``n`` samples that ``noise_sum`` or
    ``batch_mean`` reads next from ``stream``, for points of ``dim``
    entries. A fresh one per batch reads the batches of a stream in
    turn."""
    return Feed(noise, stream, (n,), dim)
