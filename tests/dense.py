"""Dense matrix product, the reference the tests hold the sparse
reflection kernels and the factorizations against; the package itself
runs no dense product."""


def mat_mul(a: tuple, b: tuple) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)
